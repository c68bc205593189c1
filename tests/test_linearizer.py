import random
import re
import string
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdohkit import linearizer
from sdohkit.corpus import Event, TextSpan
from sdohkit.linearizer import (
    InvalidRecord,
    SerializeError,
    parse_events,
    repair_span,
    serialize_events,
)
from sdohkit.qa import RunMetrics
from sdohkit.schema import ArgumentDef, EventTypeDef, Schema, load_schema
from sdohkit.synth import generate_synthetic

from helpers import edit_distances_reference, repair_span_reference

MINI = load_schema(
    """
{
  "version": "t1",
  "event_types": [
    {"name": "LivingArrangement",
     "arguments": [{"name": "Status", "required": true, "subtypes": ["past", "current"]}]}
  ]
}
"""
)

DOC = "Patient lives with family."


def _la(start, end, text, **args):
    return Event("LivingArrangement", TextSpan(start, end, text), dict(args))


def test_serialize_empty_is_none(schema):
    assert serialize_events([], schema) == "NONE"


def test_serialize_single_event():
    ev = _la(8, 13, "lives", Status="current")
    assert (
        serialize_events([ev], MINI)
        == "LivingArrangement [lives] | Status = current [lives]"
    )


def test_serialize_joins_with_and(schema):
    corpus = generate_synthetic(schema, 40, 301)
    doc = next(d for d in corpus.docs if len(d.events) == 2)
    out = serialize_events(doc.events, schema)
    assert out.count(" AND ") == 1


def test_serialize_orders_by_trigger_start(schema):
    corpus = generate_synthetic(schema, 40, 303)
    doc = next(d for d in corpus.docs if len(d.events) >= 3)
    out = serialize_events(list(reversed(doc.events)), schema)
    texts = [e.trigger.text for e in sorted(doc.events, key=lambda e: e.trigger.start)]
    positions = [out.index(f"{e}]") for e in texts]
    assert positions == sorted(positions)


def test_serialize_rejects_reserved_tokens():
    ev = _la(0, 5, "a ] b", Status="past")
    with pytest.raises(SerializeError, match="reserved"):
        serialize_events([ev], MINI)
    ev = _la(0, 9, "x AND y z", Status="past")
    with pytest.raises(SerializeError, match="reserved"):
        serialize_events([ev], MINI)


def test_serialize_rejects_invalid_event():
    with pytest.raises(SerializeError):
        serialize_events([_la(8, 13, "lives")], MINI)  # missing required Status


def test_parse_round_trip_single():
    ev = _la(8, 13, "lives", Status="current")
    out = serialize_events([ev], MINI)
    res = parse_events(out, DOC, MINI)
    assert res.events == [ev]
    assert res.invalid_records == []
    assert res.repaired_count == 0


def test_parse_round_trip_random(schema):
    corpus = generate_synthetic(schema, 300, 307)
    for d in corpus.docs:
        out = serialize_events(d.events, schema)
        res = parse_events(out, d.document.text, schema)
        assert res.invalid_records == []
        assert res.repaired_count == 0
        assert res.events == sorted(
            d.events, key=lambda e: (e.trigger.start, e.trigger.end, e.event_type)
        )


def test_parse_none_and_empty(schema):
    for text in ("NONE", "none", " NONE. ", ""):
        res = parse_events(text, DOC, schema)
        assert res.events == [] and res.invalid_records == []


def test_parse_malformed_fragment():
    res = parse_events("LivingArrangement lives]", DOC, MINI)
    assert res.events == []
    assert [r.reason for r in res.invalid_records] == ["format"]
    assert res.invalid_records[0].level == "trigger"


def test_parse_unknown_type():
    res = parse_events("Housing [lives] | Status = current [lives]", DOC, MINI)
    assert [r.reason for r in res.invalid_records] == ["unknown-type"]


def test_parse_unknown_subtype():
    res = parse_events("LivingArrangement [lives] | Status = never [lives]", DOC, MINI)
    reasons = sorted(r.reason for r in res.invalid_records)
    # the bad clause plus the event dropped for its missing required argument
    assert reasons == ["format", "unknown-subtype"]
    assert res.events == []


def test_parse_trigger_echo_mismatch():
    res = parse_events("LivingArrangement [lives] | Status = current [wrong]", DOC, MINI)
    assert any(r.detail == "trigger echo mismatch" for r in res.invalid_records)


def _missing_status(fragment):
    return InvalidRecord(fragment, "format", "trigger", "missing required argument Status")


@pytest.mark.parametrize("out, events, records", [
    ("LivingArrangement [lives]Status = current [lives]", [], [InvalidRecord(
        "LivingArrangement [lives]Status = current [lives]", "format", "trigger",
        "malformed argument list")]),
    ("LivingArrangement [lives] | Status current [lives]", [], [
        InvalidRecord("Status current [lives]", "format", "argument"),
        _missing_status("LivingArrangement [lives] | Status current [lives]")]),
    ("LivingArrangement [lives] | Method = current [lives]", [], [
        InvalidRecord("Method = current [lives]", "unknown-type", "argument", "Method"),
        _missing_status("LivingArrangement [lives] | Method = current [lives]")]),
    ("LivingArrangement [lives] | Status = current [lives] | Status = past [lives]",
     [_la(8, 13, "lives", Status="current")],
     [InvalidRecord("Status = past [lives]", "format", "argument", "duplicate argument")]),
])
def test_parse_argument_list_errors(out, events, records):
    res = parse_events(out, DOC, MINI)
    assert res.events == events
    assert res.invalid_records == records


def test_parse_missing_required_argument_drops_event():
    res = parse_events("LivingArrangement [lives]", DOC, MINI)
    assert res.events == []
    assert any("missing required argument" in r.detail for r in res.invalid_records)


def test_parse_repairs_casefolded_trigger():
    res = parse_events("LivingArrangement [Lives] | Status = current [Lives]", DOC, MINI)
    assert res.repaired_count == 1
    assert res.events[0].trigger == TextSpan(8, 13, "lives")


def test_parse_repair_disabled():
    res = parse_events(
        "LivingArrangement [Lives] | Status = current [Lives]", DOC, MINI, repair=False
    )
    assert res.events == []
    assert [r.reason for r in res.invalid_records] == ["span-not-found"]


def test_repair_never_changes_exact_grounding(schema):
    corpus = generate_synthetic(schema, 60, 311)
    for d in corpus.docs:
        out = serialize_events(d.events, schema)
        with_repair = parse_events(out, d.document.text, schema, repair=True)
        without = parse_events(out, d.document.text, schema, repair=False)
        assert with_repair.events == without.events
        assert with_repair.repaired_count == 0


def test_parse_same_text_two_occurrences():
    doc = "lives here and lives there"
    out = (
        "LivingArrangement [lives] | Status = past [lives]"
        " AND LivingArrangement [lives] | Status = current [lives]"
    )
    res = parse_events(out, doc, MINI)
    assert [e.trigger.start for e in res.events] == [0, 15]


def test_parse_repeated_fragment_is_a_duplicate(monkeypatch):
    repairs = []
    monkeypatch.setattr(linearizer, "repair_span", lambda *args: repairs.append(args))
    fragment = "LivingArrangement [lives] | Status = past [lives]"
    res = parse_events(f"{fragment} AND {fragment}", "he lives alone", MINI)
    assert [e.trigger.start for e in res.events] == [3]
    assert res.invalid_records == [InvalidRecord(fragment, "format", "trigger", "duplicate event span")]
    assert repairs == []


# --- repair_span ------------------------------------------------------------------

def test_repair_casefold():
    span = repair_span("Food Insecurity", "screened for food insecurity today")
    assert span == TextSpan(13, 28, "food insecurity")


def test_repair_whitespace_and_punctuation():
    doc = "he smokes cigarettes, daily"
    assert repair_span("smokes   cigarettes", doc) == TextSpan(3, 20, "smokes cigarettes")
    assert repair_span('"smokes cigarettes,"', doc) == TextSpan(3, 20, "smokes cigarettes")


def test_repair_one_edit():
    span = repair_span("smokes ciggarettes", "he smokes cigarettes daily")
    assert span == TextSpan(3, 20, "smokes cigarettes")


def test_repair_absent_returns_none():
    assert repair_span("unemployed", "he smokes cigarettes daily") is None
    assert repair_span("", "anything") is None
    assert repair_span("abc", "", 1.0) is None


def test_repair_threshold():
    # 3 edits over max(len)=9 is 0.33, above the default 0.2
    assert repair_span("abcdefghi", "xyzdefghi xxxx", max_norm_dist=0.2) is None
    assert repair_span("abcdefghi", "xyzdefghi xxxx", max_norm_dist=0.4) is not None


def test_repair_ties_break_to_smallest_start():
    doc = "aaaa bbbb ccca and aaaa bbbb cccb"
    span = repair_span("aaaa bbbb cccx", doc)
    assert span is not None and span.start == 0


def test_repair_result_text_matches_document(schema):
    corpus = generate_synthetic(schema, 30, 313)
    rng = random.Random(0)
    for d in corpus.docs:
        for ev in d.events:
            mangled = ev.trigger.text.upper()
            span = repair_span(mangled, d.document.text)
            if span is not None:
                assert d.document.text[span.start:span.end] == span.text


@pytest.mark.parametrize(
    "claimed, doc, expected",
    [
        # the note's casefold is longer (ß -> ss, İ -> i + dot): raw-text offsets
        ("Strase", "Die Straße ist lang", TextSpan(4, 10, "Straße")),
        ("Istanbul", "born in İstanbul", TextSpan(8, 16, "İstanbul")),
        # only the claim's casefold is longer; the note is matched casefolded
        ("İstanbul", "born in istanbul", TextSpan(8, 16, "istanbul")),
        # distance 1 passes only because max(len, L) = 5 for this 4-char claim
        ("abcd", "xx abxcd yy", TextSpan(3, 8, "abxcd")),
        # two ties at distance 1: the word-aligned one beats the smaller start
        ("smokes dailly", "xsmokes daily. smokes daily", TextSpan(15, 27, "smokes daily")),
        # same start, distance and alignment: the length closest to L wins, not the shorter
        ("abcdefghiQ", "abcdefghiXY", TextSpan(0, 10, "abcdefghiX")),
        ("", "", None),
        ("", "anything", None),
        ("abc", "", None),
        # one "ß" or "ﬁ" elsewhere in the note leaves the rest of it matched casefolded
        *[("SMOKES CIGARETES", f"Social history: he smokes cigarettes daily and drinks beer.{tail}",
           TextSpan(19, 36, "smokes cigarettes")) for tail in ("", " Straße", " ofﬁce")],
        # every claim word is a note token but the phrase is not in the note:
        # stage 1 finds nothing and stage 2 repairs it
        ("daily smokes", "He smokes daily, smokes at night.", TextSpan(10, 23, "daily, smokes")),
    ],
)
def test_repair_contract_edges(claimed, doc, expected):
    assert repair_span(claimed, doc) == expected
    assert repair_span_reference(claimed, doc) == expected


def test_repair_long_claim_and_long_miss():
    note = " ".join(f"word{i} lives with family and drinks socially" for i in range(90))[:4000]
    assert len(note) == 4000
    assert repair_span("zzqx gibberish ]] output [[ vvk", note) is None
    # a claim wider than one 64-bit word, with three edits
    start = note.index("word23 ")
    end = note.index(" socially", note.index("word24 "))
    claim = note[start:end].replace("lives", "livs") + "!"
    assert len(claim) > 64
    expected = repair_span_reference(claim, note)
    assert expected == TextSpan(start, end, note[start:end])
    assert repair_span(claim, note) == expected


@pytest.mark.parametrize(
    "note_len, claim_len, expected_end",
    [(4200, 280, 278), (8400, 560, 558)],
)
def test_repair_periodic_note_is_fast(note_len, claim_len, expected_end):
    # every end of a periodic note ties within k_max; once a tie aligned at
    # both edges is best, no end whose candidates all start past it can win
    note = "smokes daily. " * (note_len // 14)
    claim = ("smokes daily. " * (claim_len // 14))[:-3] + "zzq"
    assert (len(note), len(claim)) == (note_len, claim_len)
    t0 = time.perf_counter()
    span = repair_span(claim, note)
    assert time.perf_counter() - t0 < 1.0
    assert span == TextSpan(0, expected_end, note[:expected_end])


@pytest.mark.parametrize(
    "claim_units, note_units",
    [(300, 4000), (31, 4000), (127, 8000)],
)
def test_repair_note_without_word_boundary_is_fast(claim_units, note_units):
    # "ab" repeated has one word start, at 0, so the best tie starts there and
    # every end whose candidates all start past it is skipped
    note, claim = "ab" * note_units, "ab" * claim_units + "z"
    t0 = time.perf_counter()
    span = repair_span(claim, note)
    assert time.perf_counter() - t0 < 1.0
    assert span == TextSpan(0, len(claim), note[: len(claim)])


@pytest.mark.parametrize(
    "claimed, doc, max_norm_dist, expected",
    [
        # An aligned tie is found first, at a start left of the answer, from
        # an end whose best candidate is too short for its own bound. A later
        # end's lower bound is below best and it holds the answer, so no end
        # may be skipped while d_end < best.
        ("ecegefdac", "ecxxbgaebfdac  xxx yy yxx y yecyxagefadac yx xyyyxyy", 0.4,
         TextSpan(29, 41, "ecyxagefadac")),
        ("a aba a", " a a  b bab a  babbaa", 0.4, TextSpan(12, 20, "a  babba")),
        # The answer starts far past the first tie and wins only by its word
        # start: a bound without the word-start term returns TextSpan(2, 18).
        ("ab-a-ab-a-ab-a-a", "a-" + "ab-a-" * 12 + "a", 0.2,
         TextSpan(47, 63, "ab-a-ab-a-ab-a-a")),
        # The answer starts at exactly j - min_len: a word-start search that
        # stops one character short returns TextSpan(1, 2).
        ("x", "_xx" * 22 + "_x", 0.2, TextSpan(67, 68, "x")),
    ],
)
def test_repair_prune_skips_only_losing_ends(claimed, doc, max_norm_dist, expected):
    assert repair_span(claimed, doc, max_norm_dist) == expected
    assert repair_span_reference(claimed, doc, max_norm_dist) == expected


@st.composite
def _myers_inputs(draw):
    # texts past 128 chars cross several 64-end blocks of the read-out
    pattern = draw(st.text(alphabet="abcß İ\u00a0", max_size=80))
    text = draw(st.text(alphabet="abcß İ\u00a0", max_size=300))
    return pattern, text, draw(st.booleans()), draw(st.integers(0, len(pattern) + 1))


@settings(max_examples=500, deadline=None)
@given(_myers_inputs())
@example(("", "", False, 1))
@example(("abc", "", True, 4))
@example(("abcdef", "abc", False, 7))
@example(("abcdef", "abc", True, 7))
@example(("ab" * 40, "ba" * 45, False, 81))
@example(("ab" * 40, "ba" * 45, True, 81))
# n = 63, 64, 65, 128, 129: an end at distance exactly k on bit 62, 63 and 64
@example(("abc", "x" * 60 + "abd", False, 1))
@example(("abc", "x" * 61 + "abc", False, 0))
@example(("ab" * 32, "ab" * 32, True, 0))
@example(("abc", "x" * 62 + "abc", False, 0))
@example(("ab" * 32 + "a", "ab" * 32 + "a", True, 0))
@example(("abc", "abcx" * 32, False, 4))
@example(("abc", "x" * 126 + "abc", False, 0))
# the first block falls from 70 to exactly 6, one -1 step per end: it is read
# at k = 6 (its last end, bit 63, is at k) and skipped at k = 5
@example(("a" * 70, "a" * 129, True, 6))
@example(("a" * 70, "a" * 129, True, 5))
def test_myers_distances_match_plain_dp(inputs):
    pattern, text, anchored, k = inputs
    row = edit_distances_reference(pattern, text, anchored)
    expected = [(j, d) for j, d in enumerate(row, 1) if d <= k]
    assert linearizer._myers_distances(pattern, text, anchored, k) == expected


def test_stage_one_prefilter_unicode_facts():
    # repair_span skips the word-window loop unless the claim occurs in the
    # whole note's normalization, and finds word starts with a regex; both are
    # exact only while these hold for every code point in this interpreter's
    # Unicode database
    not_space, word_char = re.compile(r"\S"), re.compile(r"[^\W_]")
    for cp in range(sys.maxunicode + 1):
        ch = chr(cp)
        is_space = not ch.split()
        assert is_space == (not_space.match(ch) is None), hex(cp)
        # the word-start pattern of span repair: [^\W_] is str.isalnum()
        assert ch.isalnum() == (word_char.match(ch) is not None), hex(cp)
        folded = ch.casefold()
        if is_space:
            assert folded == ch, hex(cp)
        else:
            assert not folded or folded.split() == [folded], hex(cp)


_REPAIR_ALPHABET = "abAB .,-ßİ\u00a0\t\n"


@settings(max_examples=1000, deadline=None)
@given(
    st.text(alphabet=_REPAIR_ALPHABET, max_size=10),
    st.text(alphabet=_REPAIR_ALPHABET, max_size=40),
    st.sampled_from([0.0, 0.2, 0.4]),
)
def test_repair_matches_reference(claimed, doc, max_norm_dist):
    assert repair_span(claimed, doc, max_norm_dist) == repair_span_reference(
        claimed, doc, max_norm_dist
    )


@pytest.mark.parametrize("max_norm_dist", [0.0, 0.2, 0.4])
@settings(max_examples=200, deadline=None)
@given(
    st.text(alphabet=_REPAIR_ALPHABET, max_size=10),
    st.text(alphabet=_REPAIR_ALPHABET, min_size=60, max_size=200),
)
def test_repair_matches_reference_on_notes_across_blocks(max_norm_dist, claimed, doc):
    # notes of 60-200 chars make the read-out cross 64-end blocks
    assert repair_span(claimed, doc, max_norm_dist) == repair_span_reference(
        claimed, doc, max_norm_dist
    )


@st.composite
def _periodic_repairs(draw):
    # many ends of a periodic note tie, which is what the prune skips
    unit = draw(st.text(alphabet=_REPAIR_ALPHABET, min_size=1, max_size=5))
    n, start = draw(st.integers(60, 200)), draw(st.integers(0, len(unit) - 1))
    claim = (unit * 31)[start : start + draw(st.integers(0, 30))]
    extra = draw(st.text(alphabet="zq", max_size=2))
    cut = draw(st.integers(0, len(extra)))
    return extra[:cut] + claim + extra[cut:], (unit * n)[:n]


@pytest.mark.parametrize("max_norm_dist", [0.0, 0.2, 0.4])
@settings(max_examples=200, deadline=None)
@given(_periodic_repairs())
def test_repair_matches_reference_on_periodic_notes(max_norm_dist, inputs):
    claimed, doc = inputs
    assert repair_span(claimed, doc, max_norm_dist) == repair_span_reference(
        claimed, doc, max_norm_dist
    )


# --- totality / fuzz ----------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_parse_events_never_raises_on_text(s):
    res = parse_events(s, DOC, MINI)
    for ev in res.events:
        assert DOC[ev.trigger.start:ev.trigger.end] == ev.trigger.text


@settings(max_examples=200, deadline=None)
@given(
    st.text(
        alphabet=string.ascii_letters + string.digits + " []|=.&AND\n",
        max_size=150,
    )
)
def test_parse_events_never_raises_on_grammar_soup(s):
    parse_events(s, DOC, MINI)


# The invalid-rate block of run metrics.

def test_invalid_rate_empty():
    empty = {"total": 0, "invalid": 0, "rate": 0.0, "by_reason": {}}
    assert RunMetrics("event", 0).to_obj()["invalid_rates"] == {"trigger": empty, "argument": empty}


def test_invalid_rate_partitions():
    m = RunMetrics(
        "event", 0, trigger_valid=96, trigger_invalid={"format": 4},
        argument_valid=96, argument_invalid={"unknown-subtype": 1, "format": 2},
    )
    rates = m.to_obj()["invalid_rates"]
    assert rates["trigger"]["total"] == 100
    assert rates["trigger"]["invalid"] == 4
    assert rates["trigger"]["rate"] == pytest.approx(0.04)
    assert rates["trigger"]["by_reason"] == {"format": 4}
    assert rates["argument"] == {
        "total": 99, "invalid": 3, "rate": 3 / 99, "by_reason": {"format": 2, "unknown-subtype": 1},
    }
    assert list(rates["argument"]["by_reason"]) == ["format", "unknown-subtype"]


def test_invalid_rate_all_invalid():
    m = RunMetrics("event", 0, trigger_invalid={"format": 1})
    assert m.to_obj()["invalid_rates"]["trigger"]["rate"] == 1.0


def test_serialize_refuses_a_subtype_holding_a_reserved_token():
    # The schema admits the subtype; the output grammar cannot carry it.
    schema = Schema("s", (EventTypeDef("Alcohol", (ArgumentDef("Status", True, ("a AND b",)),)),))
    ev = Event("Alcohol", TextSpan(0, 6, "drinks"), {"Status": "a AND b"})
    message = "doc: event 0 'Alcohol' [0,6): subtype 'a AND b' contains a reserved token"
    with pytest.raises(SerializeError, match=f"^{re.escape(message)}$"):
        serialize_events([ev], schema, "doc: ")
