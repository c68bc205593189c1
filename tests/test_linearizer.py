import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdohkit.corpus import Event, TextSpan
from sdohkit.linearizer import (
    SerializeError,
    parse_events,
    repair_span,
    serialize_events,
)
from sdohkit.qa import RunMetrics
from sdohkit.schema import load_schema
from sdohkit.synth import generate_synthetic

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
