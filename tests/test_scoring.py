import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import as_pred_corpus, oracle_doc_tp, perturb_events, score_document_reference
from sdohkit.corpus import AnnotatedDocument, Corpus, Document, Event, TextSpan
from sdohkit.scoring import (
    Counts,
    ScoringError,
    aggregate,
    compute_iaa,
    corpus_doc_counts,
    f1_drop,
    match_triggers,
    per_document_counts,
    prf,
    render_table,
    score_corpus,
    score_document,
)
from sdohkit.synth import generate_synthetic


def _ev(event_type, start, end, **args):
    return Event(event_type, TextSpan(start, end, "x" * (end - start)), dict(args))


def _corpus_of(events_by_doc):
    docs = []
    for doc_id, events in events_by_doc.items():
        length = max((e.trigger.end for e in events), default=1)
        docs.append(AnnotatedDocument(Document(doc_id, doc_id, "x" * length), events))
    return Corpus(docs)


# --- prf ---------------------------------------------------------------------

def test_prf_perfect():
    assert prf(Counts(1, 0, 0)) == (1.0, 1.0, 1.0)


def test_prf_zero_convention():
    assert prf(Counts(0, 3, 2)) == (0.0, 0.0, 0.0)
    assert prf(Counts(0, 0, 0)) == (0.0, 0.0, 0.0)


def test_prf_hand_arithmetic():
    p, r, f1 = prf(Counts(2, 1, 3))
    assert p == pytest.approx(2 / 3)
    assert r == pytest.approx(0.4)
    assert f1 == pytest.approx(0.5)


# --- matching ------------------------------------------------------------------

def test_match_overlapping_same_type():
    gold = [_ev("LivingArrangement", 10, 15)]
    pred = [_ev("LivingArrangement", 12, 20)]
    matches = match_triggers(gold, pred)
    assert len(matches) == 1
    assert matches[0].overlap_len == 3


def test_no_match_type_mismatch():
    gold = [_ev("LivingArrangement", 10, 15)]
    pred = [_ev("Employment", 10, 15)]
    assert match_triggers(gold, pred) == []


def test_touching_spans_do_not_overlap():
    gold = [_ev("Alcohol", 0, 5)]
    pred = [_ev("Alcohol", 5, 9)]
    assert match_triggers(gold, pred) == []


def test_greedy_prefers_larger_overlap():
    gold = [_ev("Alcohol", 10, 20)]
    pred = [_ev("Alcohol", 12, 17), _ev("Alcohol", 18, 22)]  # overlaps 5 and 2
    matches = match_triggers(gold, pred)
    assert len(matches) == 1
    assert matches[0].pred_index == 0
    counts = score_document(gold, pred)["trigger"]["Alcohol"]
    assert (counts.tp, counts.fp, counts.fn) == (1, 1, 0)


def test_matching_is_one_to_one():
    gold = [_ev("Alcohol", 0, 10), _ev("Alcohol", 5, 15)]
    pred = [_ev("Alcohol", 0, 15)]
    assert len(match_triggers(gold, pred)) == 1


# --- corpus-level scoring ---------------------------------------------------------

def _trigger_rows(report):
    return [row.counts for (level, _), row in report.per_key.items() if level == "trigger"]


def test_score_triggers_identity(schema):
    corpus = generate_synthetic(schema, 30, 1)
    report = score_corpus(corpus, corpus)
    assert all(c.fp == 0 and c.fn == 0 for c in _trigger_rows(report))
    n_events = sum(len(d.events) for d in corpus.docs)
    assert report.micro["trigger"].counts == Counts(n_events, 0, 0)


def test_score_triggers_empty_pred(schema):
    corpus = generate_synthetic(schema, 20, 2)
    pred = as_pred_corpus(corpus, {})
    report = score_corpus(corpus, pred)
    assert all(c.tp == 0 for c in _trigger_rows(report))
    n_events = sum(len(d.events) for d in corpus.docs)
    assert report.micro["trigger"].counts == Counts(0, 0, n_events)


def test_pred_may_omit_documents(schema):
    corpus = generate_synthetic(schema, 10, 3)
    pred = Corpus(corpus.docs[:5])
    total = score_corpus(corpus, pred).micro["trigger"].counts
    assert total.tp + total.fn == sum(len(d.events) for d in corpus.docs)


def test_unknown_pred_document_is_error(schema):
    corpus = generate_synthetic(schema, 3, 4)
    stranger = Corpus([AnnotatedDocument(Document("ghost", "p", "hello"), [])])
    with pytest.raises(ScoringError, match="ghost"):
        corpus_doc_counts(corpus, stranger)


def test_argument_scoring_rules():
    gold = [_ev("LivingArrangement", 0, 5, Status="current", Type="family")]
    pred_match = [_ev("LivingArrangement", 0, 5, Status="current", Type="family")]
    pred_wrong = [_ev("LivingArrangement", 0, 5, Status="past", Type="family")]

    counts = score_document(gold, pred_match)["argument"]
    assert counts[("LivingArrangement", "Status")] == Counts(1, 0, 0)

    counts = score_document(gold, pred_wrong)["argument"]
    assert counts[("LivingArrangement", "Status")] == Counts(0, 1, 1)
    assert counts[("LivingArrangement", "Type")] == Counts(1, 0, 0)


def test_arguments_on_unmatched_trigger_are_fp():
    pred = [_ev("Employment", 0, 5, Status="employed", Shift="night")]
    counts = score_document([], pred)["argument"]
    assert counts[("Employment", "Status")] == Counts(0, 1, 0)
    assert counts[("Employment", "Shift")] == Counts(0, 1, 0)


def test_arguments_of_unmatched_gold_are_fn():
    gold = [_ev("Employment", 0, 5, Status="employed", Shift="night")]
    counts = score_document(gold, [])["argument"]
    assert sum(c.fn for c in counts.values()) == 2


def test_event_level_requires_exact_argument_map():
    gold = [_ev("LivingArrangement", 0, 5, Status="current", Residence="home")]
    pred = [_ev("LivingArrangement", 0, 5, Status="current")]  # optional missing
    counts = score_document(gold, pred)["event"]
    assert counts["LivingArrangement"] == Counts(0, 1, 1)
    identical = score_document(gold, [gold[0]])["event"]
    assert identical["LivingArrangement"] == Counts(1, 0, 0)


# --- aggregation -------------------------------------------------------------------

def test_aggregate_single_key_micro():
    report = aggregate({"trigger": {"Alcohol": Counts(3, 1, 1)}})
    assert report.micro["trigger"].counts == Counts(3, 1, 1)
    assert report.per_key[("trigger", "Alcohol")].f1 == report.micro["trigger"].f1


def test_aggregate_substance_grouping(schema):
    table = {"Alcohol": Counts(1, 0, 0), "Drug": Counts(1, 0, 0), "Tobacco": Counts(0, 1, 1)}
    report = aggregate({"trigger": table}, schema)
    assert report.groups[("trigger", "SubstanceUse")].counts == Counts(2, 1, 1)


def test_aggregate_macro_mean():
    table = {"A": Counts(1, 0, 0), "B": Counts(0, 1, 1)}
    report = aggregate({"trigger": table})
    assert report.macro["trigger"][2] == pytest.approx(0.5)


def test_macro_skips_unsupported_keys():
    table = {"A": Counts(1, 0, 0), "B": Counts(0, 0, 0)}
    report = aggregate({"trigger": table})
    assert report.macro["trigger"] == (1.0, 1.0, 1.0)


def test_report_serialization_deterministic(schema):
    corpus = generate_synthetic(schema, 25, 6)
    rng = random.Random(1)
    pred = as_pred_corpus(corpus, {d.doc_id: perturb_events(d, schema, rng) for d in corpus.docs})
    a = json.dumps(score_corpus(corpus, pred, schema).to_obj())
    b = json.dumps(score_corpus(corpus, pred, schema).to_obj())
    assert a == b


def test_render_table_format(schema):
    corpus = generate_synthetic(schema, 10, 7)
    table = render_table(score_corpus(corpus, corpus, schema))
    lines = table.splitlines()
    assert lines[0].split()[:2] == ["level", "key"]
    assert any("SubstanceUse" in line for line in lines)
    assert any("micro" in line and "100.0" in line for line in lines)
    assert table.endswith("\n")


# --- invariants ---------------------------------------------------------------------

def _random_instances(schema, n, seed):
    corpus = generate_synthetic(schema, n, seed)
    rng = random.Random(seed + 1)
    pred = as_pred_corpus(corpus, {d.doc_id: perturb_events(d, schema, rng) for d in corpus.docs})
    return corpus, pred


def test_event_f1_bounded_by_trigger_f1_per_key(schema):
    corpus, pred = _random_instances(schema, 120, 31)
    report = score_corpus(corpus, pred, schema)
    assert report.micro["event"].f1 <= report.micro["trigger"].f1 + 1e-12
    for (level, key), row in report.per_key.items():
        if level == "event" and ("trigger", key) in report.per_key:
            assert row.f1 <= report.per_key[("trigger", key)].f1 + 1e-12


def test_iaa_symmetry(schema):
    corpus, pred = _random_instances(schema, 60, 37)
    ab = score_corpus(corpus, pred, schema)
    ba = score_corpus(pred, corpus, schema)
    for lv in ("trigger", "argument", "event"):
        assert ab.micro[lv].counts.tp == ba.micro[lv].counts.tp
        assert ab.micro[lv].counts.fp == ba.micro[lv].counts.fn
        assert ab.micro[lv].counts.fn == ba.micro[lv].counts.fp
        assert ab.micro[lv].f1 == pytest.approx(ba.micro[lv].f1)


def test_removing_fp_never_decreases_precision(schema):
    corpus, pred = _random_instances(schema, 40, 43)
    per_doc = corpus_doc_counts(corpus, pred)
    gold_map = corpus.doc_map
    rng = random.Random(7)
    for adoc in pred.docs:
        if not adoc.events:
            continue
        gold_events = gold_map[adoc.doc_id].events
        matches = match_triggers(gold_events, adoc.events)
        matched_pred = {m.pred_index for m in matches}
        unmatched = [i for i in range(len(adoc.events)) if i not in matched_pred]
        if not unmatched:
            continue
        drop = rng.choice(unmatched)
        before = per_doc[adoc.doc_id]["trigger"]
        after = score_document(
            gold_events, [e for i, e in enumerate(adoc.events) if i != drop]
        )["trigger"]
        p_before = prf(sum(before.values(), Counts()))[0]
        p_after = prf(sum(after.values(), Counts()))[0]
        assert p_after >= p_before - 1e-12


def test_adding_matching_pred_never_decreases_recall(schema):
    corpus, pred = _random_instances(schema, 40, 47)
    gold_map = corpus.doc_map
    for adoc in pred.docs:
        gold_events = gold_map[adoc.doc_id].events
        matches = match_triggers(gold_events, adoc.events)
        matched_gold = {m.gold_index for m in matches}
        unmatched = [i for i in range(len(gold_events)) if i not in matched_gold]
        if not unmatched:
            continue
        g = gold_events[unmatched[0]]
        key = (g.event_type, g.trigger.start, g.trigger.end)
        if any((e.event_type, e.trigger.start, e.trigger.end) == key for e in adoc.events):
            continue
        before = score_document(gold_events, adoc.events)["trigger"]
        after = score_document(gold_events, adoc.events + [g])["trigger"]
        r_before = prf(sum(before.values(), Counts()))[1]
        r_after = prf(sum(after.values(), Counts()))[1]
        assert r_after >= r_before - 1e-12


def test_greedy_matches_oracle_on_small_docs(schema):
    corpus, pred = _random_instances(schema, 150, 53)
    pred_map = pred.doc_map
    divergent = 0
    for adoc in corpus.docs:
        pred_events = pred_map[adoc.doc_id].events
        counts = score_document(adoc.events, pred_events)
        want = oracle_doc_tp(adoc.events, pred_events)
        got_arg_by_type = {}
        for (etype, _), c in counts["argument"].items():
            got_arg_by_type[etype] = got_arg_by_type.get(etype, 0) + c.tp
        same = all(
            counts["trigger"].get(t, Counts()).tp == want["trigger"][t] for t in want["trigger"]
        ) and all(
            counts["event"].get(t, Counts()).tp == want["event"][t] for t in want["event"]
        ) and all(got_arg_by_type.get(t, 0) == want["argument"][t] for t in want["argument"])
        if not same:
            divergent += 1
    assert divergent / len(corpus.docs) < 0.005


# Few types, short overlapping spans and a small argument vocabulary, so that
# matches, near misses, repeated keys and equal argument maps all occur.
_events = st.lists(
    st.builds(
        lambda t, start, length, args: _ev(t, start, start + length, **args),
        st.sampled_from(["A", "B", "C"]),
        st.integers(0, 12),
        st.integers(1, 5),
        st.dictionaries(st.sampled_from(["x", "y", "z"]), st.sampled_from(["p", "q"]), max_size=3),
    ),
    max_size=7,
)


@settings(max_examples=300, deadline=None)
@given(_events, _events)
def test_score_document_matches_reference(gold, pred):
    got = score_document(gold, pred)
    want = score_document_reference(gold, pred)
    assert list(got) == list(want)
    for level in want:
        # item order too: aggregate sums macro averages in first-seen key order
        assert list(got[level].items()) == list(want[level].items())


# --- per-document counts -----------------------------------------------------------

def test_per_document_counts_micro_sums(schema):
    corpus, pred = _random_instances(schema, 30, 59)
    doc_ids, rows = per_document_counts(corpus, pred, "trigger")
    assert doc_ids == sorted(corpus.doc_ids())
    total = sum(rows, Counts())
    assert total == score_corpus(corpus, pred).micro["trigger"].counts


def test_per_document_counts_single_key(schema):
    corpus, pred = _random_instances(schema, 30, 61)
    _, rows = per_document_counts(corpus, pred, "trigger", "Employment")
    total = sum(rows, Counts())
    row = score_corpus(corpus, pred).per_key.get(("trigger", "Employment"))
    assert total == (row.counts if row else Counts())


# --- IAA ----------------------------------------------------------------------------

def test_iaa_identical_is_perfect(schema):
    corpus = generate_synthetic(schema, 20, 67)
    iaa = compute_iaa(corpus, corpus, schema)
    assert iaa.trigger_micro_f1 == 1.0
    assert iaa.argument_micro_f1 == 1.0
    assert iaa.combined_micro_f1 == 1.0


def test_iaa_disjoint_is_zero(schema):
    corpus = generate_synthetic(schema, 20, 71)
    other = as_pred_corpus(corpus, {})
    iaa = compute_iaa(corpus, other, schema)
    assert iaa.trigger_micro_f1 == 0.0
    assert iaa.combined_micro_f1 == 0.0


def test_iaa_doc_set_mismatch(schema):
    corpus = generate_synthetic(schema, 5, 73)
    with pytest.raises(ScoringError):
        compute_iaa(corpus, Corpus(corpus.docs[:3]))


def test_iaa_summary_format(schema):
    corpus = generate_synthetic(schema, 5, 79)
    line = compute_iaa(corpus, corpus, schema).summary_line()
    assert line == (
        "IAA micro-averaged F1 (%): triggers 100.0, arguments 100.0, "
        "triggers plus arguments 100.0"
    )


# --- drops ---------------------------------------------------------------------------

def test_f1_drop_fixtures():
    assert f1_drop(80.9, 74.7) == 6.2
    assert f1_drop(79.6, 71.6) == 8.0
    assert f1_drop(79.5, 70.4) == 9.1
    assert f1_drop(82.3, 54.0) == 28.3
