import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import as_pred_corpus, bootstrap_deltas_reference, perturb_events
from helpers import precision_recall_f1_reference
from sdohkit import significance
from sdohkit.corpus import AnnotatedDocument, Corpus
from sdohkit.scoring import ScoringError, per_document_counts, precision_recall_f1, score_corpus
from sdohkit.significance import _CHUNK, _draws, _resample_deltas, bootstrap_test
from sdohkit.synth import generate_synthetic


def _perfect(gold):
    return Corpus([AnnotatedDocument(d.document, list(d.events)) for d in gold.docs])


def _empty(gold):
    return Corpus([AnnotatedDocument(d.document, []) for d in gold.docs])


def test_identical_systems_p_is_one(schema):
    gold = generate_synthetic(schema, 20, 101)
    pred = _perfect(gold)
    r = bootstrap_test(gold, pred, pred, n_resamples=200, seed=3)
    assert r.observed_delta == 0.0
    assert r.p_value == 1.0


def test_clear_separation_significant(schema):
    gold = generate_synthetic(schema, 50, 103)
    r = bootstrap_test(gold, _perfect(gold), _empty(gold), n_resamples=1000, seed=1)
    assert r.observed_delta == pytest.approx(1.0)
    assert r.p_value < 0.05
    assert r.p_value == pytest.approx(1 / 1001)


def test_negative_delta_p_is_one(schema):
    gold = generate_synthetic(schema, 20, 107)
    r = bootstrap_test(gold, _empty(gold), _perfect(gold), n_resamples=100, seed=1)
    assert r.observed_delta < 0
    assert r.p_value == 1.0


def test_determinism(schema):
    gold = generate_synthetic(schema, 30, 109)
    rng = random.Random(5)
    pred_a = as_pred_corpus(gold, {d.doc_id: perturb_events(d, schema, rng) for d in gold.docs})
    pred_b = _empty(gold)
    r1 = bootstrap_test(gold, pred_a, pred_b, n_resamples=500, seed=11)
    r2 = bootstrap_test(gold, pred_a, pred_b, n_resamples=500, seed=11)
    assert r1 == r2
    r3 = bootstrap_test(gold, pred_a, pred_b, n_resamples=500, seed=12)
    assert r1.seed != r3.seed


def test_p_always_positive(schema):
    gold = generate_synthetic(schema, 10, 113)
    r = bootstrap_test(gold, _perfect(gold), _empty(gold), n_resamples=1, seed=0)
    assert r.p_value > 0


def test_n_resamples_validated(schema):
    gold = generate_synthetic(schema, 5, 127)
    with pytest.raises(ValueError):
        bootstrap_test(gold, _perfect(gold), _perfect(gold), n_resamples=0, seed=0)


def test_unknown_docs_rejected(schema):
    gold = generate_synthetic(schema, 5, 131)
    other = generate_synthetic(schema, 5, 132)
    with pytest.raises(ValueError, match="unknown"):
        bootstrap_test(gold, other, _perfect(gold), n_resamples=10, seed=0)


def test_p_monotone_in_separation(schema):
    """More corrupted documents means a larger gap and a p-value no larger."""
    gold = generate_synthetic(schema, 50, 137)
    doc_ids = sorted(gold.doc_ids())
    pred_a = _perfect(gold)

    def corrupted(k):
        bad = set(doc_ids[:k])
        return Corpus(
            [
                AnnotatedDocument(d.document, [] if d.doc_id in bad else list(d.events))
                for d in gold.docs
            ]
        )

    ps = [
        bootstrap_test(gold, pred_a, corrupted(k), n_resamples=2000, seed=9).p_value
        for k in (5, 20, 45)
    ]
    assert ps[0] >= ps[1] >= ps[2]


@pytest.mark.parametrize("level", ["trigger", "argument", "event"])
def test_cached_counts_equals_rescoring_from_scratch(schema, level):
    """Resampling cached per-document counts must reproduce a reference that
    rebuilds each resampled corpus and re-scores it from scratch."""
    from helpers import bootstrap_reference

    matched_positive = 0
    for trial in range(25):
        gold = generate_synthetic(schema, 8, 1000 + trial)
        rng = random.Random(trial)
        pred_a = as_pred_corpus(
            gold, {d.doc_id: perturb_events(d, schema, rng) for d in gold.docs}
        )
        pred_b = as_pred_corpus(
            gold, {d.doc_id: perturb_events(d, schema, rng) for d in gold.docs}
        )
        got = bootstrap_test(gold, pred_a, pred_b, level, n_resamples=40, seed=trial)
        delta, p = bootstrap_reference(gold, pred_a, pred_b, level, 40, trial)
        assert got.observed_delta == pytest.approx(delta, abs=0)
        assert got.p_value == p
        if delta > 0:
            matched_positive += 1
    assert matched_positive > 0  # the comparison must exercise real resampling


@pytest.mark.parametrize(
    "level, key, message",
    [
        ("trigger", "Alcoholl", "occurs in no gold or predicted event at the trigger level"),
        ("argument", "Alcohol.Statuss", "occurs in no gold or predicted event"),
        # outside the argument level a dotted key is one event type name
        ("trigger", "Alcohol.Status", "occurs in no gold or predicted event at the trigger level"),
        ("event", "Alcohol.Status", "occurs in no gold or predicted event at the event level"),
        ("argument", "Alcohol", "does not fit the argument level"),
    ],
)
def test_key_that_names_nothing_at_its_level_is_an_error(schema, level, key, message):
    gold = generate_synthetic(schema, 30, 109)
    with pytest.raises(ScoringError, match=message):
        bootstrap_test(gold, _perfect(gold), _empty(gold), level, key, n_resamples=10, seed=0)


def test_argument_key_text_is_the_pair_split_at_its_last_dot(schema):
    gold = generate_synthetic(schema, 30, 109)
    rng = random.Random(7)
    pred = as_pred_corpus(gold, {d.doc_id: perturb_events(d, schema, rng) for d in gold.docs})
    r = bootstrap_test(gold, pred, _empty(gold), "argument", "LivingArrangement.Status", 50, 3)
    report = score_corpus(gold, pred)
    assert r.key == "LivingArrangement.Status"
    assert r.f1_a == report.per_key[("argument", "LivingArrangement.Status")].f1
    assert r.f1_a != report.micro["argument"].f1


def test_key_seen_only_in_predictions_is_tested(schema):
    gold = generate_synthetic(schema, 30, 109)
    r = bootstrap_test(_empty(gold), _perfect(gold), _empty(gold), "trigger", "Alcohol",
                       n_resamples=10, seed=0)
    assert r.key == "Alcohol" and r.f1_a == r.f1_b == 0.0


@pytest.mark.parametrize("level, key", [("trigger", "Alcohol"), ("argument", "Alcohol.Status")])
def test_valid_key_with_equal_counts_gives_p_one(schema, level, key):
    gold = generate_synthetic(schema, 30, 109)
    r = bootstrap_test(gold, _perfect(gold), _perfect(gold), level, key, n_resamples=10, seed=0)
    assert r.p_value == 1.0


@pytest.mark.parametrize("seed", [-1, -2**70, 1.0, "1", True, False, None, np.int64(3)])
@pytest.mark.parametrize("a_better", [True, False])
def test_seed_must_be_a_non_negative_int_whatever_the_delta(schema, seed, a_better):
    gold = generate_synthetic(schema, 10, 113)
    pred_a, pred_b = (_perfect(gold), _empty(gold)) if a_better else (_empty(gold), _perfect(gold))
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        bootstrap_test(gold, pred_a, pred_b, n_resamples=10, seed=seed)


def _numpy_children(seed, start, stop, high, size):
    """numpy's own draws: spawn, one Generator per child, integers(0, high, size)."""
    children = np.random.SeedSequence(seed).spawn(stop)[start:]
    return np.array([np.random.default_rng(c).integers(0, high, size) for c in children])


def _chunk_draws(seed, start, stop, high, size):
    return np.stack(list(_draws(seed, start, stop, high, size)), axis=1).astype(np.int64)


@pytest.mark.parametrize("seed", [0, 1, 7, 31, 123456789, 2**32 - 1, 2**32, 2**40 + 5,
                                  2**64 + 1, 2**127 + 9, 2**128, 2**130 + 3])
@pytest.mark.parametrize("size", [1, 2, 3, 245, 894])
def test_draws_equal_numpy_spawned_generators(seed, size):
    """Every draw is numpy's. pyproject.toml does not pin numpy, so a numpy
    that changes its SeedSequence or PCG64 streams fails here."""
    for high in sorted({1, 2, 3, size, 2**31 + 11}):
        got = _chunk_draws(seed, 0, 40, high, size)
        assert np.array_equal(got, _numpy_children(seed, 0, 40, high, size))


def test_draws_start_anywhere_and_span_the_chunk_boundary():
    start, stop = _CHUNK - 5, _CHUNK + 3
    assert np.array_equal(_chunk_draws(9, start, stop, 245, 245),
                          _numpy_children(9, start, stop, 245, 245))


def test_draws_with_a_two_word_spawn_key_are_numpy_draws():
    start = 2**32 - 2
    got = _chunk_draws(3, start, start + 4, 245, 10)
    want = [np.random.default_rng(np.random.SeedSequence(3, spawn_key=(i,))).integers(0, 245, 10)
            for i in range(start, start + 4)]
    assert np.array_equal(got, np.array(want))


@pytest.mark.parametrize("high", [3 * 2**30 + 1, 3 * 2**30 + 12345])
def test_draws_stay_exact_when_lemire_rejects(monkeypatch, high):
    """Near 3 * 2**30 about a quarter of all draws take Lemire's rejection
    branch; those children are redone alone and still match numpy."""
    redone = []

    def counting(seed, children, high, size):
        redone.extend(children)
        return numpy_draws(seed, children, high, size)

    numpy_draws = significance._numpy_draws
    monkeypatch.setattr(significance, "_numpy_draws", counting)
    for seed in (0, 5, 2**64 + 1):
        assert np.array_equal(_chunk_draws(seed, 0, 60, high, 9),
                              _numpy_children(seed, 0, 60, high, 9))
    assert 0 < len(redone) < 3 * 60


def test_draws_refuse_a_bound_past_32_bits():
    with pytest.raises(ValueError, match="high"):
        next(_draws(0, 0, 1, 2**32 + 1, 1))


def test_p_value_over_a_partial_last_chunk_matches_the_per_child_loop(schema):
    gold = generate_synthetic(schema, 6, 101)
    rng = random.Random(3)
    pred_a = as_pred_corpus(gold, {d.doc_id: perturb_events(d, schema, rng) for d in gold.docs})
    n_resamples = _CHUNK + 37
    r = bootstrap_test(gold, pred_a, _empty(gold), n_resamples=n_resamples, seed=17)
    assert r.observed_delta > 0
    _, rows_a = per_document_counts(gold, pred_a, "trigger")
    _, rows_b = per_document_counts(gold, _empty(gold), "trigger")
    counts = np.array([[a.tp, a.fp, a.fn, b.tp, b.fp, b.fn] for a, b in zip(rows_a, rows_b)])
    deltas = bootstrap_deltas_reference(counts, 17, n_resamples)
    assert r.p_value == (np.count_nonzero(deltas > 2 * r.observed_delta) + 1) / (n_resamples + 1)


_count_rows = st.lists(
    st.one_of(st.just([0] * 6), st.lists(st.integers(0, 6), min_size=6, max_size=6)),
    min_size=1, max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(rows=_count_rows, seed=st.one_of(st.integers(0, 2**16), st.integers(0, 2**140)),
       n_resamples=st.integers(1, 40))
def test_per_resample_deltas_are_the_per_child_loop_bit_for_bit(rows, seed, n_resamples):
    counts = np.array(rows, dtype=np.int64)
    got = _resample_deltas(counts, seed, 0, n_resamples)
    want = bootstrap_deltas_reference(counts, seed, n_resamples)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)),
                min_size=1, max_size=30))
def test_vector_f1_is_precision_recall_f1_bit_for_bit(triples):
    for t in triples:
        got, want = precision_recall_f1(*t), precision_recall_f1_reference(*t)
        assert [type(v) for v in got] == [float] * 3
        assert [v.hex() for v in got] == [v.hex() for v in want]
    columns = np.array(triples, dtype=np.int64).T
    got = precision_recall_f1(*columns)
    want = np.array([precision_recall_f1_reference(*t) for t in triples], dtype=np.float64).T
    for g, w in zip(got, want):
        assert g.dtype == np.float64 and g.view(np.uint64).tolist() == w.view(np.uint64).tolist()
