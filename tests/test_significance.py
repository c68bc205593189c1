import random

import pytest

from helpers import as_pred_corpus, perturb_events
from sdohkit.corpus import AnnotatedDocument, Corpus
from sdohkit.scoring import ScoringError, score_corpus
from sdohkit.significance import bootstrap_test
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
