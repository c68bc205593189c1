"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import random
import string
import time

import pytest

from helpers import as_pred_corpus, bootstrap_reference, oracle_doc_tp, perturb_events
from sdohkit.cli import main as cli_main
from sdohkit.corpus import (
    AnnotatedDocument,
    Corpus,
    Document,
    Event,
    TextSpan,
    read_corpus_jsonl,
    write_corpus_jsonl,
)
from sdohkit.brat import export_brat_dir, import_brat_dir, parse_ann, write_ann
from sdohkit.linearizer import parse_events, repair_span, serialize_events
from sdohkit.qa import FewShotPool, sample_fewshot
from sdohkit.schema import validate_event
from sdohkit.scoring import (
    Counts,
    compute_iaa,
    f1_drop,
    score_corpus,
    score_document,
)
from sdohkit.significance import bootstrap_test
from sdohkit.synth import generate_fewshot_train, generate_synthetic


def _report(n, text):
    print(f"\n[criterion {n:02d}] PASS - {text}")


def _random_pred(corpus, schema, seed):
    rng = random.Random(seed)
    return as_pred_corpus(
        corpus, {d.doc_id: perturb_events(d, schema, rng) for d in corpus.docs}
    )


def test_criterion_1_scoring_oracle_equivalence(schema):
    """Greedy scorer counts equal exhaustive matching on 1,000 small docs."""
    start = time.perf_counter()
    corpus = generate_synthetic(schema, 1000, 9001)
    pred = _random_pred(corpus, schema, 9002)
    pred_map = pred.doc_map
    divergent = []
    for adoc in corpus.docs:
        gold_events = adoc.events
        pred_events = pred_map[adoc.doc_id].events
        assert len(gold_events) <= 5 and len(pred_events) <= 5
        counts = score_document(gold_events, pred_events)
        want = oracle_doc_tp(gold_events, pred_events)
        arg_by_type = {}
        for key, c in counts["argument"].items():
            etype = key.rpartition(".")[0]
            arg_by_type[etype] = arg_by_type.get(etype, 0) + c.tp
        ok = (
            all(counts["trigger"].get(t, Counts()).tp == v for t, v in want["trigger"].items())
            and all(counts["event"].get(t, Counts()).tp == v for t, v in want["event"].items())
            and all(arg_by_type.get(t, 0) == v for t, v in want["argument"].items())
        )
        if not ok:
            divergent.append(adoc.doc_id)
    elapsed = time.perf_counter() - start
    for doc_id in divergent:
        print(f"  matching divergence on {doc_id}")
    assert len(divergent) / len(corpus.docs) < 0.005
    assert elapsed < 30.0
    _report(1, f"oracle equivalence on 1000 docs, {len(divergent)} divergent, {elapsed:.1f}s")


def test_criterion_2_perfect_prediction_identity(schema):
    corpus = generate_synthetic(schema, 120, 9010)
    report = score_corpus(corpus, corpus, schema)
    for level in ("trigger", "argument", "event"):
        row = report.micro[level]
        assert (row.precision, row.recall, row.f1) == (1.0, 1.0, 1.0)
        for (lv, _key), r in report.per_key.items():
            if lv == level and r.counts.support:
                assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)
    iaa = compute_iaa(corpus, corpus, schema)
    assert iaa.trigger_micro_f1 * 100 == 100.0
    assert iaa.argument_micro_f1 * 100 == 100.0
    assert iaa.combined_micro_f1 * 100 == 100.0
    _report(2, "gold-vs-gold is 1.0 at all levels; identical-annotator IAA is 100.0")


def test_criterion_3_event_bounded_by_trigger(schema):
    pool = generate_synthetic(schema, 1000, 9020)
    rng = random.Random(9021)
    checked = 0
    for adoc in pool.docs:
        gold = Corpus([adoc])
        pred = as_pred_corpus(gold, {adoc.doc_id: perturb_events(adoc, schema, rng)})
        report = score_corpus(gold, pred, schema)
        assert report.micro["event"].f1 <= report.micro["trigger"].f1 + 1e-12
        checked += 1
    assert checked == 1000
    assert f1_drop(80.9, 74.7) == 6.2
    assert f1_drop(79.6, 71.6) == 8.0
    assert f1_drop(79.5, 70.4) == 9.1
    assert f1_drop(82.3, 54.0) == 28.3
    _report(3, "event micro F1 bounded by trigger micro F1 on 1000 corpora; drop fixtures exact")


def test_criterion_4_linearizer_round_trip_and_fuzz(schema):
    base = generate_synthetic(schema, 400, 9030)
    docs = [d for d in base.docs]
    rng = random.Random(9031)
    for _ in range(10_000):
        adoc = rng.choice(docs)
        events = []
        for ev in adoc.events:
            et = schema.event_type(ev.event_type)
            args = {}
            for adef in et.arguments:
                if adef.required or (adef.name in ev.arguments) != (rng.random() < 0.3):
                    args[adef.name] = rng.choice(adef.subtypes)
            events.append(Event(ev.event_type, ev.trigger, args))
        out = serialize_events(events, schema)
        res = parse_events(out, adoc.document.text, schema)
        assert res.invalid_records == []
        assert res.repaired_count == 0
        assert res.events == sorted(
            events, key=lambda e: (e.trigger.start, e.trigger.end, e.event_type)
        )

    doc_text = docs[0].document.text
    alphabet = string.printable
    grammar_bits = [" AND ", " | ", "[", "]", " = ", "NONE", "Alcohol", "Status", "current"]
    for i in range(10_000):
        if i % 2 == 0:
            s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
        else:
            s = "".join(
                rng.choice(grammar_bits) if rng.random() < 0.4 else rng.choice(alphabet)
                for _ in range(rng.randrange(0, 60))
            )
        res = parse_events(s, doc_text, schema)  # must not raise
        for ev in res.events:
            assert doc_text[ev.trigger.start:ev.trigger.end] == ev.trigger.text
            assert validate_event(schema, ev) == []
    _report(4, "10k round trips exact and repair-free; 20k fuzz strings parsed without a crash")


def test_criterion_5_repair_recovery(schema):
    corpus = generate_synthetic(schema, 600, 9040)
    cases = []
    for adoc in corpus.docs:
        for ev in adoc.events:
            cases.append((adoc.document.text, ev.trigger))
    rng = random.Random(9041)
    rng.shuffle(cases)
    cases = cases[:1000]
    assert len(cases) == 1000

    def perturb(text, trigger):
        original = trigger.text
        kind = rng.choice(["casefold", "whitespace", "edit"])
        if kind == "casefold":
            return original.upper() if rng.random() < 0.5 else original.title()
        if kind == "whitespace":
            i = original.index(" ")
            return original[:i] + "  " + original[i + 1:]
        for _ in range(20):
            pos = rng.randrange(len(original) + 1)
            op = rng.choice(["insert", "delete", "substitute"])
            ch = rng.choice(string.ascii_lowercase)
            if op == "insert":
                cand = original[:pos] + ch + original[pos:]
            elif op == "delete" and len(original) > 1 and pos < len(original):
                cand = original[:pos] + original[pos + 1:]
            elif pos < len(original):
                cand = original[:pos] + ch + original[pos + 1:]
            else:
                continue
            # an exact substring needs no repair; grounding finds it directly
            if cand != original and cand not in text:
                return cand
        return original.upper()

    recovered = 0
    for text, trigger in cases:
        claimed = perturb(text, trigger)
        span = repair_span(claimed, text)
        if span is not None:
            assert text[span.start:span.end] == span.text
            if (span.start, span.end) == (trigger.start, trigger.end):
                recovered += 1
    rate = recovered / len(cases)
    assert rate >= 0.99, f"recovered only {recovered}/1000"
    _report(5, f"repair recovered {recovered}/1000 perturbed spans; all returned spans ground exactly")


def test_criterion_6_bootstrap_behavior(schema):
    gold = generate_synthetic(schema, 50, 9050)
    perfect = Corpus([AnnotatedDocument(d.document, list(d.events)) for d in gold.docs])
    wrong = Corpus([AnnotatedDocument(d.document, []) for d in gold.docs])

    same = bootstrap_test(gold, perfect, perfect, n_resamples=1000, seed=7)
    assert same.p_value == 1.0 and same.observed_delta == 0.0

    split = bootstrap_test(gold, perfect, wrong, n_resamples=1000, seed=7)
    assert split.p_value < 0.05
    rerun = bootstrap_test(gold, perfect, wrong, n_resamples=1000, seed=7)
    assert rerun == split

    exercised = 0
    for trial in range(100):
        small = generate_synthetic(schema, 6, 9100 + trial)
        rng = random.Random(trial)
        pa = as_pred_corpus(small, {d.doc_id: perturb_events(d, schema, rng) for d in small.docs})
        pb = as_pred_corpus(small, {d.doc_id: perturb_events(d, schema, rng) for d in small.docs})
        got = bootstrap_test(small, pa, pb, n_resamples=30, seed=trial)
        delta, p = bootstrap_reference(small, pa, pb, "trigger", 30, trial)
        assert got.observed_delta == delta
        assert got.p_value == p
        if delta > 0:
            exercised += 1
    assert exercised >= 10
    _report(6, f"bootstrap conventions, determinism, and cached==from-scratch on 100 instances "
               f"({exercised} with positive delta)")


def test_criterion_7_closed_loop_cli(tmp_path, schema, capsys):
    start = time.perf_counter()
    gold = tmp_path / "gold.jsonl"
    train = tmp_path / "train.jsonl"
    guide = tmp_path / "guide.txt"
    assert cli_main(["synthetic", "--n", "200", "--seed", "31", "--out", str(gold)]) == 0
    assert cli_main(
        ["synthetic", "--n", "40", "--seed", "32", "--fewshot-coverage", "--out", str(train)]
    ) == 0
    assert cli_main(["guide-stub", "--out", str(guide)]) == 0

    for strategy in ("event", "2sqa-base", "2sqa-guide", "2sqa-guide3shot"):
        pred = tmp_path / f"pred-{strategy}.jsonl"
        out = tmp_path / f"report-{strategy}"
        assert cli_main([
            "extract", "--corpus", str(gold), "--strategy", strategy, "--seed", "1",
            "--client", "oracle", "--train", str(train), "--guide-file", str(guide),
            "--out", str(pred),
        ]) == 0
        assert cli_main([
            "score", "--gold", str(gold), "--pred", str(pred), "--out", str(out)
        ]) == 0
        report = json.loads((tmp_path / f"report-{strategy}.json").read_text())
        for level in ("trigger", "argument", "event"):
            micro = report["levels"][level]["micro"]
            assert round(micro["f1"] * 100, 1) == 100.0, (strategy, level)

    nonsense_pred = tmp_path / "pred-nonsense.jsonl"
    assert cli_main([
        "extract", "--corpus", str(gold), "--strategy", "2sqa-base", "--seed", "1",
        "--client", "nonsense", "--out", str(nonsense_pred),
    ]) == 0
    metrics = json.loads((tmp_path / "pred-nonsense.jsonl.metrics.json").read_text())
    assert metrics["invalid_rates"]["trigger"]["invalid"] > 0
    assert metrics["invalid_rates"]["trigger"]["rate"] > 0
    capsys.readouterr()

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(7, f"closed loop: four strategies at micro F1 100.0 and a nonsense run, {elapsed:.1f}s")


def test_criterion_8_fewshot_constraints(schema):
    train = generate_fewshot_train(schema, 9060)
    pool = FewShotPool(train, schema)
    by_text = {d.document.text: d for d in train.docs}

    def n_of(text, event_type):
        return sum(1 for e in by_text[text].events if e.event_type == event_type)

    def has_arg(text, event_type, arg, want):
        return any(
            e.event_type == event_type and (arg in e.arguments) == want
            for e in by_text[text].events
        )

    checked = 0
    for seed in range(100):
        for et in schema.event_types:
            fs = sample_fewshot(pool, et.name, seed)
            counts = [n_of(ex.text, et.name) for ex in fs]
            assert counts[0] == 0 and counts[1] == 1 and counts[2] > 1
            checked += 1
            for adef in et.arguments:
                if adef.required:
                    fs = sample_fewshot(pool, (et.name, adef.name), seed)
                    assert len(fs) == 3
                    assert len({ex.text for ex in fs}) == 3
                    for ex in fs:
                        assert has_arg(ex.text, et.name, adef.name, True)
                        assert ex.answer in adef.subtypes
                else:
                    fs = sample_fewshot(pool, (et.name, adef.name), seed)
                    answers = [ex.answer for ex in fs]
                    assert answers.count("none") == 1
                    for ex in fs:
                        assert has_arg(ex.text, et.name, adef.name, ex.answer != "none")
                checked += 1
    _report(8, f"{checked} few-shot sets over 100 seeds all satisfied their class constraints")


def test_criterion_9_round_trips(tmp_path, schema):
    corpus = generate_synthetic(schema, 1000, 9070)
    assert len(corpus.docs) == 1000

    for adoc in corpus.docs:
        text = adoc.document.text
        events, warnings = parse_ann(write_ann(adoc.events, text), text, schema)
        assert warnings == []
        assert events == adoc.events

    brat_dir = tmp_path / "brat"
    export_brat_dir(corpus, brat_dir)
    back, warnings = import_brat_dir(brat_dir, schema)
    assert warnings == []
    assert {d.doc_id: (d.document, d.events, d.annotator_id) for d in back.docs} == {
        d.doc_id: (d.document, d.events, d.annotator_id) for d in corpus.docs
    }

    jsonl_path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(corpus, jsonl_path)
    again = read_corpus_jsonl(jsonl_path)
    assert [(d.document, d.events, d.annotator_id) for d in again.docs] == [
        (d.document, d.events, d.annotator_id) for d in corpus.docs
    ]
    _report(9, "standoff and JSONL round trips are identities on 1000 documents")


def test_criterion_10_iaa_fixture(schema):
    def doc(doc_id, text, events):
        return AnnotatedDocument(Document(doc_id, doc_id, text), events)

    def ev(event_type, text, phrase, **args):
        i = text.index(phrase)
        return Event(event_type, TextSpan(i, i + len(phrase), phrase), dict(args))

    t1 = "lives with mom. smokes cigarettes daily."
    t2 = "mother works two jobs."
    t3 = "no concerns reported."

    ann_a = Corpus([
        doc("d1", t1, [
            ev("LivingArrangement", t1, "lives with mom", Type="family", Status="current"),
            ev("Tobacco", t1, "smokes cigarettes", Status="current"),
        ]),
        doc("d2", t2, [ev("Employment", t2, "works two jobs", Status="current")]),
        doc("d3", t3, []),
    ])
    ann_b = Corpus([
        doc("d1", t1, [
            ev("LivingArrangement", t1, "lives with mom", Type="family", Status="past"),
            ev("Tobacco", t1, "smokes", Status="current"),
        ]),
        doc("d2", t2, []),
        doc("d3", t3, [ev("Drug", t3, "concerns", Status="past")]),
    ])

    # hand count: triggers tp=2 fp=1 fn=1; arguments tp=2 fp=2 fn=2
    iaa = compute_iaa(ann_a, ann_b, schema)
    assert iaa.report.micro["trigger"].counts == Counts(2, 1, 1)
    assert iaa.report.micro["argument"].counts == Counts(2, 2, 2)
    assert iaa.combined_counts == Counts(4, 3, 3)
    assert iaa.trigger_micro_f1 == pytest.approx(2 / 3)
    assert iaa.argument_micro_f1 == pytest.approx(0.5)
    assert iaa.combined_micro_f1 == pytest.approx(4 / 7)
    line = iaa.summary_line()
    assert line == (
        "IAA micro-averaged F1 (%): triggers 66.7, arguments 50.0, "
        "triggers plus arguments 57.1"
    )
    # swapping annotators preserves all three numbers
    swapped = compute_iaa(ann_b, ann_a, schema)
    assert swapped.summary_line() == line
    _report(10, "IAA three-number summary matches the hand-counted fixture exactly")
