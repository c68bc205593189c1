"""The benchmark's traced run wraps sdohkit functions at their module
attributes (``benchmarks/layers.py``). A refactor that drops or renames a
wrapped name, or calls it other than through its module global, breaks the
per-layer metrics; these tests catch that in the unit suite."""

from pathlib import Path

from sdohkit import scoring, significance
from sdohkit.corpus import AnnotatedDocument, Corpus
from sdohkit.synth import generate_synthetic

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_layers_install_wraps_every_name_and_uninstall_restores_it(monkeypatch, schema):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import layers
    import tracing

    tracer = tracing.Tracer()
    try:
        layers.install(tracer)
        wrapped = list(tracer._undo)
        assert len(wrapped) >= 21
        for owner, attr, original in wrapped:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
        gold = generate_synthetic(schema, 4, 5)
        pred = Corpus([AnnotatedDocument(d.document, d.events[:-1]) for d in gold.docs])
        scoring.score_corpus(gold, pred)
        significance.bootstrap_test(gold, gold, pred, "argument", n_resamples=5)
    finally:
        tracer.uninstall()
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
    names = {span[3] for span in tracer.spans}
    assert {"scoring.score_corpus", "scoring.score_document", "scoring.per_document_counts",
            "significance.bootstrap"} <= names
