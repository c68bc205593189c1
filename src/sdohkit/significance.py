"""Paired bootstrap significance test between two systems on shared gold.

System A is the hypothesized-better system. With delta = F1(A) - F1(B) on
the full document set, each resample redraws documents with replacement
(the same draw for both systems) and recomputes the delta from cached
per-document counts; the reported p-value is
(#{resamples with delta_i > 2 * delta} + 1) / (n_resamples + 1), the
shift-corrected form with add-one smoothing so p is never exactly zero.
When the observed delta is not positive, p is 1.0 by convention.

Resampling draws are derived from (seed, resample index) via independent
seed-sequence children, so results do not depend on execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .scoring import _key_str, per_document_counts, precision_recall_f1


@dataclass(frozen=True)
class BootstrapResult:
    observed_delta: float
    p_value: float
    n_resamples: int
    seed: int
    level: str
    key: str | None
    f1_a: float
    f1_b: float

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05

    def to_obj(self) -> dict:
        return {
            "metric": {"level": self.level, "key": self.key},
            "f1_a": self.f1_a,
            "f1_b": self.f1_b,
            "observed_delta": self.observed_delta,
            "p_value": self.p_value,
            "n_resamples": self.n_resamples,
            "seed": self.seed,
            "significant_at_0.05": self.significant,
        }


def bootstrap_test(
    gold: Corpus,
    pred_a: Corpus,
    pred_b: Corpus,
    level: str = "trigger",
    key: str | tuple[str, str] | None = None,
    n_resamples: int = 10000,
    seed: int = 0,
) -> BootstrapResult:
    """Paired document-level bootstrap of F1(A) - F1(B).

    ``key=None`` tests the micro average at the given level; otherwise the
    named event type (or (event type, argument) pair at argument level).
    """
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    doc_ids, rows_a = per_document_counts(gold, pred_a, level, key)
    _, rows_b = per_document_counts(gold, pred_b, level, key)
    counts_a = np.array([[c.tp, c.fp, c.fn] for c in rows_a], dtype=np.int64)
    counts_b = np.array([[c.tp, c.fp, c.fn] for c in rows_b], dtype=np.int64)
    n_docs = len(doc_ids)
    if n_docs == 0:
        raise ValueError("cannot bootstrap an empty corpus")

    f1_a = precision_recall_f1(*counts_a.sum(axis=0))[2]
    f1_b = precision_recall_f1(*counts_b.sum(axis=0))[2]
    delta = f1_a - f1_b

    key_str = _key_str(key)
    if delta <= 0:
        return BootstrapResult(delta, 1.0, n_resamples, seed, level, key_str, f1_a, f1_b)

    children = np.random.SeedSequence(seed).spawn(n_resamples)
    exceed = 0
    for child in children:
        rng = np.random.default_rng(child)
        idx = rng.integers(0, n_docs, size=n_docs)
        da = precision_recall_f1(*counts_a[idx].sum(axis=0))[2]
        db = precision_recall_f1(*counts_b[idx].sum(axis=0))[2]
        if da - db > 2 * delta:
            exceed += 1
    p = (exceed + 1) / (n_resamples + 1)
    return BootstrapResult(delta, p, n_resamples, seed, level, key_str, f1_a, f1_b)
