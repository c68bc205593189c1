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
from .scoring import ScoringError, per_document_counts, precision_recall_f1


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


def _f1_pair(counts: np.ndarray) -> tuple[float, float]:
    """F1 of system A and of system B from (n_docs, 6) rows [tp, fp, fn] x 2."""
    totals = counts.sum(axis=0)
    return precision_recall_f1(*totals[:3])[2], precision_recall_f1(*totals[3:])[2]


def bootstrap_test(
    gold: Corpus,
    pred_a: Corpus,
    pred_b: Corpus,
    level: str = "trigger",
    key: str | None = None,
    n_resamples: int = 10000,
    seed: int = 0,
) -> BootstrapResult:
    """Paired document-level bootstrap of F1(A) - F1(B).

    ``key=None`` tests the micro average at the given level; otherwise the
    named event type, or at argument level "EventType.Argument", split at
    its last '.' since argument names hold none. An argument-level key
    without a '.', or a key that occurs in no gold or predicted event at
    that level, raises ``ScoringError``: it would otherwise read as "no
    difference".
    """
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    table_key = key
    if key is not None and level == "argument":
        table_key = tuple(key.rsplit(".", 1))
        if len(table_key) != 2:
            raise ScoringError(f"key {key!r} does not fit the argument level, which takes "
                               "EventType.Argument")
    doc_ids, rows_a = per_document_counts(gold, pred_a, level, table_key)
    _, rows_b = per_document_counts(gold, pred_b, level, table_key)
    n_docs = len(doc_ids)
    if n_docs == 0:
        raise ValueError("cannot bootstrap an empty corpus")
    rows = [[a.tp, a.fp, a.fn, b.tp, b.fp, b.fn] for a, b in zip(rows_a, rows_b)]
    counts = np.array(rows, dtype=np.int64)
    if key is not None and not counts.any():
        raise ScoringError(f"key {key!r} occurs in no gold or predicted event at the {level} level")

    f1_a, f1_b = _f1_pair(counts)
    delta = f1_a - f1_b
    if delta <= 0:
        return BootstrapResult(delta, 1.0, n_resamples, seed, level, key, f1_a, f1_b)

    exceed = 0
    for child in np.random.SeedSequence(seed).spawn(n_resamples):
        idx = np.random.default_rng(child).integers(0, n_docs, size=n_docs)
        da, db = _f1_pair(counts[idx])
        if da - db > 2 * delta:
            exceed += 1
    p = (exceed + 1) / (n_resamples + 1)
    return BootstrapResult(delta, p, n_resamples, seed, level, key, f1_a, f1_b)
