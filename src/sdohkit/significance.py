"""Paired bootstrap significance test between two systems on shared gold.

System A is the hypothesized-better system. With delta = F1(A) - F1(B) on
the full document set, each resample redraws documents with replacement
(the same draw for both systems) and recomputes the delta from cached
per-document counts; the reported p-value is
(#{resamples with delta_i > 2 * delta} + 1) / (n_resamples + 1), the
shift-corrected form with add-one smoothing so p is never exactly zero.
When the observed delta is not positive, p is 1.0 by convention.

Resample i draws its documents as numpy would from child i of
``SeedSequence(seed).spawn(n_resamples)``, via ``default_rng(child).integers(0,
n_docs, n_docs)``, so results do not depend on execution order. Those draws
are computed for a chunk of children at once, bit for bit: SeedSequence
mixing, PCG64 seeding and XSL-RR output (O'Neill, 2014) with the 128-bit
state held as two uint64 arrays, and the 32-bit bounded draw of Lemire (2019,
ACM TOMACS). A child whose draw would take Lemire's rejection branch is
redone alone through numpy, so every draw is numpy's.
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


# numpy's SeedSequence constants (pool of four 32-bit words) and PCG64's multiplier.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MASK, _U1, _U32, _U58, _U63, _U64 = (np.uint64(v) for v in (_M32, 1, 32, 58, 63, 64))
_LO0, _LO1 = _MULT_LO & _MASK, _MULT_LO >> _U32
# Resamples drawn at once. The working set is about thirty (_CHUNK,) uint64 arrays and
# two (_CHUNK, 6) totals, 0.5 MB; 4,096 was 9% faster but added its 1 MB to peak RSS.
_CHUNK = 2048


def _hashmix(value, hash_const: int):
    """SeedSequence's hashmix on 32-bit words, as ints or uint64 arrays; returns
    the mixed value and the next hash constant."""
    value = value ^ hash_const
    hash_const = (hash_const * _MULT_A) & _M32
    value = (value * hash_const) & _M32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    result = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return result ^ (result >> 16)


def _pcg64_states(seed: int, children: np.ndarray):
    """PCG64 state and increment, as (hi, lo) uint64 words, of
    ``default_rng(SeedSequence(seed, spawn_key=(i,)))`` for each i < 2**32."""
    words = []
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    words = words or [0]
    words += [0] * (_POOL - len(words))
    # Every entropy word but the spawn key is shared: mix those once, in ints.
    pool, hash_const = [], _INIT_A
    for word in words[:_POOL]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL:]:
        for dst in range(_POOL):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    for dst in range(_POOL):
        value, hash_const = _hashmix(children, hash_const)
        pool[dst] = _mix(pool[dst], value)
    # generate_state(4, uint64): eight words cycled from the pool, low word of each pair first.
    state, hash_const = [], _INIT_B
    for k in range(8):
        value = pool[k % _POOL] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        value ^= value >> 16
        if k % 2:
            state[-1] |= value << _U32
        else:
            state.append(value)
    seed_hi, seed_lo, seq_hi, seq_lo = state
    # pcg64_set_seed: inc = initseq << 1 | 1; state = inc + initstate; step.
    inc_hi = (seq_hi << _U1) | (seq_lo >> _U63)
    inc_lo = (seq_lo << _U1) | _U1
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    hi, lo = _step(hi, lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _step(hi, lo, inc_hi, inc_lo):
    """state * MULT + inc mod 2**128, on (hi, lo) uint64 word arrays."""
    lo0, lo1 = lo & _MASK, lo >> _U32
    p00, p01, p10 = lo0 * _LO0, lo0 * _LO1, lo1 * _LO0
    mid = (p00 >> _U32) + (p01 & _MASK) + (p10 & _MASK)
    mulhi = lo1 * _LO1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = mulhi + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _output(hi, lo):
    """PCG64's XSL-RR output of a state: (hi ^ lo) rotated right by hi's top 6 bits."""
    rot = hi >> _U58
    x = hi ^ lo
    return (x >> rot) | (x << ((_U64 - rot) & _U63))


def _numpy_draws(seed: int, children, high: int, size: int) -> np.ndarray:
    """numpy's own draws for each child, one row each."""
    out = np.empty((len(children), size), dtype=np.uint64)
    for row, i in enumerate(children):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(int(i),)))
        out[row] = rng.integers(0, high, size)
    return out


def _draws(seed: int, start: int, stop: int, high: int, size: int):
    """Yield, for j in range(size), the j-th value of
    ``default_rng(SeedSequence(seed).spawn(stop)[i]).integers(0, high, size)``
    for every i in [start, stop), as one uint64 array per j.

    All children step together. numpy's draw j of a child is the low (even j)
    or high (odd j) half of PCG64 output j // 2, scaled to [0, high) by
    Lemire's multiply-shift. A child whose multiply lands in the rejection
    zone, or whose spawn key needs two words, is redone alone through numpy.
    """
    if not 1 <= high <= 2**32:
        raise ValueError("high must be in [1, 2**32]")
    hi, lo, inc_hi, inc_lo = _pcg64_states(seed, np.arange(start, stop, dtype=np.uint64) & _MASK)
    alone = np.arange(max(2**32 - start, 0), max(stop - start, 0))  # rows of i >= 2**32
    exact = _numpy_draws(seed, start + alone, high, size)
    n, threshold = np.uint64(high), np.uint64(2**32 % high)
    for j in range(size):
        if j % 2 == 0:
            hi, lo = _step(hi, lo, inc_hi, inc_lo)
            word = _output(hi, lo)
            m = (word & _MASK) * n
        else:
            m = (word >> _U32) * n
        if threshold:
            rejected = np.flatnonzero((m & _MASK) < threshold)
            if rejected.size and (rejected := np.setdiff1d(rejected, alone)).size:
                alone = np.concatenate([alone, rejected])
                exact = np.concatenate([exact, _numpy_draws(seed, start + rejected, high, size)])
        draw = m >> _U32
        if alone.size:
            draw[alone] = exact[:, j]
        yield draw


def _resample_deltas(counts: np.ndarray, seed: int, start: int, stop: int) -> np.ndarray:
    """F1(A) - F1(B) of resamples [start, stop) of the (n_docs, 6) count rows."""
    n_docs = len(counts)
    totals = np.zeros((stop - start, counts.shape[1]), dtype=np.int64)
    for draw in _draws(seed, start, stop, n_docs, n_docs):
        totals += counts.take(draw, axis=0)
    return precision_recall_f1(*totals[:, :3].T)[2] - precision_recall_f1(*totals[:, 3:].T)[2]


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
    one key, in the text form ``per_document_counts`` takes. A key that does
    not fit the level, or that occurs in no gold or predicted event at that
    level, raises ``ScoringError``: it would otherwise read as "no
    difference".
    """
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    doc_ids, rows_a = per_document_counts(gold, pred_a, level, key)
    _, rows_b = per_document_counts(gold, pred_b, level, key)
    n_docs = len(doc_ids)
    if n_docs == 0:
        raise ValueError("cannot bootstrap an empty corpus")
    rows = [[a.tp, a.fp, a.fn, b.tp, b.fp, b.fn] for a, b in zip(rows_a, rows_b)]
    counts = np.array(rows, dtype=np.int64)
    if key is not None and not counts.any():
        raise ScoringError(f"key {key!r} occurs in no gold or predicted event at the {level} level")

    f1_a, f1_b = precision_recall_f1(*counts.sum(axis=0).reshape(2, 3).T)[2].tolist()
    delta = f1_a - f1_b
    if delta <= 0:
        return BootstrapResult(delta, 1.0, n_resamples, seed, level, key, f1_a, f1_b)

    exceed = 0
    for start in range(0, n_resamples, _CHUNK):
        deltas = _resample_deltas(counts, seed, start, min(start + _CHUNK, n_resamples))
        exceed += int(np.count_nonzero(deltas > 2 * delta))
    p = (exceed + 1) / (n_resamples + 1)
    return BootstrapResult(delta, p, n_resamples, seed, level, key, f1_a, f1_b)
