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
are computed for a chunk of children at once, bit for bit: numpy mixes the
seed into SeedSequence's pool, and the spawn word, generate_state, PCG64
seeding and XSL-RR output (O'Neill, 2014; the 128-bit state as two uint64
arrays) and Lemire's (2019, ACM TOMACS) 32-bit bounded draw run as arrays.
Every step works in place in buffers allocated once per chunk, and both
32-bit halves of an output are scaled from one uint32 view of it, each into
its own contiguous row of indices. A child whose draw would take Lemire's
rejection branch is redone alone through numpy, so every draw is numpy's.

Each document's six counts are packed into one uint64 word, or a few for
large counts, with each field wide enough for the sum over a whole resample.
A draw then gathers and adds one word per resample, and the totals are
unpacked once per chunk.
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
_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
# As 0-d uint64 arrays: a numpy scalar argument is converted again on every ufunc call,
# which cost about 7% of a step.
_MULT_HI, _MULT_LO, _LO0, _LO1, _MASK, _U1, _U32, _U58, _U63, _U64 = (
    np.array(v, dtype=np.uint64)
    for v in (_MULT >> 64, _MULT & 2**64 - 1, _MULT & _M32, _MULT >> 32 & _M32, _M32, 1, 32, 58, 63, 64)
)
# Resamples drawn at once. The draws reuse about fifteen (_CHUNK,) uint64 buffers for the
# whole chunk, 0.5 MB; one call's tracemalloc peak, while a chunk is seeded, is 0.8 MB.
# A level took about 15% longer at 2,048, and 8,192 would pass 1 MB.
_CHUNK = 4096


def _hashmix(value, hash_const: int, mult: int):
    """SeedSequence's hashmix (_MULT_A) or generate_state step (_MULT_B) on 32-bit
    words, as ints or uint64 arrays; returns the mixed value and the next hash constant."""
    value = value ^ hash_const
    hash_const = (hash_const * mult) & _M32
    value = (value * hash_const) & _M32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    result = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return result ^ (result >> 16)


def _pcg64_states(seed: int, children: np.ndarray):
    """PCG64 state and increment, as (hi, lo) uint64 words, of
    ``default_rng(SeedSequence(seed, spawn_key=(i,)))`` for each i < 2**32."""
    # Every child shares the seed's pool: 4 hashmix calls per 32-bit word, padded to _POOL.
    pool = np.random.SeedSequence(seed).pool.tolist()
    hash_const = _INIT_A * pow(_MULT_A, 4 * max(_POOL, -(-seed.bit_length() // 32)), 2**32) & _M32
    for dst in range(_POOL):
        value, hash_const = _hashmix(children, hash_const, _MULT_A)
        pool[dst] = _mix(pool[dst], value)
    # generate_state(4, uint64): eight words cycled from the pool, low word of each pair first.
    state, hash_const = [], _INIT_B
    for k in range(8):
        value, hash_const = _hashmix(pool[k % _POOL], hash_const, _MULT_B)
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
    _step(hi, lo, inc_hi, inc_lo, *_scratch(len(lo)))
    return hi, lo, inc_hi, inc_lo


def _scratch(n: int):
    """The four uint64 arrays and the bool array _step works in."""
    return (*(np.empty(n, dtype=np.uint64) for _ in range(4)), np.empty(n, dtype=bool))


def _step(hi, lo, inc_hi, inc_lo, a0, a1, t, u, carry):
    """state = state * MULT + inc mod 2**128, in place on the (hi, lo) uint64 word
    arrays; the rest are scratch arrays of the same length."""
    # mulhi(lo, _MULT_LO) from three partial sums, none of which passes 2**64:
    # t = a1*b0 + (a0*b0 >> 32), u = (t & M32) + a0*b1, mulhi = a1*b1 + (t >> 32) + (u >> 32).
    np.bitwise_and(lo, _MASK, out=a0)
    np.right_shift(lo, _U32, out=a1)
    np.multiply(a0, _LO0, out=t)
    np.right_shift(t, _U32, out=t)
    np.multiply(a1, _LO0, out=u)
    np.add(t, u, out=t)
    np.multiply(a0, _LO1, out=a0)
    np.bitwise_and(t, _MASK, out=u)
    np.add(u, a0, out=u)
    np.multiply(a1, _LO1, out=a1)
    np.right_shift(t, _U32, out=t)
    np.add(a1, t, out=a1)
    np.right_shift(u, _U32, out=u)
    np.add(a1, u, out=a1)
    # hi = mulhi + lo * MULT_HI + hi * MULT_LO + inc_hi + carry of lo = lo * MULT_LO + inc_lo.
    np.multiply(hi, _MULT_LO, out=hi)
    np.add(hi, a1, out=hi)
    np.multiply(lo, _MULT_HI, out=a0)
    np.add(hi, a0, out=hi)
    np.add(hi, inc_hi, out=hi)
    np.multiply(lo, _MULT_LO, out=lo)
    np.add(lo, inc_lo, out=lo)
    np.less(lo, inc_lo, out=carry)
    np.add(hi, carry, out=hi, dtype=np.uint64)


def _numpy_draws(seed: int, children, high: int, size: int) -> np.ndarray:
    """numpy's own draws for each child, one row each."""
    out = np.empty((len(children), size), dtype=np.uint64)
    for row, i in enumerate(children):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(int(i),)))
        out[row] = rng.integers(0, high, size)
    return out


def _draws(seed: int, start: int, stop: int, high: int, size: int):
    """Yield the values of ``default_rng(SeedSequence(seed).spawn(stop)[i]).integers(0,
    high, size)`` for every i in [start, stop), two at a time: for each k in
    range(0, size, 2), a (2, n_children) int64 array whose rows are values k
    and k + 1 (one row for the last value of an odd size). The array is a
    buffer that the next step overwrites.

    All children step together. numpy's value k of a child is the low (even k)
    or high (odd k) half of PCG64 output k // 2, scaled to [0, high) by
    Lemire's multiply-shift. A child whose multiply lands in the rejection
    zone, or whose spawn key needs two words, is redone alone through numpy.
    """
    if not 1 <= high <= 2**32:
        raise ValueError("high must be in [1, 2**32]")
    hi, lo, inc_hi, inc_lo = _pcg64_states(seed, np.arange(start, stop, dtype=np.uint64) & _MASK)
    n = len(lo)
    alone = np.arange(max(2**32 - start, 0), n)  # rows of i >= 2**32
    exact = _numpy_draws(seed, start + alone, high, size)
    scratch = _scratch(n)
    x, rot = np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64)
    # Little-endian words, so that each word's uint32 view is its low half, then its high half.
    word = np.empty(n, dtype="<u8")
    halves = word.view("<u4").reshape(n, 2).T
    m, low = np.empty((2, n), dtype=np.uint64), np.empty((2, n), dtype=np.uint64)
    draws = m.view(np.int64)
    bound, threshold = np.array(high, dtype=np.uint64), 2**32 % high
    for k in range(0, size, 2):
        width = min(2, size - k)
        _step(hi, lo, inc_hi, inc_lo, *scratch)
        # XSL-RR output: (hi ^ lo) rotated right by hi's top 6 bits. numpy shifts a
        # uint64 by 64 to 0, so rot == 0 needs no mask on the left shift.
        np.bitwise_xor(hi, lo, out=x)
        np.right_shift(hi, _U58, out=rot)
        np.right_shift(x, rot, out=word)
        np.subtract(_U64, rot, out=rot)
        np.left_shift(x, rot, out=x)
        np.bitwise_or(word, x, out=word)
        for j in range(width):
            np.multiply(halves[j], bound, out=m[j], dtype=np.uint64)
        if threshold:
            np.bitwise_and(m[:width], _MASK, out=low[:width])
            if low[:width].min() < threshold:
                rejected = np.flatnonzero((low[:width] < threshold).any(axis=0))
                if (rejected := np.setdiff1d(rejected, alone)).size:
                    alone = np.concatenate([alone, rejected])
                    exact = np.concatenate([exact, _numpy_draws(seed, start + rejected, high, size)])
        np.right_shift(m, _U32, out=m)
        if alone.size:
            m[:width, alone] = exact[:, k:k + width].T
        yield draws[:width]


def _pack(counts: np.ndarray):
    """Pack each row of (n_docs, k) non-negative counts into as few uint64 words as
    fit. Column c gets bit_length(n_docs * max(c)) bits, so a sum of n_docs rows
    never carries from one field into the next. Returns the (n_docs, n_words)
    packed rows and each column's (word, shift, width)."""
    n_docs = len(counts)
    fields, word, used = [], 0, 0
    for top in counts.max(axis=0, initial=0).tolist():
        width = (n_docs * top).bit_length()
        if width > 63:
            raise ValueError("counts too large: a resample total could reach 2**63")
        if used + width > 64:
            word, used = word + 1, 0
        fields.append((word, used, width))
        used += width
    packed = np.zeros((n_docs, word + 1), dtype=np.uint64)
    for c, (w, shift, _) in enumerate(fields):
        packed[:, w] |= counts[:, c].astype(np.uint64) << np.uint64(shift)
    return packed, fields


def _resample_deltas(counts: np.ndarray, seed: int, start: int, stop: int) -> np.ndarray:
    """F1(A) - F1(B) of resamples [start, stop) of the (n_docs, 6) count rows."""
    n_docs = len(counts)
    packed, fields = _pack(counts)
    totals = np.zeros((stop - start, packed.shape[1]), dtype=np.uint64)
    rows = np.empty_like(totals)
    for pair in _draws(seed, start, stop, n_docs, n_docs):
        for draw in pair:
            # Every draw is in range; "clip" lets take write straight into rows, which
            # the default "raise" would buffer.
            np.add(totals, packed.take(draw, axis=0, out=rows, mode="clip"), out=totals)
    tp_a, fp_a, fn_a, tp_b, fp_b, fn_b = (
        ((totals[:, w] >> np.uint64(shift)) & np.uint64(2**width - 1)).view(np.int64)
        for w, shift, width in fields
    )
    return precision_recall_f1(tp_a, fp_a, fn_a)[2] - precision_recall_f1(tp_b, fp_b, fn_b)[2]


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
    one key, a report key exactly as ``score`` writes it, which nothing
    splits. A key that does not fit the level, or that occurs in no gold or
    predicted event at that level, raises ``ScoringError``: it would
    otherwise read as "no difference".
    """
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if isinstance(n_resamples, bool) or not isinstance(n_resamples, int) or n_resamples < 1:
        raise ValueError("n_resamples must be an integer >= 1")
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
