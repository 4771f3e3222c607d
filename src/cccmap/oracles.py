"""Independent brute-force verifiers: exhaustive enumeration and sphere sampling.

These are the ground-truth generators the tests check closed forms against.
They never call the closed-form code paths they are meant to audit: they score
each block of predictions as one batch through the moment kernel and ccc formula
of :func:`stats.ccc`, so each reported value is ``ccc`` of its witness bit for
bit. A block holds ``stats._block_rows(n)`` rows, about 2**16 float64 values, so
that it stays in cache. The permutation oracle gathers each block of orderings
from an index table in the lexicographic order of ``itertools.permutations``;
the sphere oracles draw each block from one seeded stream, so block k holds rows
k*R to (k+1)*R - 1 of a single draw. Every buffer and scratch array a search
uses is allocated once per call, and the gold is scaled and centred once. Ties
keep the first row, so no report depends on the block size. Every report names
the trial number of each witness, and is reproducible bit for bit from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooLarge
from .ordering import Convention, ErrorSet, _adds
from .stats import (
    _block_rows, _ccc, _count, _prepared_gold, _real, _row_moments, _sphere_rows, as_sequence,
)

#: Enumerating beyond 9! orderings is refused.
MAX_ENUM_N = 9


@dataclass(frozen=True)
class OracleReport:
    """Extremes of a brute-force search. ``best_index`` and ``worst_index`` are the
    0-based trial numbers of the witnesses: the rank of the ordering in lexicographic
    order, or the row of the seeded Gaussian draw that was scaled onto the sphere."""

    trials: int
    best_value: float
    worst_value: float
    witness_best: np.ndarray
    witness_worst: np.ndarray
    seed: int
    best_index: int
    worst_index: int


def _permutation_table(n: int) -> np.ndarray:
    """Every ordering of range(n) as an (n!, n) int8 table, in the lexicographic order
    in which ``itertools.permutations(range(n))`` yields them."""
    table = np.zeros((1, 0), dtype=np.int8)
    for m in range(1, n + 1):
        # each first element in turn, followed by the orderings of the other m - 1
        first = np.repeat(np.arange(m, dtype=np.int8), len(table))[:, None]
        rest = np.tile(table, (m, 1))
        table = np.hstack([first, rest + (rest >= first)])
    return table


def permutation_oracle(gold, errors: ErrorSet, convention: Convention) -> OracleReport:
    """Exact ccc extremes over every ordering of the error multiset.

    Enumerates all N! orderings (duplicates included) in lexicographic order
    of the canonical ascending values; ties resolve to the first ordering
    encountered, so the report is deterministic.
    """
    g, _, moments = _prepared_gold(gold, errors.n)
    if g.size > MAX_ENUM_N:
        raise TooLarge(f"N={g.size} exceeds the enumeration guard of {MAX_ENUM_N}")
    combine = np.add if _adds(convention) else np.subtract
    table = _permutation_table(g.size)
    preds = np.empty((min(_block_rows(g.size), len(table)), g.size))

    def blocks():
        for lo in range(0, len(table), len(preds)):
            block = preds[:len(table) - lo]
            # every index is in range, so "clip" changes no value; it spares the buffered
            # copy of ``out`` that the default mode makes
            np.take(errors.values, table[lo:lo + len(block)], out=block, mode="clip")
            yield combine(g, block, out=block), block

    return _extremes(moments, blocks(), seed=0)


def _extremes(moments, blocks, seed: int) -> OracleReport:
    """Best and worst ccc over blocks of (predictions, witnesses) against a gold prepared by
    :func:`stats._prepared_gold`; ties keep the first row. Every block is scored in the same
    scratch, sized by the first block, which is the largest."""
    ex, mu_x, var_x, a = moments
    scratch = None
    best_val, worst_val = -np.inf, np.inf
    best_wit = worst_wit = None
    best_idx = worst_idx = -1
    trials = 0
    for preds, witnesses in blocks:
        if scratch is None:
            scratch = np.empty((2, *preds.shape))
        ey, mu_y, var_y, cov = _row_moments(a, preds, *scratch[:, :len(preds)])
        vals = _ccc(ex, ey, mu_x, mu_y, var_x, var_y, cov)
        i_max = int(np.argmax(vals))
        i_min = int(np.argmin(vals))
        if vals[i_max] > best_val:
            best_val, best_wit, best_idx = float(vals[i_max]), witnesses[i_max].copy(), trials + i_max
        if vals[i_min] < worst_val:
            worst_val, worst_wit, worst_idx = float(vals[i_min]), witnesses[i_min].copy(), trials + i_min
        trials += len(vals)
    return OracleReport(
        trials=trials,
        best_value=best_val,
        worst_value=worst_val,
        witness_best=best_wit,
        witness_worst=worst_wit,
        seed=seed,
        best_index=best_idx,
        worst_index=worst_idx,
    )


def _sphere_report(g: np.ndarray, moments, p: float, radius: float, trials, seed) -> OracleReport:
    """Extremes over Gaussian directions rescaled to L_p norm ``radius``, around g."""
    trials = _count(trials, "trials", 1)
    rng = np.random.default_rng(_count(seed, "seed", 0))
    buf, preds = np.empty((2, min(_block_rows(g.size), trials), g.size))

    def blocks():
        for done in range(0, trials, len(buf)):
            d = _sphere_rows(rng, buf[:trials - done], p, radius, preds[:trials - done])
            yield np.add(g, d, out=preds[:trials - done]), d

    return _extremes(moments, blocks(), seed)


def mse_sphere_oracle(gold, mse: float, trials: int, seed: int) -> OracleReport:
    """ccc extremes over random error vectors with sum(d^2) = N*mse.

    Directions are isotropic (normalized Gaussians); witnesses are the error
    vectors, not the predictions.
    """
    g, _, moments = _prepared_gold(gold)
    mse = _real(mse, "mse", "nonnegative")
    return _sphere_report(g, moments, 2, np.sqrt(g.size * mse), trials, seed)


def lk_sphere_oracle(gold, k: float, lk: float, trials: int, seed: int) -> OracleReport:
    """ccc extremes over random error vectors rescaled onto the L_k sphere.

    The rescaling is not a uniform measure on the L_k sphere for k != 2, but
    it covers it, which suffices for auditing outer bounds.
    """
    g, _, moments = _prepared_gold(gold)
    k, lk = _real(k, "k", "positive"), _real(lk, "lk", "positive")
    return _sphere_report(g, moments, k, lk, trials, seed)


def finite_difference(f, at, h: float) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function of a sequence."""
    x = as_sequence(at).copy()
    h = _real(h, "h", "positive")
    grad = np.empty_like(x)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + h
        up = f(x)
        x[i] = orig - h
        down = f(x)
        x[i] = orig
        grad[i] = (up - down) / (2.0 * h)
    return grad
