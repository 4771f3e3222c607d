"""Independent brute-force verifiers: exhaustive enumeration and sphere sampling.

These are the ground-truth generators the tests check closed forms against.
They never call the closed-form code paths they are meant to audit. Every search
is one loop, :func:`_extremes`, over cache-sized blocks of error rows d, each
scored as the prediction g + d; the permutation oracle feeds it the orderings
of +-e, since g + (-e) is g - e bit for bit. A block holds
``stats._block_rows(n)`` rows, about 2**16 float64 values. The permutation
oracle gathers each block of orderings from an index table in the lexicographic
order of ``itertools.permutations``; the sphere oracles draw each block from one
seeded stream, so block k holds rows k*R to (k+1)*R - 1 of a single draw.

Each block is first screened by the paper's mapping, in plain algebra: with S2 =
sum (g_i - mu_g) d_i and S3 = sum d_i**2, ccc(g, g + d) = 1 - v for v = S3 / (S3 +
2 S2 + 2 n var_g), so two row sums rank the rows. Only the rows whose v lies
within a proven bound of the block's least or greatest v are then scored by the
moment kernel and ccc formula of :func:`stats.ccc`, in index order; the bound
(:func:`_screen`) covers the screen's rounding, the rounding of g + d and the
kernel's own, so every row the kernel would rank first or last is among them.
A block is scored whole where the bound cannot be set up (a gold so nearly
constant that the bound exceeds 2**-13, or a power of two the screen's units
cannot hold), where a row's S3 is too large for the screen's sums or for g + d
to be sure to fit in float64 (so the kernel raises as before), or where more
than a quarter of its rows fall inside the bound, as at radius 0, mse 0 or
errors whose orderings all tie. The kernel gives every row it scores the bits
that row gives alone, so each reported value is ``ccc`` of its witness bit for
bit, and the same value the whole block's scoring gives.

Every buffer and scratch array a search uses is allocated once per call, and
the gold is scaled and centred once. Ties keep the first row, so no report
depends on the block size. Every report names the trial number of each witness,
and is reproducible bit for bit from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInput, TooLarge
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
    encountered, so the report is deterministic. The witnesses are predictions.
    """
    g, _, moments = _prepared_gold(gold, errors.n)
    if g.size > MAX_ENUM_N:
        raise TooLarge(f"N={g.size} exceeds the enumeration guard of {MAX_ENUM_N}")
    signed = errors.values if _adds(convention) else -errors.values
    table = _permutation_table(g.size)

    def fill(lo, out, _):
        # every index is in range, so "clip" changes no value; it spares the buffered
        # copy of ``out`` that the default mode makes
        np.take(signed, table[lo:lo + len(out)], out=out, mode="clip")

    report = _extremes(g, moments, len(table), fill, seed=0)
    return replace(report, witness_best=g + report.witness_best, witness_worst=g + report.witness_worst)


def _extremes(g, moments, trials: int, fill, seed: int) -> OracleReport:
    """Best and worst ccc of g + d over ``trials`` error rows d, against a gold g prepared
    by :func:`stats._prepared_gold`; the witnesses are the rows d, and ties keep the first
    row. ``fill(lo, out, scratch)`` writes rows lo to lo + len(out) - 1 into the (R, n)
    block ``out``, with ``scratch`` of its shape to spare. Only the rows :func:`_candidates`
    returns are scored, or the whole block where it returns None."""
    ex, mu_x, var_x, a = moments
    rows = min(_block_rows(g.size), trials)
    block, *scratch = np.empty((4, rows, g.size))
    screen = _screen(g.size, ex, var_x)
    best_val, worst_val = -np.inf, np.inf
    best_wit = worst_wit = None
    best_idx = worst_idx = -1
    for lo in range(0, trials, rows):
        d = block[:trials - lo]
        fill(lo, d, scratch[0][:len(d)])
        hit = None if screen is None else _candidates(d, a, *screen, scratch[1][:len(d)])
        preds = scratch[0][:len(d) if hit is None else len(hit)]
        np.add(g, d if hit is None else np.take(d, hit, axis=0, out=preds, mode="clip"), out=preds)
        ey, mu_y, var_y, cov = _row_moments(a, preds, *(s[:len(preds)] for s in scratch[1:]))
        vals = _ccc(ex, ey, mu_x, mu_y, var_x, var_y, cov)
        j_max, j_min = int(np.argmax(vals)), int(np.argmin(vals))
        if vals[j_max] > best_val:
            i = j_max if hit is None else int(hit[j_max])
            best_val, best_wit, best_idx = float(vals[j_max]), d[i].copy(), lo + i
        if vals[j_min] < worst_val:
            i = j_min if hit is None else int(hit[j_min])
            worst_val, worst_wit, worst_idx = float(vals[j_min]), d[i].copy(), lo + i
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


def _screen(n: int, ex: int, var_x: float):
    """(unit, 2 n var_x, width, cap) for :func:`_candidates` against a gold of n values
    that :func:`stats._gold_moments` put in units of 2**ex with variance var_x, or None
    where the screen cannot be set up: unit = 2**-ex is not a normal float64, or the
    width exceeds 2**-13.

    The bound. Work in units of 2**ex, in which every |x_i| = |g_i| / 2**ex < 1; let mu be
    the mean of x, a* = x - mu, A = sum a*_i**2 and u = 2**-53. For a prediction w, let
    C = sum a*_i w_i and D = A + sum (w_i - mu)**2, n times the covariance and the ccc
    denominator; ccc = 2C / D. So D >= A, D >= 2|C|, and D >= 2 sqrt(A B) with B = sum
    (w_i - mean w)**2, and max |w_i| <= 1 + sqrt(D). For w = x + delta, delta = d / 2**ex,
    S2 = sum a*_i delta_i and S3 = sum delta_i**2, D = T = S3 + 2 S2 + 2A and 2C = T - S3,
    so ccc = 1 - S3 / T = 1 - v. If C and D are computed
    with errors below alpha D and beta D, beta <= 1/2, the ccc moves by at most (2 alpha +
    beta) / (1 - beta). Let nu = (n + 3) u, the error of a computed mean and centring
    relative to the vector's largest entry, and lam = sqrt(n) (1 + 1 / sqrt(A)), taken
    with A >= n var_x / 2 (a smaller A would put the width past 2**-13).

    - The kernel scores fl(g + d). Its centred gold and row are within nu and nu max|w|
      of a* and w - mean w, and its sums within n u of their own magnitude; by the facts
      above, its n cov and n (var_x + var_y + dmu**2) are within 1.5 nu lam D and 7 nu
      lam D of C and D, so with its last division its ccc is within 11 nu lam of 2C / D.
    - fl(x + delta) differs from x + delta by at most u max|w| per entry, which moves C
      by at most u lam D and D by at most 2 u lam D: 1.25 nu lam of ccc.
    - The screen sums S2 with the kernel's centred gold (within nu of a*) and S3, each
      within n u of its magnitude, and takes n var_x (within (2 sqrt(n / A) + 1) nu A of
      A) for A; using S3 <= 2T and T >= A, T is within 8.34 nu lam T, and v within 20 nu
      lam.

    So the kernel's ccc of each row is within eps = 33 nu lam of 1 - v (the ccc is
    a ratio of scaled sums, so an underflow adds at most 2**-1074 against sums of at least
    2**-80 here, below the u terms). A row the kernel ranks first has v at most min v +
    2 eps, and one it ranks last at least max v - 2 eps. The width taken is 128 nu lam,
    nearly twice 2 eps: that covers the second-order terms (nu lam <= 2**-20 where the
    screen runs) and the rounding of the window's own ends. cap keeps S3 where the
    screen's sums fit in float64 and every |g_i + d_i| <= 2**ex (1 + sqrt(S3)) is at
    most 2**1023, so no row the screen passes over could have overflowed."""
    lam = math.sqrt(n) * (1.0 + math.sqrt(2.0 / (n * var_x)))
    width = 128 * (n + 3) * 2.0**-53 * lam
    if not (-1023 <= ex <= 1022 and width <= 2.0**-13):
        return None
    return 2.0**-ex, 2.0 * n * var_x, width, 4.0 ** min(500, 1022 - ex)


def _candidates(d: np.ndarray, a: np.ndarray, unit: float, two_a: float, width: float, cap: float,
                scratch: np.ndarray):
    """Ascending indices of the rows of the (R, n) block d whose v = S3 / (S3 + 2 S2 +
    two_a) is within ``width`` of the block's least or greatest v, S2 and S3 taken on
    d * unit against the centred gold a, as :func:`_screen` sets out; None where the
    whole block must be scored. ``scratch``, of d's shape, takes d * unit. The sums are
    numpy's own einsum loops, not BLAS, whose worker thread would outlive the call."""
    delta = np.multiply(d, unit, out=scratch)
    s3 = np.einsum("ij,ij->i", delta, delta)
    if not s3.max() <= cap:
        return None
    v = s3 / (s3 + 2.0 * np.einsum("ij,j->i", delta, a) + two_a)
    hit = np.flatnonzero((v <= v.min() + width) | (v >= v.max() - width))
    return hit if 4 * len(hit) <= len(v) else None


def _sphere_report(g: np.ndarray, moments, p: float, radius: float, trials, seed) -> OracleReport:
    """Extremes over Gaussian directions rescaled to L_p norm ``radius``, around g."""
    trials = _count(trials, "trials", 1)
    rng = np.random.default_rng(_count(seed, "seed", 0))

    def fill(_, out, scratch):
        _sphere_rows(rng, out, p, radius, scratch)

    return _extremes(g, moments, trials, fill, seed)


def mse_sphere_oracle(gold, mse: float, trials: int, seed: int) -> OracleReport:
    """ccc extremes over random error vectors with sum(d^2) = N*mse.

    Directions are isotropic (normalized Gaussians); witnesses are the error
    vectors, not the predictions.
    """
    g, _, moments = _prepared_gold(gold)
    mse = _real(mse, "mse", "nonnegative")
    # sqrt(N mse / 4**j) * 2**j: the plain formula's bits wherever N * mse is normal, and
    # finite wherever the radius is
    j = math.frexp(mse)[1] // 2
    return _sphere_report(g, moments, 2, math.ldexp(math.sqrt(g.size * math.ldexp(mse, -2 * j)), j),
                          trials, seed)


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
    x = as_sequence(at, "at").copy()
    h = _real(h, "h", "positive")
    up, down = np.empty_like(x), np.empty_like(x)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + h
        up[i] = f(x)
        x[i] = orig - h
        down[i] = f(x)
        x[i] = orig
    with np.errstate(over="ignore", invalid="ignore"):
        diff = up - down
        grad = diff / (2.0 * h)
        # where 2 h or up - down overflows, the halves do not
        halves = ~np.isfinite(diff) | (2.0 * h == math.inf)
        np.divide(0.5 * up - 0.5 * down, h, out=grad, where=halves)
    if not np.all(np.isfinite(grad)):
        raise InvalidInput("finite difference is not finite at this h")
    return grad
