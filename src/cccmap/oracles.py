"""Independent brute-force verifiers: exhaustive enumeration and sphere sampling.

These are the ground-truth generators the tests check closed forms against.
They never call the closed-form code paths they are meant to audit: they score
each chunk of predictions as one batch through the moment kernel and ccc formula
of :func:`stats.ccc`, so each reported value is ``ccc`` of its witness bit for
bit. All randomness is seeded and every report is reproducible bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, TooLarge
from .ordering import GOLD_MINUS_PRED, PRED_MINUS_GOLD, Convention, ErrorSet
from .stats import _ccc, _lp_norm, _moments, as_sequence

#: Enumerating beyond 9! orderings is refused.
MAX_ENUM_N = 9

_CHUNK = 200_000


@dataclass(frozen=True)
class OracleReport:
    trials: int
    best_value: float
    worst_value: float
    witness_best: np.ndarray
    witness_worst: np.ndarray
    seed: int


def permutation_oracle(gold, errors: ErrorSet, convention: Convention) -> OracleReport:
    """Exact ccc extremes over every ordering of the error multiset.

    Enumerates all N! orderings (duplicates included) in lexicographic order
    of the canonical ascending values; ties resolve to the first ordering
    encountered, so the report is deterministic.
    """
    g = as_sequence(gold)
    if g.size != errors.n:
        raise InvalidInput(f"length mismatch: gold {g.size} vs errors {errors.n}")
    if g.size > MAX_ENUM_N:
        raise TooLarge(f"N={g.size} exceeds the enumeration guard of {MAX_ENUM_N}")
    if convention not in (PRED_MINUS_GOLD, GOLD_MINUS_PRED):
        raise InvalidInput(f"unknown convention {convention!r}")

    sign = 1.0 if convention == PRED_MINUS_GOLD else -1.0

    def chunks():
        perms = itertools.permutations(errors.values.tolist())
        while block := list(itertools.islice(perms, _CHUNK)):
            preds = g[None, :] + sign * np.asarray(block, dtype=np.float64)
            yield preds, preds

    return _extremes(g, chunks(), seed=0)


def _extremes(gold: np.ndarray, chunks, seed: int) -> OracleReport:
    """Best and worst ccc over chunks of (predictions, witnesses); ties keep the first row."""
    best_val, worst_val = -np.inf, np.inf
    best_wit = worst_wit = None
    trials = 0
    for preds, witnesses in chunks:
        moments = _moments(gold, preds)
        if moments[4] == 0.0:  # the gold's variance, in units of its own power of two
            raise InvalidInput("gold standard is constant")
        vals = _ccc(*moments)
        trials += len(vals)
        i_max = int(np.argmax(vals))
        i_min = int(np.argmin(vals))
        if vals[i_max] > best_val:
            best_val, best_wit = float(vals[i_max]), witnesses[i_max].copy()
        if vals[i_min] < worst_val:
            worst_val, worst_wit = float(vals[i_min]), witnesses[i_min].copy()
    return OracleReport(
        trials=trials,
        best_value=best_val,
        worst_value=worst_val,
        witness_best=best_wit,
        witness_worst=worst_wit,
        seed=seed,
    )


def _sphere_report(gold: np.ndarray, p: float, radius: float, trials: int, seed: int) -> OracleReport:
    """Extremes over Gaussian directions rescaled to L_p norm ``radius``."""
    if trials < 1:
        raise InvalidInput("trials must be at least 1")
    rng = np.random.default_rng(seed)

    def chunks():
        for done in range(0, trials, _CHUNK):
            d = rng.standard_normal((min(_CHUNK, trials - done), gold.size))
            d *= (radius / _lp_norm(d, p))[:, None]
            yield gold[None, :] + d, d

    return _extremes(gold, chunks(), seed)


def mse_sphere_oracle(gold, mse: float, trials: int, seed: int) -> OracleReport:
    """ccc extremes over random error vectors with sum(d^2) = N*mse.

    Directions are isotropic (normalized Gaussians); witnesses are the error
    vectors, not the predictions.
    """
    g = as_sequence(gold)
    if not 0.0 <= mse < np.inf:
        raise InvalidInput(f"mse must be finite and nonnegative, got {mse}")
    return _sphere_report(g, 2, np.sqrt(g.size * mse), trials, seed)


def lk_sphere_oracle(gold, k: float, lk: float, trials: int, seed: int) -> OracleReport:
    """ccc extremes over random error vectors rescaled onto the L_k sphere.

    The rescaling is not a uniform measure on the L_k sphere for k != 2, but
    it covers it, which suffices for auditing outer bounds.
    """
    g = as_sequence(gold)
    if not 0.0 < k < np.inf:
        raise InvalidInput(f"k must be finite and positive, got {k}")
    if not 0.0 < lk < np.inf:
        raise InvalidInput(f"lk must be finite and positive, got {lk}")
    return _sphere_report(g, k, lk, trials, seed)


def finite_difference(f, at, h: float) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function of a sequence."""
    x = as_sequence(at).copy()
    if not 0.0 < h < np.inf:
        raise InvalidInput(f"h must be finite and positive, got {h}")
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
