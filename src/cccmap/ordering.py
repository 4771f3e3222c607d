"""Orderings of a fixed error multiset that extremize ccc against a gold standard.

Two sign conventions exist for "error": E = P - G (additive; prediction is
gold plus error) and E = G - P (subtractive). For either convention and a
fixed multiset of error values, ccc depends on the ordering only through
sum(g_i * e_i), so by the rearrangement inequality the extremes are reached
when the errors are sorted like the gold (same direction) or opposite to it.
The closed forms below express the four extreme ccc values directly from the
sorted products; each is also attained by an explicit prediction sequence.

Which convention wins at the maximum depends on the instance; no general
ordering between the two exists, so comparisons must evaluate both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DegenerateVariance, InvalidInput, Singularity
from .stats import _as_pair, _mean, _power_mean, as_sequence, ccc, population_variance

Convention = Literal["pred_minus_gold", "gold_minus_pred"]
PRED_MINUS_GOLD: Convention = "pred_minus_gold"
GOLD_MINUS_PRED: Convention = "gold_minus_pred"


@dataclass(frozen=True)
class ErrorSet:
    """A multiset of signed error values, stored sorted ascending.

    The moments (mu_e, mse) depend only on the multiset, never on an ordering.
    """

    values: np.ndarray
    mu_e: float
    mse: float

    @property
    def n(self) -> int:
        return int(self.values.size)


def error_set(values) -> ErrorSet:
    arr = np.sort(as_sequence(values))
    return ErrorSet(values=arr, mu_e=_mean(arr), mse=_power_mean(arr, 2, "mse"))


def _ccc_from_products(
    n: int, mse_e: float, var_g: float, sum_ge: float, mu_g: float, mu_e: float, sign: float
) -> float:
    """Shared closed form: ccc = 1 - N*mse / (2N var_g +- 2 sum(g e) -+ 2N mu_g mu_e + N mse)."""
    denom = (
        2.0 * n * var_g
        + sign * 2.0 * sum_ge
        - sign * 2.0 * n * mu_g * mu_e
        + n * mse_e
    )
    if denom == 0.0:
        raise Singularity("ccc denominator is exactly zero")
    return float(1.0 - n * mse_e / denom)


def ccc_error_form(gold, errors_ordered, convention: Convention) -> float:
    """ccc of (gold, gold + errors) under pred_minus_gold, or of (gold, gold - errors)
    under gold_minus_pred, computed from the error ordering directly."""
    if convention not in (PRED_MINUS_GOLD, GOLD_MINUS_PRED):
        raise InvalidInput(f"unknown convention {convention!r}")
    g, e = _as_pair(gold, errors_ordered)
    return _ccc_from_products(
        n=g.size,
        mse_e=float((e * e).mean()),
        var_g=population_variance(g),
        sum_ge=float(g @ e),
        mu_g=float(g.mean()),
        mu_e=float(e.mean()),
        sign=1.0 if convention == PRED_MINUS_GOLD else -1.0,
    )


def ccc_error_form1(gold, errors_ordered) -> float:
    """ccc of (gold, gold + errors) computed from the error ordering directly."""
    return ccc_error_form(gold, errors_ordered, PRED_MINUS_GOLD)


def ccc_error_form2(gold, errors_ordered) -> float:
    """ccc of (gold, gold - errors); mirror convention of :func:`ccc_error_form1`."""
    return ccc_error_form(gold, errors_ordered, GOLD_MINUS_PRED)


def chebyshev_check(a, b) -> float:
    """(1/n) sum a_k b_k - mean(a) mean(b).

    Nonnegative when a and b are sorted in the same direction, nonpositive
    when sorted opposite (Chebyshev's sum inequality).
    """
    av, bv = _as_pair(a, b)
    return float((av * bv).mean() - av.mean() * bv.mean())


@dataclass(frozen=True)
class PermutationResult:
    """One extreme ordering: the assignment, its prediction, and both ccc routes.

    ``assignment[j]`` is the error value paired with the j-th smallest gold
    sample (ties in gold broken by original index); ``errors`` is the same
    permutation aligned with the original gold order, so its multiset is the
    input ErrorSet bit for bit. ``prediction`` is gold +- errors per the
    convention. ``formula_value`` comes from the closed form and must agree
    with ``ccc_value`` computed directly from the prediction.
    """

    convention: Convention
    objective: Literal["max", "min"]
    assignment: np.ndarray
    errors: np.ndarray
    prediction: np.ndarray
    ccc_value: float
    formula_value: float


@dataclass(frozen=True)
class OrderingExtremes:
    max_add: PermutationResult  # P = G + E, errors sorted like gold
    max_sub: PermutationResult  # P = G - E, errors sorted opposite
    min_add: PermutationResult  # P = G + E, errors sorted opposite
    min_sub: PermutationResult  # P = G - E, errors sorted like gold


def optimal_permutations(gold, errors: ErrorSet) -> OrderingExtremes:
    """The four ccc-extreme orderings of an error multiset for a gold standard."""
    g = as_sequence(gold)
    if g.size != errors.n:
        raise InvalidInput(f"length mismatch: gold {g.size} vs errors {errors.n}")
    var_g = population_variance(g)
    if var_g == 0.0:
        raise DegenerateVariance("gold standard is constant")
    n = g.size
    order = np.argsort(g, kind="stable")
    e_same = np.empty(n)
    e_same[order] = errors.values  # ascending errors onto ascending gold
    e_opp = np.empty(n)
    e_opp[order] = errors.values[::-1]

    g_sorted = g[order]
    sum_same = float(g_sorted @ errors.values)
    sum_opp = float(g_sorted @ errors.values[::-1])
    mu_g, mu_e, mse_e = float(g.mean()), errors.mu_e, errors.mse

    def build(convention, objective, assignment, errors_in_gold_order, sum_ge, sign):
        pred = g + errors_in_gold_order if sign > 0 else g - errors_in_gold_order
        formula = _ccc_from_products(n, mse_e, var_g, sum_ge, mu_g, mu_e, sign)
        return PermutationResult(
            convention=convention,
            objective=objective,
            assignment=assignment.copy(),
            errors=errors_in_gold_order.copy(),
            prediction=pred,
            ccc_value=ccc(g, pred),
            formula_value=formula,
        )

    asc = errors.values
    desc = errors.values[::-1]
    return OrderingExtremes(
        max_add=build(PRED_MINUS_GOLD, "max", asc, e_same, sum_same, +1.0),
        max_sub=build(GOLD_MINUS_PRED, "max", desc, e_opp, sum_opp, -1.0),
        min_add=build(PRED_MINUS_GOLD, "min", desc, e_opp, sum_opp, +1.0),
        min_sub=build(GOLD_MINUS_PRED, "min", asc, e_same, sum_same, -1.0),
    )


ComparisonOutcome = Literal["add_better", "sub_better", "tie"]


def compare_max_conventions(gold, errors: ErrorSet) -> ComparisonOutcome:
    """Which convention attains the higher maximum ccc for this instance.

    Decided by evaluating both closed forms; no shortcut inequality exists
    (instances with either outcome occur). Ties within 1e-12 relative.
    """
    ext = optimal_permutations(gold, errors)
    v1, v2 = ext.max_add.formula_value, ext.max_sub.formula_value
    if abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1), abs(v2)):
        return "tie"
    return "add_better" if v1 > v2 else "sub_better"
