"""Orderings of a fixed error multiset that extremize ccc against a gold standard.

Two sign conventions exist for "error": E = P - G (additive; prediction is
gold plus error) and E = G - P (subtractive). The prediction's mse against the
gold is mean(e**2) and its covariance with the gold is var_g + cov(g, e) or
var_g - cov(g, e), so the exact mapping ccc = 2*cov / (mse + 2*cov) gives ccc
from the multiset's mse and the cross covariance cov(g, e). For a fixed
multiset only cov(g, e) depends on the ordering, so by the rearrangement
inequality the extremes are reached when the errors are sorted like the gold
(same direction) or opposite to it. The closed forms below evaluate the
mapping at those two orderings; each is also attained by an explicit
prediction sequence.

Which convention wins at the maximum depends on the instance; no general
ordering between the two exists, so comparisons must evaluate both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import InvalidInput
from .mse_bounds import ccc_from_mse_cov
from .stats import (
    _ccc,
    _error_mean,
    _prepared_gold,
    _row_cov,
    _row_moments,
    _span,
    as_sequence,
)

Convention = Literal["pred_minus_gold", "gold_minus_pred"]
PRED_MINUS_GOLD: Convention = "pred_minus_gold"
GOLD_MINUS_PRED: Convention = "gold_minus_pred"


@dataclass(frozen=True)
class ErrorSet:
    """A multiset of signed error values, stored sorted ascending, and its mse
    = mean(e**2), which depends only on the multiset, never on an ordering.
    """

    values: np.ndarray
    mse: float

    @property
    def n(self) -> int:
        return int(self.values.size)


def error_set(values) -> ErrorSet:
    arr = np.sort(as_sequence(values, "values"))
    e = _span(arr[[0, -1]])[0]  # sorted: the ends hold the largest magnitude
    return ErrorSet(values=arr, mse=_error_mean(np.ldexp(arr, -e), e, 2, "mse"))


def _adds(convention: Convention) -> bool:
    """Whether ``convention`` predicts gold + errors; InvalidInput unless it is one of the two."""
    if convention not in (PRED_MINUS_GOLD, GOLD_MINUS_PRED):
        raise InvalidInput(f"unknown convention {convention!r}")
    return convention == PRED_MINUS_GOLD


def _mapped_ccc(eg: int, ee: int, var_g: float, cov: float, mse: float, add: bool) -> float:
    """ccc of (g, g + e) if ``add``, else of (g, g - e), by the exact mapping from
    mse = mean(e**2) and the prediction's covariance with g, var_g +- cov(g, e).
    The arguments are in the :func:`stats._moments` units of (g, e), mse in 4**ee.
    All three terms are taken in units of 4**s, s = max(eg, ee), so neither their sum
    nor the mapping can overflow; the scaling is exact, so the bits are those of the
    unscaled formula wherever that is finite and no term is subnormal. All-zero errors
    (mse 0) have no power of two of their own, so they leave var_g in its units."""
    s = max(eg, ee) if mse else eg
    cross = math.ldexp(cov if add else -cov, eg + ee - 2 * s)
    return ccc_from_mse_cov(math.ldexp(mse, 2 * (ee - s)), math.ldexp(var_g, 2 * (eg - s)) + cross)


@dataclass(frozen=True)
class PermutationResult:
    """One extreme ordering: its errors, its prediction, and both ccc routes.

    ``errors`` is the input ErrorSet's values, bit for bit, aligned with the original
    gold order: the error paired with the j-th smallest gold sample (ties in gold
    broken by original index) is ``values[j]`` where the errors are sorted like the
    gold and ``values[::-1][j]`` where opposite to it. ``prediction`` is gold +- errors
    per the convention. ``formula_value`` comes from the closed form and must agree
    with ``ccc_value`` computed directly from the prediction.

    Both arrays are read-only, and ``max_add`` and ``min_sub`` share ``errors``, as do
    ``max_sub`` and ``min_add``. Copy an array before changing it.
    """

    convention: Convention
    objective: Literal["max", "min"]
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


#: Packed keys are sorted as float64: an int64 in [_NORMAL, _FINITE] is the bit pattern of
#: a normal, finite, positive double, and such patterns order as doubles exactly as they do
#: as integers, even where subnormals are flushed to zero. The packing takes int64 shifts
#: and arithmetic, a float64 sort and float64 comparisons, and no integer sort, integer
#: comparison or bitwise kernel: each of those is more of numpy's code (about 64 KB) that a
#: process maps into memory on its first use.
_NORMAL = 1 << 52
_FINITE = 0x7FEF_FFFF_FFFF_FFFF


def _gold_order(g: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Indices that sort g ascending, equal values in index order (a stable sort's order),
    built in ``scratch``, a (2, n) float64 array, and returned as an intp view of it.

    Each value becomes its order-preserving int64 image: its magnitude bits, negated when
    its sign bit is set, so -0.0 and 0.0 share the image 0. One float64 sort orders packed
    keys: each image shifted right by s, taken relative to the smallest, then shifted left
    past the index, which fills the low bits, and offset by _NORMAL; s is the fewest bits
    that keep every packed key at most _FINITE. Equal values share a key, so they stay in
    index order. Distinct values that agree above bit s sort by index too, so where s > 0
    the runs of equal shifted images are sorted again by value, all in one stable argsort:
    shifted images rise strictly from one run to the next, so every run keeps its place.
    """
    key, order = scratch.view(np.int64)
    np.right_shift(g.view(np.int64), 63, out=order)
    order += order
    order += 1  # -1 where the sign bit is set, else 1
    np.abs(g, out=key.view(np.float64))
    key *= order
    n = g.size
    bits = (n - 1).bit_length()
    lo, hi = int(key.min()), int(key.max())
    s = max(0, (hi - lo).bit_length() + bits - 63)
    while (((hi >> s) - (lo >> s)) << bits) + n - 1 > _FINITE - _NORMAL:
        s += 1
    np.right_shift(key, s, out=order)
    order -= lo >> s
    order <<= bits
    work = np.arange(_NORMAL, _NORMAL + n, dtype=np.int64)
    order += work
    order.view(np.float64).sort()
    np.right_shift(order, bits, out=work)
    work <<= bits  # the sorted packed keys without their indices
    order -= work
    if s:  # whether neighbours' shifted images agree
        same = work[1:].view(np.float64) == work[:-1].view(np.float64)
    del work
    if s and same.any():
        inrun = np.zeros(n, dtype=bool)
        inrun[:-1] = same
        inrun[1:] |= same
        pos = np.flatnonzero(inrun)
        ix = order[pos]
        value = g[ix]
        if (value[1:] < value[:-1]).any():
            order[pos] = ix[np.argsort(value, kind="stable")]
    return order.view(np.intp)


#: (field, convention, objective, row) of each extreme; row 0 of the error rows holds the
#: errors sorted like the gold, row 1 sorted opposite to it.
_EXTREMES = (
    ("max_add", PRED_MINUS_GOLD, "max", 0),
    ("max_sub", GOLD_MINUS_PRED, "max", 1),
    ("min_add", PRED_MINUS_GOLD, "min", 1),
    ("min_sub", GOLD_MINUS_PRED, "min", 0),
)


def optimal_permutations(gold, errors: ErrorSet) -> OrderingExtremes:
    """The four ccc-extreme orderings of an error multiset for a gold standard.

    The gold order comes from :func:`_gold_order`, a packed-key sort that breaks ties in
    gold by original index exactly as a stable sort breaks them. The gold is scaled and
    centred once, and both error rows and all four predictions are scored against it in one
    pair of scratch buffers, which also hold the gold order while the rows are filled; the
    error rows are scored for cov(g, e) alone, the one moment the mapping reads from them.
    Each ``ccc_value`` is ``stats.ccc`` of its prediction bit for bit.
    """
    g, scratch, (eg, mu_g, var_g, a) = _prepared_gold(gold, errors.n)
    order = _gold_order(g, scratch)
    rows = np.empty((2, g.size))
    rows[0, order] = errors.values  # e_same: ascending errors onto ascending gold
    rows[1, order] = errors.values[::-1]  # e_opp: descending
    del order  # a view of the scratch, which the scoring below overwrites
    rows.flags.writeable = False
    # one multiset, so one power of two: the sorted errors' extremes hold its largest magnitude
    ee, constant = _span(errors.values[[0, -1]])
    covs = [_row_cov(a, row, ee, constant, *scratch)[1] for row in rows]
    mse = _error_mean(np.ldexp(errors.values, -ee, out=scratch[0]), 0, 2, "mse")
    scored = []  # (prediction, ccc_value, formula_value) of each extreme
    for _, convention, _, row in _EXTREMES:
        add = convention == PRED_MINUS_GOLD
        pred = g + rows[row] if add else g - rows[row]
        pred.flags.writeable = False
        ep, mu_p, var_p, cov_p = _row_moments(a, pred, *scratch)
        scored.append((
            pred,
            _ccc(eg, ep, mu_g, mu_p, var_g, var_p, cov_p),
            _mapped_ccc(eg, ee, var_g, covs[row], mse, add),
        ))
    return OrderingExtremes(**{
        name: PermutationResult(convention, objective, rows[row], *score)
        for (name, convention, objective, row), score in zip(_EXTREMES, scored)
    })

