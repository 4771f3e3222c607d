"""Exact mapping between mean-square error and the concordance correlation,
plus the constructive ccc extremes attainable at a fixed mse.

Core identities, for a pair (X, Y) with population moments:

    var_x + var_y + (mu_x - mu_y)^2  =  mse + 2*cov          (moment identity)
    ccc = 2*cov / (mse + 2*cov)                              (exact mapping)

With a fixed gold standard G (variance var_g > 0) and a fixed mse, ccc ranges
over [lower_envelope(x), upper_envelope(x)] where x = sqrt(mse / var_g):

    upper_envelope(x) = 2(1+x) / (1 + (1+x)^2)      errors  +x * (g_i - mu_g)
    lower_envelope(x) = 2(1-x) / (1 + (1-x)^2)      errors  -x * (g_i - mu_g)

Both envelopes are values of the same kernel 2t/(1+t^2) at t = 1+x and t = 1-x.
Because lower_envelope is not monotone, a smaller mse can map to a smaller ccc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, Singularity, TooLarge
from .stats import _count, _gold_moments, _real, _reals, _unscale, as_sequence

#: Column names of the region table rows produced by :func:`mse_region_table`.
MSE_REGION_COLUMNS = ("x", "psi_upper", "psi_lower")

#: The most cells (rows times columns) that one region table or theta grid may hold.
MAX_GRID_CELLS = 10**6


def ccc_from_mse_cov(mse_value: float, cov: float) -> float:
    """ccc reconstructed from (mse, covariance) alone: 2*cov / (mse + 2*cov)."""
    mse_value = _real(mse_value, "mse", "nonnegative")  # a Python float: overflows silently
    cov = _real(cov, "cov")
    num = 2.0 * cov  # unhalved, so a subnormal mse keeps its last bit
    denom = mse_value + num
    if abs(denom) == math.inf:  # 2*cov or the sum overflows; a quarter of each term cannot
        num = 0.5 * cov
        denom = 0.25 * mse_value + num
    if denom == 0.0:
        raise Singularity("mse + 2*cov is exactly zero; ccc undefined")
    return num / denom


def envelope_kernel(t):
    """2t / (1 + t^2), the shared kernel of both envelopes.

    Each |t| >= 1 is written as s * 2**e with |s| in [0.5, 1), so t*t cannot
    overflow; the scaling is exact, so every value the plain formula computes
    without overflow keeps its bits.
    """
    t = _reals(t, "t")
    e = np.maximum(np.frexp(t)[1], 0)
    s = np.ldexp(t, -e)
    value = np.ldexp(2.0 * s / (np.ldexp(1.0, -2 * e) + s * s), -e)
    return float(value) if value.ndim == 0 else value


def upper_envelope(x):
    """Largest ccc attainable at normalized error level x >= 0."""
    return envelope_kernel(1.0 + _reals(x, "x", "nonnegative"))


def lower_envelope(x):
    """Smallest ccc attainable at normalized error level x >= 0."""
    return envelope_kernel(1.0 - _reals(x, "x", "nonnegative"))


@dataclass(frozen=True)
class CenteredGold:
    """A gold standard prepared once in the moment kernel's units: ``e``, ``mu``, ``var`` and
    ``a`` = gold / 2**e - mu from :func:`stats._gold_moments`, and ``var_g`` = var * 4**e > 0.
    ``mu_g``, ``sigma_g`` and ``centered`` = g_i - mu_g are unscaled on each read: the plain
    formula's bits wherever they are normal float64, and none lost to a subnormal var_g."""

    gold: np.ndarray
    e: int
    mu: float
    var: float
    a: np.ndarray
    var_g: float

    @property
    def n(self) -> int:
        return int(self.gold.size)

    @property
    def mu_g(self) -> float:
        return math.ldexp(self.mu, self.e)

    @property
    def sigma_g(self) -> float:
        return math.ldexp(math.sqrt(self.var), self.e)

    @property
    def centered(self) -> np.ndarray:
        return np.ldexp(self.a, self.e)


def center_gold(gold) -> CenteredGold:
    arr = as_sequence(gold, "gold")
    e, mu, var, a = _gold_moments(arr)
    var_g = _unscale(var, 2 * e, "var_g")
    if var_g == 0.0:
        raise DegenerateVariance("gold variance is zero in float64; bounds undefined")
    return CenteredGold(gold=arr, e=e, mu=mu, var=var, a=a, var_g=var_g)


@dataclass(frozen=True)
class MseBoundsResult:
    """ccc extremes at a fixed mse, with the error vectors that attain them."""

    x_param: float
    ccc_max: float
    ccc_min: float
    err_max: np.ndarray
    err_min: np.ndarray


def bounds_given_mse(gold: CenteredGold, mse_value: float) -> MseBoundsResult:
    """Constructive ccc range for a gold standard at a fixed mse.

    The extremes are attained by spreading the error budget in the same ratio
    as the gold's deviations from its mean: err = +-x * (g_i - mu_g) with
    x = sqrt(mse / var_g). The positive sign attains the maximum, the
    negative sign the minimum.
    """
    mse_value = _real(mse_value, "mse", "nonnegative")
    # sqrt(mse / var_g) from the mantissas of mse and var = var_g / 4**e, so the quotient
    # cannot overflow; the plain formula's bits wherever var_g and the quotient are normal
    (m_mse, e_mse), (m_var, e_var) = math.frexp(mse_value), math.frexp(gold.var)
    h = (e_mse - e_var - 2 * gold.e) >> 1
    m_x = math.sqrt(math.ldexp(m_mse / m_var, e_mse - e_var - 2 * (gold.e + h)))
    x = _unscale(m_x, h, "x")
    # err from x's mantissa before x is rounded, so a subnormal x costs err no bits;
    # x * a alone can overflow where err does not
    err = np.ldexp(m_x * gold.a, gold.e + h)
    return MseBoundsResult(
        x_param=x,
        ccc_max=float(upper_envelope(x)),
        ccc_min=float(lower_envelope(x)),
        err_max=err,
        err_min=-err,
    )


def mse_region_table(x_max: float, steps: int) -> np.ndarray:
    """Uniformly sampled envelope table: rows of (x, upper, lower).

    Deterministic row order; x runs linearly from 0 to x_max inclusive.
    """
    x_max = _real(x_max, "x_max", "nonnegative")
    steps = _count(steps, "steps", 2)
    _check_grid(3 * steps, "3 * steps")
    xs = np.linspace(0.0, x_max, steps)
    return np.column_stack([xs, upper_envelope(xs), lower_envelope(xs)])


def _check_grid(cells: int, what: str) -> None:
    """TooLarge naming ``what``, the grid's cell count, where it is past MAX_GRID_CELLS;
    called before the grid is allocated."""
    if cells > MAX_GRID_CELLS:
        raise TooLarge(f"{what} = {cells} grid cells, past the cap of {MAX_GRID_CELLS}")
