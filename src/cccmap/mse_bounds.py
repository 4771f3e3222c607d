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

from .errors import DegenerateVariance, InvalidInput, Singularity
from .stats import _mean_variance, _unscale, as_sequence, variance_identity_residual  # re-exported

#: Column names of the region table rows produced by :func:`mse_region_table`.
MSE_REGION_COLUMNS = ("x", "psi_upper", "psi_lower")


def ccc_from_mse_cov(mse_value: float, cov: float) -> float:
    """ccc reconstructed from (mse, covariance) alone: 2*cov / (mse + 2*cov)."""
    if not 0.0 <= mse_value < np.inf:
        raise InvalidInput(f"mse must be finite and nonnegative, got {mse_value}")
    half_denom = 0.5 * mse_value + cov  # halved, so 2*cov cannot overflow
    if half_denom == 0.0:
        raise Singularity("mse + 2*cov is exactly zero; ccc undefined")
    return float(cov / half_denom)


def envelope_kernel(t):
    """2t / (1 + t^2), the shared kernel of both envelopes.

    Each |t| >= 1 is written as s * 2**e with |s| in [0.5, 1), so t*t cannot
    overflow; the scaling is exact, so every value the plain formula computes
    without overflow keeps its bits.
    """
    t = np.asarray(t, dtype=np.float64)
    e = np.maximum(np.frexp(t)[1], 0)
    s = np.ldexp(t, -e)
    value = np.ldexp(2.0 * s / (np.ldexp(1.0, -2 * e) + s * s), -e)
    return float(value) if value.ndim == 0 else value


def upper_envelope(x):
    """Largest ccc attainable at normalized error level x >= 0."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x >= 0):
        raise InvalidInput("x must be nonnegative")
    return envelope_kernel(1.0 + x)


def lower_envelope(x):
    """Smallest ccc attainable at normalized error level x >= 0."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x >= 0):
        raise InvalidInput("x must be nonnegative")
    return envelope_kernel(1.0 - x)


@dataclass(frozen=True)
class CenteredGold:
    """A gold-standard sequence with its centering precomputed.

    ``centered`` holds g_i - mu_g and sums to zero; ``var_g`` is positive by
    construction (constant gold is rejected).
    """

    gold: np.ndarray
    centered: np.ndarray
    mu_g: float
    var_g: float

    @property
    def n(self) -> int:
        return int(self.gold.size)


def center_gold(gold) -> CenteredGold:
    arr = as_sequence(gold)
    mu, var_g = _mean_variance(arr, "var_g")
    if var_g == 0.0:
        raise DegenerateVariance("gold variance is zero in float64; bounds undefined")
    return CenteredGold(gold=arr, centered=arr - mu, mu_g=mu, var_g=var_g)


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
    if not 0.0 <= mse_value < np.inf:
        raise InvalidInput(f"mse must be finite and nonnegative, got {mse_value}")
    # sqrt(mse / var_g) from the mantissas, so the quotient cannot overflow; the
    # plain formula's bits wherever the quotient is a normal float64
    (m_mse, e_mse), (m_var, e_var) = math.frexp(mse_value), math.frexp(gold.var_g)
    h = (e_mse - e_var) >> 1
    x = _unscale(math.sqrt(math.ldexp(m_mse / m_var, e_mse - e_var - 2 * h)), h, "x")
    err = x * gold.centered
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
    if not x_max >= 0:
        raise InvalidInput("x_max must be nonnegative")
    if steps < 2:
        raise InvalidInput("steps must be at least 2")
    xs = np.linspace(0.0, x_max, steps)
    return np.column_stack([xs, upper_envelope(xs), lower_envelope(xs)])
