"""Population statistics and error norms for paired real sequences.

All moments divide by N (population convention, no Bessel correction) and come
from one two-pass kernel, :func:`_moments`. It scales each sequence, as the
error means scale x - y, by the power of two that brings its largest magnitude
into [0.5, 1). That rounds nothing, so results are the plain formulas' bit for
bit wherever those neither overflow nor underflow, and the ratios (``pearson``,
``ccc``, ...) hold for any finite float64 input unless their own value is below
the normal float64 range. ``mean`` and ``lp_norm`` scale their input the same
way; ``lp_norm`` can differ from the plain formula in the last bits when 1/p is
inexact, because its root is taken of a scaled sum. A reported statistic that
does not fit in float64 raises :class:`InvalidInput` naming it. Every function
is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, InvalidInput


def as_sequence(values) -> np.ndarray:
    """Validate and convert input to a 1-D float64 array of finite samples."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInput(f"expected a 1-D sequence, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidInput("sequence is empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("sequence contains NaN or Inf")
    return arr


def _as_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    xv, yv = as_sequence(x), as_sequence(y)
    if xv.size != yv.size:
        raise InvalidInput(f"length mismatch: {xv.size} vs {yv.size}")
    return xv, yv


def _exponent(v: np.ndarray) -> int:
    """The e with max |v_i| in [2**(e-1), 2**e); 0 when v is all zeros."""
    return math.frexp(max(v.max(), -v.min()))[1]


def _moments(xv: np.ndarray, yv: np.ndarray) -> tuple[int, int, float, float, float, float, float]:
    """(ex, ey, mu_x, mu_y, var_x, var_y, cov) of x / 2**ex and y / 2**ey, each array
    scaled by its own power of two: means in units of 2**ex and 2**ey, variances in
    4**ex and 4**ey, cov in 2**(ex + ey). At most two full-length buffers: x is
    centred in its scaled copy, which then holds products."""
    ex, ey = _exponent(xv), _exponent(yv)
    a = np.ldexp(xv, -ex)
    mu_x = a.mean()
    a -= mu_x
    b = a * a
    var_x = b.mean()
    if yv is xv:
        return ex, ex, float(mu_x), float(mu_x), float(var_x), float(var_x), float(var_x)
    np.ldexp(yv, -ey, out=b)
    mu_y = b.mean()
    b -= mu_y
    a *= b
    cov = a.mean()
    np.multiply(b, b, out=a)
    return ex, ey, float(mu_x), float(mu_y), float(var_x), float(a.mean()), float(cov)


def _ccc_denominator(ex, ey, mu_x, mu_y, var_x, var_y) -> tuple[int, float, float]:
    """(e, mu_x - mu_y, var_x + var_y + (mu_x - mu_y)**2) of :func:`_moments` output,
    in units of 2**e and 4**e for e = max(ex, ey)."""
    e = max(ex, ey)
    dmu = math.ldexp(mu_x, ex - e) - math.ldexp(mu_y, ey - e)
    return e, dmu, math.ldexp(var_x, 2 * (ex - e)) + math.ldexp(var_y, 2 * (ey - e)) + dmu**2


def _unscale(value: float, e: float, name: str) -> float:
    """value * 2**e; InvalidInput naming the statistic when that overflows float64."""
    whole = math.floor(e)
    try:
        return math.ldexp(value * 2.0 ** (e - whole), whole)
    except OverflowError:
        raise InvalidInput(f"{name} overflows float64") from None


def _pearson(var_x: float, var_y: float, cov: float) -> float:
    if var_x == 0.0 or var_y == 0.0:
        raise DegenerateVariance("pearson undefined for constant input")
    return min(1.0, max(-1.0, cov / math.sqrt(var_x * var_y)))  # clamp rounding spill past +-1


def _ccc(ex, ey, mu_x, mu_y, var_x, var_y, cov) -> float:
    if var_x == 0.0 and var_y == 0.0:
        raise DegenerateVariance("ccc undefined when both sequences are constant")
    if cov == 0.0:
        return 0.0
    e, _, denom = _ccc_denominator(ex, ey, mu_x, mu_y, var_x, var_y)
    return math.ldexp(2.0 * cov / denom, ex + ey - 2 * e)


def _mean_variance(arr: np.ndarray, name: str) -> tuple[float, float]:
    """(mean, variance) of a validated array; InvalidInput naming the variance on overflow."""
    e, _, mu, _, var, _, _ = _moments(arr, arr)
    return _unscale(mu, e, "mean"), _unscale(var, 2 * e, name)


def _scaled_errors(xv: np.ndarray, yv: np.ndarray) -> tuple[np.ndarray, int]:
    """(d, u) with x - y == d * 2**u elementwise, max |d_i| in [0.5, 1); exact where x - y is."""
    e = max(_exponent(xv), _exponent(yv))
    d = np.ldexp(xv, -e)
    d -= np.ldexp(yv, -e)
    u = _exponent(d)
    return np.ldexp(d, -u, out=d), e + u


def _error_mean(d: np.ndarray, u: float, k: float, name: str) -> float:
    """(1/N) sum |d_i|**k * 2**(k*u) for (d, u) from :func:`_scaled_errors`; overwrites d with |d|."""
    np.abs(d, out=d)
    return _unscale(float((d**k).mean()), k * u, name)


def _mean(arr: np.ndarray) -> float:
    """Mean of a validated array, summed at the power of two that cannot overflow."""
    e = _exponent(arr)
    return math.ldexp(float(np.ldexp(arr, -e).mean()), e)


def _power_mean(arr: np.ndarray, k: float, name: str) -> float:
    """(1/N) sum |arr_i|**k of a validated array; InvalidInput naming it on overflow."""
    e = _exponent(arr)
    return _error_mean(np.ldexp(arr, -e), e, k, name)


def mean(s) -> float:
    return _mean(as_sequence(s))


def population_variance(s) -> float:
    return _mean_variance(as_sequence(s), "variance")[1]


def covariance(x, y) -> float:
    ex, ey, *_, cov = _moments(*_as_pair(x, y))
    return _unscale(cov, ex + ey, "covariance")


def pearson(x, y) -> float:
    """Normalized covariance; both inputs must be nonconstant."""
    return _pearson(*_moments(*_as_pair(x, y))[4:])


def ccc(x, y) -> float:
    """Concordance correlation: 2*cov / (var_x + var_y + (mu_x - mu_y)^2).

    Penalizes departure from the identity line, unlike pearson. Returns
    exactly 0.0 when the covariance is zero and the denominator is positive.
    """
    return _ccc(*_moments(*_as_pair(x, y)))


def variance_identity_residual(x, y) -> float:
    """Left minus right of var_x + var_y + (mu_x-mu_y)^2 == mse + 2*cov.

    Zero in exact arithmetic; the float residual stays below 1e-12 relative.
    """
    return _identity_residual(*_as_pair(x, y))


def _identity_residual(xv: np.ndarray, yv: np.ndarray) -> float:
    ex, ey, mu_x, mu_y, var_x, var_y, cov = _moments(xv, yv)
    e, _, left = _ccc_denominator(ex, ey, mu_x, mu_y, var_x, var_y)
    d, u = _scaled_errors(xv, yv)
    right = _error_mean(d, u - e, 2, "mse") + 2.0 * math.ldexp(cov, ex + ey - 2 * e)
    return _unscale(left - right, 2 * e, "variance identity residual")


def _lp_norm(arr: np.ndarray, p: float):
    """(sum |arr_i|^p)^(1/p) along the last axis, unvalidated and unscaled."""
    return np.sum(np.abs(arr) ** p, axis=-1) ** (1.0 / p)


def lp_norm(e, p: float) -> float:
    """(sum |e_i|^p)^(1/p) for finite p > 0, computed on e scaled by the power of
    two that brings max |e_i| into [0.5, 1), so that the largest |e_i|^p neither
    overflows nor underflows; InvalidInput when the norm exceeds float64."""
    arr = as_sequence(e)
    if not 0.0 < p < math.inf:
        raise InvalidInput(f"p must be finite and positive, got {p}")
    u = _exponent(arr)
    return _unscale(float(_lp_norm(np.ldexp(arr, -u), p)), u, "lp_norm")


def mse(x, y) -> float:
    return _error_mean(*_scaled_errors(*_as_pair(x, y)), 2, "mse")


def mae(x, y) -> float:
    return _error_mean(*_scaled_errors(*_as_pair(x, y)), 1, "mae")


def mke(x, y, k: float) -> float:
    """Mean k-powered error: (1/N) sum |x_i - y_i|^k; k=2 gives mse, k=1 mae."""
    xv, yv = _as_pair(x, y)
    if not 0.0 < k < math.inf:
        raise InvalidInput(f"k must be finite and positive, got {k}")
    return _error_mean(*_scaled_errors(xv, yv), k, "mke")


@dataclass(frozen=True)
class PairStats:
    """All pairwise population statistics of two equal-length sequences."""

    n: int
    mu_x: float
    mu_y: float
    var_x: float
    var_y: float
    cov_xy: float
    pearson: float
    c_b: float
    ccc: float
    mse: float
    mae: float
    shift_penalty: float
    scale_penalty: float


def pair_stats(x, y) -> PairStats:
    """Compute the full statistics block; requires both sequences nonconstant.

    Raises InvalidInput naming the first reported statistic that overflows float64.
    """
    xv, yv = _as_pair(x, y)
    ex, ey, mu_x, mu_y, var_x, var_y, cov = _moments(xv, yv)
    if var_x == 0.0 or var_y == 0.0:
        raise DegenerateVariance("pair statistics need nonconstant sequences")
    e, dmu, denom = _ccc_denominator(ex, ey, mu_x, mu_y, var_x, var_y)
    sig_x, sig_y = math.sqrt(var_x), math.sqrt(var_y)
    h = (ex + ey) >> 1  # sig_x * sig_y is in units of 2**(ex + ey), its root in 2**h
    root = math.sqrt(math.ldexp(sig_x * sig_y, ex + ey - 2 * h))
    d, u = _scaled_errors(xv, yv)
    return PairStats(
        n=int(xv.size),
        mu_x=_unscale(mu_x, ex, "mu_x"),
        mu_y=_unscale(mu_y, ey, "mu_y"),
        var_x=_unscale(var_x, 2 * ex, "var_x"),
        var_y=_unscale(var_y, 2 * ey, "var_y"),
        cov_xy=_unscale(cov, ex + ey, "cov_xy"),
        pearson=_pearson(var_x, var_y, cov),
        c_b=math.ldexp(2.0 * sig_x * sig_y / denom, ex + ey - 2 * e),
        ccc=_ccc(ex, ey, mu_x, mu_y, var_x, var_y, cov),
        mse=_error_mean(d, u, 2, "mse"),
        mae=_error_mean(d, u, 1, "mae"),
        shift_penalty=_unscale(dmu / root, e - h, "shift_penalty"),
        scale_penalty=_unscale(sig_x / sig_y, ex - ey, "scale_penalty"),
    )
