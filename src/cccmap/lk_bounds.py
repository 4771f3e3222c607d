"""ccc envelopes at a fixed L_k error norm, via the norm sandwich.

For 0 < r < p the Holder-derived sandwich  L_p <= L_r <= N^((p-r)/(pr)) L_p
pins sqrt(mse) = L_2/sqrt(N) inside a band once L_k is fixed:

    rmse_min <= sqrt(mse) = theta * rmse_min <= rmse_max = theta_max * rmse_min

with theta_max = N^(|k-2|/(2k)). On the normalized axis x = rmse_min/sigma_g
the attainable ccc is bounded above by upper_envelope(x) and below by the
family lower_envelope(theta*x), theta in [1, theta_max] (:func:`lower_family`),
whose pointwise minimum is the piecewise curve of :func:`envelope_given_lk`.
These are outer bounds: the span actually reachable for a concrete gold
standard is strictly smaller in general.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import frexp, inf, sqrt

import numpy as np

from .errors import InvalidInput, NoConjugate
from .mse_bounds import _check_grid, lower_envelope, mse_region_table, upper_envelope
from .stats import _count, _real, _reals, _unscale, as_sequence, lp_norm


def norm_sandwich(e, r: float, p: float) -> tuple[float, float, float]:
    """Return (L_p, L_r, N^((p-r)/(pr)) * L_p) for 0 < r < p.

    The middle value lies between the outer two within a relative 1e-12: rounding may
    leave a tight bound just past it (``norm_sandwich([1, 1, 1], 1, 2)`` gives hi
    2.9999999999999996, mid 3.0). The upper bound is tight for constant-magnitude
    vectors, the lower for single-spike vectors.
    """
    arr = as_sequence(e, "e")
    r, p = _real(r, "r", "positive"), _real(p, "p", "positive")
    if not r < p:
        raise InvalidInput(f"need 0 < r < p, got r={r}, p={p}")
    n = arr.size
    lo = lp_norm(arr, p)
    mid = lp_norm(arr, r)
    try:
        hi = n ** ((p - r) / p / r) * lo if lo else 0.0  # p * r may overflow
    except OverflowError:  # the factor alone leaves float64
        hi = inf
    if hi == inf:
        raise InvalidInput(f"upper bound N^((p-r)/(pr)) * L_p overflows float64 at N={n}, r={r}, p={p}")
    return lo, mid, hi


@dataclass(frozen=True)
class RmseBand:
    """Feasible band of sqrt(mse) values at a fixed L_k norm of N errors."""

    theta_min: float
    theta_max: float
    rmse_min: float
    rmse_max: float


def theta_band(k: float, n: int, lk: float) -> RmseBand:
    """Band parameters at fixed L_k; theta_max = n^(|k-2|/(2k)), 1 when k = 2.

    For k >= 2 the band floor is L_k/sqrt(N); for 0 < k <= 2 it is
    L_k/N^(1/k). The two branches coincide at k = 2.
    """
    k, n = _real(k, "k", "positive"), _count(n, "n", 1)
    lk = _real(lk, "lk", "nonnegative")
    try:
        theta_max = float(n) ** (abs(k - 2.0) / k * 0.5)  # not / (2 * k): 2k overflows past 9e307
        if theta_max == inf:  # the exponent is inf below k = 1.1e-308, and pow raises nothing
            raise OverflowError
        rmse_min = lk / (sqrt(n) if k >= 2 else float(n) ** (1.0 / k))
    except OverflowError:
        raise InvalidInput(f"band at k={k}, n={n} overflows float64") from None
    return RmseBand(
        theta_min=1.0,
        theta_max=float(theta_max),
        rmse_min=float(rmse_min),
        rmse_max=float(theta_max * rmse_min),
    )


@dataclass(frozen=True)
class LkEnvelope:
    """ccc envelope data at one normalized abscissa x for a fixed L_k.

    ``ccc_lower`` is the pointwise minimum over all admissible band positions
    (the piecewise outer bound); one family member, lower_envelope(theta * x),
    is :func:`lower_family`'s, and the band's theta_max is :func:`theta_band`'s.
    ``theta_at_min`` = 2/x is the band position at which the lower envelope
    bottoms out at -1 (infinite when x = 0).
    """

    x: float
    ccc_upper: float
    ccc_lower: float
    theta_at_min: float


def envelope_given_lk(k: float, n: int, lk: float, sigma_g: float) -> LkEnvelope:
    """Outer ccc bounds at fixed L_k for a gold standard with deviation sigma_g.

    x = L_k/(sqrt(N) sigma_g) for k >= 2, L_k/(N^(1/k) sigma_g) for k <= 2.
    The lower bound over all theta is:

        lower_envelope(theta_max * x)   for x <= 2/theta_max,
        -1 (attained at theta = 2/x)    for 2/theta_max <= x <= 2,
        lower_envelope(x)               for x >= 2.
    """
    sigma_g = _real(sigma_g, "sigma_g", "positive")
    band = theta_band(k, n, lk)
    # from the mantissas of lk and sigma_g, so a band floor below the normal range costs no bits
    (m_lk, e_lk), (m_s, e_s) = frexp(lk), frexp(sigma_g)
    x = _unscale(theta_band(k, n, m_lk).rmse_min / m_s, e_lk - e_s, "x")
    return LkEnvelope(
        x=float(x),
        ccc_upper=float(upper_envelope(x)),
        ccc_lower=float(_piecewise_lower(x, band.theta_max)),
        theta_at_min=_unscale(2.0 / x, 0, "theta_at_min") if x > 0 else inf,
    )


def _piecewise_lower(x, theta_max: float):
    """min over theta in [1, theta_max] of lower_envelope(theta * x), elementwise."""
    return np.where(
        x <= 2.0 / theta_max,
        lower_envelope(theta_max * np.minimum(x, 2.0 / theta_max)),  # finite where unused
        np.where(x <= 2.0, -1.0, lower_envelope(x)),
    )


def conjugate_theta(theta1: float, x: float) -> float:
    """The other band position with the same lower-envelope value at x.

    lower_envelope(theta*x) takes each negative value twice; the two
    preimages satisfy theta2 = theta1 / (x*theta1 - 1), an involution with
    fixed point theta = 2/x. Only defined for x*theta1 > 1 (the negative
    branch); elsewhere the partner does not exist and NoConjugate is raised.
    """
    theta1, x = _real(theta1, "theta1", "positive"), _real(x, "x", "positive")
    product = x * theta1
    if product <= 1.0:
        raise NoConjugate(
            f"x*theta1 = {product} <= 1: envelope value is nonnegative, "
            "no conjugate exists"
        )
    if product < inf:
        return float(theta1 / (product - 1.0))
    m, e = frexp(theta1)  # x*theta1 overflows: theta2 = m / (x*m - 2**-e), theta1 = m 2**e
    return float(m / (x * m - 2.0**-e))


def theta_grid(theta_max: float, theta_steps: int) -> np.ndarray:
    """Geometric grid from 1 to theta_max inclusive (collapses when theta_max=1)."""
    theta_max = _real(theta_max, "theta_max", "positive")
    theta_steps = _count(theta_steps, "theta_steps", 1)
    _check_grid(theta_steps, "theta_steps")
    if theta_max == 1.0 or theta_steps == 1:
        return np.ones(theta_steps, dtype=np.float64)
    return np.geomspace(1.0, theta_max, theta_steps)


def lk_region_table(
    k: float, n: int, x_max: float, steps: int, theta_steps: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """Envelope family table for plotting: one row per x.

    Returns (rows, thetas). Row layout: x, upper, piecewise lower, then
    lower_envelope(theta_j * x) for each theta_j on a geometric grid between
    1 and theta_max. At k = 2 the family collapses onto the single mse curve.
    """
    cells = _count(steps, "steps", 2) * (3 + _count(theta_steps, "theta_steps", 1))
    _check_grid(cells, "steps * (3 + theta_steps)")
    mse_rows = mse_region_table(x_max, steps)
    xs = mse_rows[:, 0]
    band = theta_band(k, n, lk=1.0)
    thetas = theta_grid(band.theta_max, theta_steps)
    family = lower_family(xs, thetas, "x_max")
    rows = np.column_stack([mse_rows[:, :2], _piecewise_lower(xs, band.theta_max), family])
    return rows, thetas


def lower_family(x, thetas: np.ndarray, name: str = "x") -> np.ndarray:
    """lower_envelope(theta_j * x) for each theta_j of a :func:`theta_grid` and each x >= 0
    (a row per x, a column per theta); InvalidInput naming the largest x when its product
    with the largest theta leaves float64."""
    x, thetas = _reals(x, name, "nonnegative"), _reals(thetas, "thetas", "positive")
    theta_max, x_max = float(np.max(thetas, initial=0.0)), float(np.max(x, initial=0.0))
    if theta_max * x_max == inf:
        raise InvalidInput(
            f"{name} must be at most {np.finfo(np.float64).max / theta_max:.17g} at "
            f"theta_max={theta_max:.17g}, got {x_max:.17g}"
        )
    return lower_envelope(np.multiply.outer(x, thetas))


def lk_region_columns(thetas: np.ndarray) -> tuple[str, ...]:
    """Header names matching :func:`lk_region_table` rows."""
    return ("x", "psi_upper", "psi_lower") + tuple(
        f"psi_lower_theta={format(t, '.17g')}" for t in thetas
    )
