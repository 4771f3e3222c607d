"""ccc envelopes at a fixed L_k error norm, via the norm sandwich.

For 0 < r < p the Holder-derived sandwich  L_p <= L_r <= N^((p-r)/(pr)) L_p
pins sqrt(mse) = L_2/sqrt(N) inside a band once L_k is fixed:

    rmse_min <= sqrt(mse) = theta * rmse_min <= rmse_max = theta_max * rmse_min

with theta_max = N^(|k-2|/(2k)). On the normalized axis x = rmse_min/sigma_g
the attainable ccc is bounded above by upper_envelope(x) and below by the
family lower_envelope(theta*x), theta in [1, theta_max], whose pointwise
minimum is the piecewise curve implemented in :func:`envelope_given_lk`.
These are outer bounds: the span actually reachable for a concrete gold
standard is strictly smaller in general.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import InvalidInput, NoConjugate
from .mse_bounds import lower_envelope, mse_region_table, upper_envelope
from .stats import as_sequence, lp_norm


def norm_sandwich(e, r: float, p: float) -> tuple[float, float, float]:
    """Return (L_p, L_r, N^((p-r)/(pr)) * L_p) for 0 < r < p.

    The middle value always lies between the outer two. The upper bound is
    tight for constant-magnitude vectors, the lower for single-spike vectors.
    """
    arr = as_sequence(e)
    if not (0 < r < p):
        raise InvalidInput(f"need 0 < r < p, got r={r}, p={p}")
    n = arr.size
    lo = lp_norm(arr, p)
    mid = lp_norm(arr, r)
    hi = n ** ((p - r) / (p * r)) * lo
    return lo, mid, hi


@dataclass(frozen=True)
class RmseBand:
    """Feasible band of sqrt(mse) values at a fixed L_k norm of N errors."""

    k: float
    n: int
    theta_min: float
    theta_max: float
    rmse_min: float
    rmse_max: float


def theta_band(k: float, n: int, lk: float) -> RmseBand:
    """Band parameters at fixed L_k; theta_max = n^(|k-2|/(2k)), 1 when k = 2.

    For k >= 2 the band floor is L_k/sqrt(N); for 0 < k <= 2 it is
    L_k/N^(1/k). The two branches coincide at k = 2.
    """
    if not 0.0 < k < inf:
        raise InvalidInput(f"k must be finite and positive, got {k}")
    if n < 1:
        raise InvalidInput(f"n must be at least 1, got {n}")
    if not 0.0 <= lk < inf:
        raise InvalidInput(f"lk must be finite and nonnegative, got {lk}")
    try:
        theta_max = float(n) ** (abs(k - 2.0) / (2.0 * k))
        rmse_min = lk / (np.sqrt(n) if k >= 2 else float(n) ** (1.0 / k))
    except OverflowError:
        raise InvalidInput(f"band at k={k}, n={n} overflows float64") from None
    return RmseBand(
        k=k,
        n=n,
        theta_min=1.0,
        theta_max=float(theta_max),
        rmse_min=float(rmse_min),
        rmse_max=float(theta_max * rmse_min),
    )


@dataclass(frozen=True)
class LkEnvelope:
    """ccc envelope data at one normalized abscissa x for a fixed L_k.

    ``ccc_lower`` is the pointwise minimum over all admissible band positions
    (the piecewise outer bound); ``ccc_lower_at_theta`` is the single family
    member evaluated at the requested theta. ``theta_at_min`` = 2/x is the
    band position at which the lower envelope bottoms out at -1 (infinite
    when x = 0).
    """

    x: float
    theta: float
    theta_max: float
    ccc_upper: float
    ccc_lower: float
    ccc_lower_at_theta: float
    theta_at_min: float


def envelope_given_lk(
    k: float, n: int, lk: float, sigma_g: float, theta: float = 1.0
) -> LkEnvelope:
    """Outer ccc bounds at fixed L_k for a gold standard with deviation sigma_g.

    x = L_k/(sqrt(N) sigma_g) for k >= 2, L_k/(N^(1/k) sigma_g) for k <= 2.
    The lower bound over all theta is:

        lower_envelope(theta_max * x)   for x <= 2/theta_max,
        -1 (attained at theta = 2/x)    for 2/theta_max <= x <= 2,
        lower_envelope(x)               for x >= 2.
    """
    if not sigma_g > 0:
        raise InvalidInput(f"sigma_g must be positive, got {sigma_g}")
    band = theta_band(k, n, lk)
    slack = 1.0 + 1e-12
    if not (1.0 / slack <= theta <= band.theta_max * slack):
        raise InvalidInput(
            f"theta={theta} outside [1, {band.theta_max}] for k={k}, n={n}"
        )
    x = band.rmse_min / sigma_g
    return LkEnvelope(
        x=float(x),
        theta=float(theta),
        theta_max=band.theta_max,
        ccc_upper=float(upper_envelope(x)),
        ccc_lower=float(_piecewise_lower(x, band.theta_max)),
        ccc_lower_at_theta=float(lower_envelope(theta * x)),
        theta_at_min=2.0 / x if x > 0 else inf,
    )


def _piecewise_lower(x, theta_max: float):
    """min over theta in [1, theta_max] of lower_envelope(theta * x), elementwise."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(
        x <= 2.0 / theta_max,
        lower_envelope(theta_max * x),
        np.where(x <= 2.0, -1.0, lower_envelope(x)),
    )


def conjugate_theta(theta1: float, x: float) -> float:
    """The other band position with the same lower-envelope value at x.

    lower_envelope(theta*x) takes each negative value twice; the two
    preimages satisfy theta2 = theta1 / (x*theta1 - 1), an involution with
    fixed point theta = 2/x. Only defined for x*theta1 > 1 (the negative
    branch); elsewhere the partner does not exist and NoConjugate is raised.
    """
    if not theta1 > 0:
        raise InvalidInput(f"theta1 must be positive, got {theta1}")
    if not x > 0:
        raise InvalidInput(f"x must be positive, got {x}")
    if x * theta1 <= 1.0:
        raise NoConjugate(
            f"x*theta1 = {x * theta1} <= 1: envelope value is nonnegative, "
            "no conjugate exists"
        )
    return float(theta1 / (x * theta1 - 1.0))


def theta_grid(theta_max: float, theta_steps: int) -> np.ndarray:
    """Geometric grid from 1 to theta_max inclusive (collapses when theta_max=1)."""
    if theta_steps < 1:
        raise InvalidInput("theta_steps must be at least 1")
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
    mse_rows = mse_region_table(x_max, steps)
    xs = mse_rows[:, 0]
    band = theta_band(k, n, lk=1.0)
    thetas = theta_grid(band.theta_max, theta_steps)
    family = np.column_stack([lower_envelope(t * xs) for t in thetas])
    rows = np.column_stack([mse_rows[:, :2], _piecewise_lower(xs, band.theta_max), family])
    return rows, thetas


def lk_region_columns(thetas: np.ndarray) -> tuple[str, ...]:
    """Header names matching :func:`lk_region_table` rows."""
    return ("x", "psi_upper", "psi_lower") + tuple(
        f"psi_lower_theta={format(t, '.17g')}" for t in thetas
    )
