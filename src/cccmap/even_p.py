"""ccc extremization at a fixed L_k error norm for even k, from the structure of the
stationarity system of the constrained ratio objective.

The quantity to extremize is f(d) = cov(G, G+d) / mse(d) = (var_g + s_gd)/mse on the
sphere sum(d_i^k) = lk^k (k even), because ccc is monotone increasing in f. At every
constrained stationary point the residual d_i (P d_i^(k-1) - Q d_i + yz_i) vanishes,
with P = (2 var_g + s_gd)/MkE and Q = 2 (var_g + s_gd)/MSE. At k = 2 it is solved by
d = +-lk yz / |yz|_2, the constructive mse-bound vectors.

For k >= 4, P and Q are shared by every coordinate. With d_i = sigma sign(yz_i) c u_i,
sigma = +1 for the maximum and -1 for the minimum, u_i >= 0 and c = lk / |u|_k, each
u_i solves a fixed shape in t_i = |yz_i| / H: the hump (k-1) u - u^(k-1) = (k-2) t
(an inner root u <= 1 or an outer one u >= 1), mono u^(k-1) + u = t, or dip
u^(k-1) - u = t, u >= 1; and H solves the one equation P MkE = 2 var_g + s_gd. At the
extremum |d| is sorted like |yz|, so at most one coordinate, the first with the largest
|yz|, takes the outer root: four plans, each a bracketed 1-D root-find in H. The root
with the best objective among those within the residual tolerance is the extremum.

The solve runs in the gold's units (``CenteredGold``) and holds d as its largest
magnitude times a vector whose largest entry is 1, so it forms no power of lk or d:
its solution scales with the gold and lk by a power of two bit for bit, and a
reported quantity outside float64 raises InvalidInput naming it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import InvalidInput, NotConverged
from .mse_bounds import ccc_from_mse_cov
from .stats import CenteredGold, _count, _instance, _lp_norm, _real, as_sequence
from .tolerances import TOL

@dataclass(frozen=True)
class StationarityProblem:
    """Extremize ccc at fixed L_k (k even) for a centered gold standard."""

    gold: CenteredGold
    k: int
    lk: float
    objective: Literal["max", "min"]

    def __post_init__(self):
        _instance(self.gold, CenteredGold, "gold")
        if _count(self.k, "k", 2) % 2 != 0:
            raise InvalidInput(f"k must be an even integer >= 2, got {self.k}")
        _real(self.lk, "lk", "positive")
        if self.objective not in ("max", "min"):
            raise InvalidInput(f"objective must be 'max' or 'min', got {self.objective}")


def _residual(a: np.ndarray, k: int, x: np.ndarray, var: float, m: float):
    """(residual, scale, s, m2) of d = m x, max |x_i| = 1, against a centred gold ``a`` of
    variance var, in units of w = max(m, 1), so that no term overflows: the residual / w;
    scale, the largest of its terms' magnitudes 2 var, m |s| and m max |a_i x_i|, over w;
    s = s_gd / m and m2 = mse / m**2."""
    n, w = x.size, max(m, 1.0)
    xk, x2, ax = x**k, x * x, a * x
    m2, mk = float(np.add.reduce(x2)) / n, float(np.add.reduce(xk)) / n
    rk, r2 = xk / mk, x2 / m2
    s, vw, mw = float(np.add.reduce(ax)) / n, var / w, min(m, 1.0)
    res = 2.0 * vw * (rk - r2) + mw * (s * (rk - 2.0 * r2) + ax)
    return res, max(2.0 * vw, mw * abs(s), mw * float(np.max(np.abs(ax)))), s, m2


def scaled_residual(prob: StationarityProblem, d) -> float:
    """Max |residual| over the largest magnitude of its terms (2 var_g, |s_gd| and
    max |yz_i d_i|), from :func:`_residual` in the gold's units, so it does not move with them."""
    dv, gold = as_sequence(d, "d"), _instance(prob, StationarityProblem, "prob").gold
    if dv.size != gold.n:
        raise InvalidInput(f"length mismatch: d {dv.size} vs gold {gold.n}")
    if not dv.any():
        raise InvalidInput("d is a zero error vector, which has no defined residual")
    top = float(np.max(np.abs(dv)))
    with np.errstate(over="ignore"):  # an m past float64 weighs as inf does
        m = float(np.ldexp(top, -gold.e))
    res, scale, *_ = _residual(gold.a, prob.k, dv / top, gold.var, m)
    return float(np.max(np.abs(res))) / scale


@dataclass(frozen=True, eq=False)
class SolverState:
    """Converged (or best-found) iterate of :func:`solve`."""

    d: np.ndarray
    multiplier: float
    sigma_gd: float
    objective_value: float
    residual_norm: float
    ccc_value: float
    iterations: int


def _shape_roots(shape: str, k: int, t: np.ndarray, outer: int | None) -> np.ndarray:
    """u >= 0 solving ``shape`` at every t (on the hump t <= 1, the inner root, and the
    outer one at index ``outer`` of the last axis). Each shape is monotone and concave
    (hump) or convex (mono, dip) on its branch, so Newton's method started at a bound on
    the root, on the side its steps do not overshoot, approaches it monotonically."""
    if shape == "hump":
        alpha, beta, gamma = -1.0, k - 1.0, k - 2.0
        # on [0, 1] the hump is below (k-1) u and (k-2) (1 - (1-u)^2)
        u = np.maximum(t * (gamma / beta), 1.0 - np.sqrt(1.0 - t))
        if outer is not None:  # on u >= 1 it is below (k-2) - (k-1) (k-2) (u-1)^2 / 2
            bound = 1.0 + np.sqrt(2.0 * (1.0 - t[..., outer]) / (k - 1))
            u[..., outer] = np.minimum((k - 1.0) ** (1.0 / (k - 2)), bound)
    elif shape == "mono":
        alpha, beta, gamma = 1.0, 1.0, 1.0
        u = np.minimum(t, t ** (1.0 / (k - 1)))
    else:  # the dip has slope k-2 at u = 1, and u^(k-1) = t + u
        alpha, beta, gamma = 1.0, -1.0, 1.0
        u = np.minimum(1.0 + t / (k - 2), (1.0 + t * (k - 1) / (k - 2)) ** (1.0 / (k - 1)))
    step, target = np.zeros_like(u), gamma * t
    for _ in range(100):
        p = alpha * u ** (k - 2)
        slope = (k - 1) * p + beta  # 0 only at the hump's double root u = 1, where t = 1
        np.divide((p + beta) * u - target, slope, out=step, where=slope != 0.0)
        u -= step
        if np.all(np.abs(step) <= 2.0**-50 * u):
            break
    return u


def _bracketed_root(fun, x1: float, g1: float, x2: float, g2: float, max_iters: int):
    """(x, evaluations): a root of a function continuous on [x1, x2], whose end values
    g1 and g2 have opposite signs, to a few ulps of x by Chandrupatla's method: inverse
    quadratic interpolation where the last three points allow it, else bisection. An
    end at x = 0 may hold a limit: it is never returned."""
    if g1 == 0.0:
        return x1, 0
    t, best = 0.5, x1
    for it in range(1, max_iters + 1):
        xt = x1 + t * (x2 - x1)
        gt = fun(xt)
        x3, g3 = x1, g1
        if (gt > 0.0) != (g1 > 0.0):
            x3, g3, x2, g2 = x2, g2, x1, g1
        x1, g1 = xt, gt
        best, gm = (x1, g1) if abs(g1) < abs(g2) or x2 == 0.0 else (x2, g2)
        width, tol = abs(x2 - x1), 2.0**-51 * abs(best) + 2.0**-1000
        if gm == 0.0 or width < tol:
            return best, it
        xi, phi, t = (x1 - x2) / (x3 - x2), (g1 - g2) / (g3 - g2), 0.5
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = g1 / (g2 - g1) * g3 / (g2 - g3)
            t += (x3 - x1) / (x2 - x1) * g1 / (g3 - g1) * g2 / (g3 - g2)
        t = min(1.0 - 0.5 * tol / width, max(0.5 * tol / width, t))
    return best, max_iters


def _plan_roots(a: np.ndarray, var: float, k: int, lk: float, sigma: float, max_iters: int):
    """[(u, iterations)] for every root of every plan, in the gold's units.

    With y = |a| / max |a|, t = tau y and rho = 2 var / (lk max |a|), a plan's equation
    is Phi(tau) = S |u|_k^(k-1) / (w n) - tau (sigma mean(y u) / |u|_k + rho) = 0, with
    S = sigma and w = k-2 on the hump, S = -sigma and w = 1 otherwise. The root-finds run
    on Phi / tau^b (b = 0 below tau = 1 for dip and the hump with an outer root, 1
    otherwise), whose limits at tau -> 0 and, for mono and dip, tau -> inf are known, and
    every plan's ends bracket its roots but one: where 3 or more |yz| (nearly) tie at the
    top, the outer root turns the hump's curve back near tau = 1. So that plan is also
    sampled evenly in (1 - tau)^(1/2). That these fixed points bracket every root that
    can win is observed, not proven.

    That some root is found is proven: neighbouring points bracket one unless fa * fb > 0
    (a NaN or 0 product counts), so a plan whose ends differ in sign has one. For the
    maximum the two hump plans start with opposite signs (``near`` < 0 < the outer root's
    limit) and share their value at tau = 1; for the minimum so do they when ``near`` > 0,
    else mono (``near`` <= 0 against ``far``) or dip (its start > 0 against ``far`` < 0) does.
    """
    n = a.size
    ay = np.abs(a)
    outer = int(np.argmax(ay))
    y = ay / ay[outer]
    rho = 2.0 * var / (lk * float(ay[outer]))

    def value(plan, tau):
        """Phi / tau^b at a float tau, or along an array of them."""
        tau = np.asarray(tau, dtype=float)
        u = _shape_roots(plan[0], k, tau[..., None] * y, outer if plan[1] else None)
        norm = _lp_norm(u, k)
        b = np.where((tau < 1.0) & (plan in (("hump", True), ("dip", False))), 0.0, 1.0)
        s, w = (sigma, k - 2.0) if plan[0] == "hump" else (-sigma, 1.0)
        # the base stays O(1) on every branch, so the power cannot overflow
        head = s * (norm * tau ** (-b / (k - 1))) ** (k - 1) / (w * n)
        return (head - tau ** (1.0 - b) * (sigma * (u @ y) / (n * norm) + rho)).tolist()

    # t -> 0: hump and mono u ~ t, the outer root -> (k-1)^(1/(k-2)) and dip u -> 1;
    # t -> inf: mono and dip u ~ t^(1/(k-1))
    near = -sigma * float(y @ y) / (n * float(_lp_norm(y, k))) - rho
    y1 = y ** (1.0 / (k - 1))
    far = -2.0 * sigma * float(y @ y1) / (n * float(_lp_norm(y1, k))) - rho
    # at tau = 1 both hump plans have u = 1 at the largest |yz|
    one = {shape: value((shape, False), 1.0) for shape in ("hump", "mono", "dip")}
    scan = 1.0 - np.linspace(1.0, 0.0, 17)[1:-1] ** 2
    samples = {  # plan (shape, whether the first largest |yz| takes the outer hump root):
        # (tau, Phi / tau^b) in increasing tau, with the limits at 0 and inf
        ("hump", False): [(0.0, near), (1.0, one["hump"])],
        ("hump", True): [(0.0, sigma * (k - 1.0) ** ((k - 1.0) / (k - 2)) / ((k - 2.0) * n))]
        + list(zip(scan.tolist(), value(("hump", True), scan))) + [(1.0, one["hump"])],
        ("mono", False): [(0.0, near), (1.0, one["mono"]), (math.inf, far)],
        ("dip", False): [(0.0, -sigma * n ** (-1.0 / k)), (1.0, one["dip"]), (math.inf, far)],
    }
    roots = []
    for plan, points in samples.items():
        on = functools.partial(value, plan)
        for (ta, fa), (tb, fb) in zip(points, points[1:]):
            if fa * fb > 0.0:
                continue
            if tb <= 1.0:
                tau, it = _bracketed_root(on, tb, fb, ta, fa, max_iters)
            else:  # in 1 / tau, which holds the limit tau -> inf at 0
                x, it = _bracketed_root(lambda x: on(1 / x), 1 / ta, fa, 1 / tb, fb, max_iters)
                tau = 1.0 / x
            roots.append((_shape_roots(plan[0], k, tau * y, outer if plan[1] else None), it))
    return roots


def _field(name: str, value: float, e: int) -> float:
    """value * 2**e; InvalidInput naming the field unless that is 0 or a normal float64."""
    try:
        out = math.ldexp(value, e)
    except OverflowError:
        out = math.inf
    if out == value == 0.0 or sys.float_info.min <= abs(out) < math.inf:
        return out
    raise InvalidInput(f"{name} leaves float64 at this gold and lk")


def _state(prob: StationarityProblem, m: float, x: np.ndarray, s: float, m2: float, it: int):
    """The state of d = m x * 2**e, m in the gold's units and max |x_i| = 1, with s and
    m2 from :func:`_residual`."""
    gold, k, v = prob.gold, prob.k, prob.gold.var / m
    mm, f = math.frexp(m)
    d = np.ldexp(mm * x, min(f + gold.e, 1024))  # |mm x| < 1: finite
    if f + gold.e > 1024 or not np.all((np.abs(d) >= sys.float_info.min) | (x == 0.0)):
        raise InvalidInput("d leaves float64 at this gold and lk")
    objective = _field("objective_value", (v + s) / (m2 * mm), -f)
    # multiplier = -(2 var_g + s_gd) / (k mse lk^k): lk^k by squaring, with the exponent
    # kept apart so that no step overflows or underflows
    (b, eb), pk, ek, j = math.frexp(prob.lk), 1.0, 0, k
    while j:
        if j & 1:
            pk, e = math.frexp(pk * b)
            ek += e + eb
        (b, e), j = math.frexp(b * b), j >> 1
        eb = 2 * eb + e
    return SolverState(
        d=d,
        multiplier=_field("multiplier", -(2.0 * v + s) / (k * m2 * mm * pk), -f - ek),
        sigma_gd=_field("sigma_gd", mm * s, f + 2 * gold.e),
        objective_value=objective,
        residual_norm=scaled_residual(prob, d),
        ccc_value=ccc_from_mse_cov(1.0, objective),
        iterations=it,
    )


def solve(prob: StationarityProblem, seed: int, max_iters: int = 400) -> SolverState:
    """Extremum of ccc on the L_k sphere, from the stationarity structure.

    k = 2 takes the closed form. For k >= 4 each root of each plan is found by a
    root-find of at most ``max_iters`` iterations, and the one with the best objective
    among those within the residual tolerance is kept; ``iterations`` counts its
    root-find's. The solve draws no random numbers: ``seed`` is validated and otherwise
    unused. Raises InvalidInput when ``seed`` is not a nonnegative integer or ``max_iters``
    not a positive one, or a reported quantity leaves float64; NotConverged, with the best
    root's state, when no root meets the residual tolerance.
    """
    _count(seed, "seed", 0)
    max_iters = _count(max_iters, "max_iters", 1)
    gold, k = _instance(prob, StationarityProblem, "prob").gold, prob.k
    sigma = 1.0 if prob.objective == "max" else -1.0
    # the objective scales as (gold / lk)**2: out of range when lk / 2**e is
    lk = _field("objective_value", prob.lk, -gold.e)
    roots = ([(np.abs(gold.a), 0)] if k == 2
             else _plan_roots(gold.a, gold.var, k, lk, sigma, max_iters))
    signs = np.where(gold.a < 0.0, -sigma, sigma)
    ranked = []  # ((converged, signed objective), m, x, s, m2, iterations), gold's units
    for u, it in roots:
        top = float(u.max())
        m, x = lk * (top / float(_lp_norm(u, k))), signs * (u / top)
        res, scale, s, m2 = _residual(gold.a, k, x, gold.var, m)
        converged = float(np.max(np.abs(res))) <= TOL.residual_tol * scale
        ranked.append(((converged, sigma * (gold.var / m + s) / (m2 * m)), m, x, s, m2, it))
    state = _state(prob, *max(ranked, key=lambda c: c[0])[1:])
    if state.residual_norm > TOL.residual_tol:
        raise NotConverged(
            f"best residual {state.residual_norm:.3e} above tolerance {TOL.residual_tol:.1e}",
            state=state,
        )
    return state

