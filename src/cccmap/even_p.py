"""ccc extremization at a fixed L_k error norm for even k, via the stationarity
system of the constrained ratio objective.

The quantity to extremize is f(d) = cov(G, G+d) / mse(d) = (var_g + s_gd)/mse
on the sphere sum(d_i^k) = lk^k (k even), because ccc is monotone increasing
in f. Eliminating the multiplier from the first-order conditions gives the
per-coordinate residual

    2 var_g (d_i^k/MkE - d_i^2/MSE) + s_gd (d_i^k/MkE - 2 d_i^2/MSE) + yz_i d_i

which vanishes at every constrained stationary point. At k = 2 the system is
solved exactly by d = +-sqrt(MSE/var_g) * yz, the constructive mse-bound
vectors, which the solver must reproduce.

Numerics (the choice is ours, nothing canonical exists): the objective at
``PRESAMPLES`` random points on the constraint sphere picks the starts of a
multi-start tangent-projected gradient ascent with step halving on regression
and renormalization after every step; each endpoint is then polished by a
damped Newton iteration on the full Karush-Kuhn-Tucker system to drive the
residual to machine precision. Restarts are deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import InvalidInput, NotConverged, Singularity
from .mse_bounds import CenteredGold, ccc_from_mse_cov
from .stats import _lp_norm, as_sequence
from .tolerances import TOL

#: Random sphere points scored by :func:`solve` to choose its ascent starts.
PRESAMPLES = 50_000


@dataclass(frozen=True)
class StationarityProblem:
    """Extremize ccc at fixed L_k (k even) for a centered gold standard."""

    gold: CenteredGold
    k: int
    lk: float
    objective: Literal["max", "min"]

    def __post_init__(self):
        if self.k < 2 or self.k % 2 != 0:
            raise InvalidInput(f"k must be an even integer >= 2, got {self.k}")
        if not 0.0 < self.lk < np.inf:
            raise InvalidInput(f"lk must be finite and positive, got {self.lk}")
        if self.objective not in ("max", "min"):
            raise InvalidInput(f"objective must be 'max' or 'min', got {self.objective}")


def _mse_sgd(yz: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    """(mse, s_gd) of an error iterate."""
    n = d.size
    return float(d @ d) / n, float(yz @ d) / n


def _moments(yz: np.ndarray, k: int, d: np.ndarray) -> tuple[float, float, float]:
    """(mse, mke, s_gd) of an error iterate; mke aliases mse exactly at k=2."""
    mse, s_gd = _mse_sgd(yz, d)
    mke = mse if k == 2 else float(np.sum(d**k)) / d.size
    return mse, mke, s_gd


def _iterate(prob: StationarityProblem, d) -> tuple[np.ndarray, float, float, float]:
    """(d, mse, mke, s_gd) of a validated, nonzero error iterate of ``prob``."""
    dv = as_sequence(d)
    if dv.size != prob.gold.n:
        raise InvalidInput(f"length mismatch: {dv.size} vs {prob.gold.n}")
    mse, mke, s_gd = _moments(prob.gold.centered, prob.k, dv)
    if mse == 0.0:
        raise InvalidInput("zero error vector has no defined residual")
    return dv, mse, mke, s_gd


def _residual(prob: StationarityProblem, dv, mse, mke, s_gd) -> np.ndarray:
    dk = dv**prob.k
    d2 = dv * dv
    return (
        2.0 * prob.gold.var_g * (dk / mke - d2 / mse)
        + s_gd * (dk / mke - 2.0 * d2 / mse)
        + prob.gold.centered * dv
    )


def stationarity_residual(prob: StationarityProblem, d) -> np.ndarray:
    """Per-coordinate first-order residual; all zeros at stationary points."""
    return _residual(prob, *_iterate(prob, d))


def scaled_residual(prob: StationarityProblem, d) -> float:
    """Max |residual| over the magnitude of its constituent terms, floored at 1."""
    dv, mse, mke, s_gd = _iterate(prob, d)
    yz = prob.gold.centered
    scale = max(1.0, 2.0 * prob.gold.var_g, abs(s_gd), float(np.max(np.abs(yz * dv))))
    return float(np.max(np.abs(_residual(prob, dv, mse, mke, s_gd)))) / scale


@dataclass(frozen=True)
class SolverState:
    """Converged (or best-found) iterate of :func:`solve`."""

    d: np.ndarray
    multiplier: float
    sigma_gd: float
    objective_value: float
    residual_norm: float
    ccc_value: float
    iterations: int


def _objective(yz: np.ndarray, var_g: float, d: np.ndarray) -> float:
    mse, s_gd = _mse_sgd(yz, d)
    return (var_g + s_gd) / mse


def _gradient(yz: np.ndarray, var_g: float, d: np.ndarray) -> np.ndarray:
    mse, s_gd = _mse_sgd(yz, d)
    return (mse * yz - 2.0 * d * (var_g + s_gd)) / (d.size * mse * mse)


def _renorm(d: np.ndarray, k: int, lk: float) -> np.ndarray | None:
    """d scaled in place to L_k norm lk; None when its norm is zero or not finite."""
    norm_k = float(_lp_norm(d, k))
    if not 0.0 < norm_k < np.inf:
        return None
    d *= lk / norm_k
    return d


def _ascend(
    yz: np.ndarray, var_g: float, k: int, lk: float, d0: np.ndarray, sign: float,
    max_iters: int,
) -> tuple[np.ndarray, int]:
    """Tangent-projected gradient ascent of sign*f with step halving."""
    d = d0.copy()
    f = sign * _objective(yz, var_g, d)
    step = 0.5
    it = 0
    for it in range(1, max_iters + 1):
        grad = sign * _gradient(yz, var_g, d)
        normal = k * d ** (k - 1)
        tangent = grad - (float(grad @ normal) / float(normal @ normal)) * normal
        t_norm = float(np.sqrt(tangent @ tangent))
        if t_norm < 1e-17:
            break
        direction = tangent * (lk / t_norm)
        moved = False
        for _ in range(60):
            cand = _renorm(d + step * direction, k, lk)
            if cand is not None:
                f_cand = sign * _objective(yz, var_g, cand)
                if f_cand > f:
                    d, f = cand, f_cand
                    step = min(step * 1.5, 4.0)
                    moved = True
                    break
            step *= 0.5
        if not moved:
            break
    return d, it


def _newton_polish(
    yz: np.ndarray, var_g: float, k: int, lk: float, d0: np.ndarray, iters: int = 50
) -> np.ndarray | None:
    """Newton iteration on [grad f - lambda * k d^(k-1); sum d^k - lk^k]; the
    Jacobian is diagonal plus two outer products, bordered by k d^(k-1)."""
    n = d0.size
    d = d0.copy()
    diag = np.diag_indices(n)
    for _ in range(iters):
        mse, mke, s_gd = _moments(yz, k, d)
        sxy = var_g + s_gd
        grad = _gradient(yz, var_g, d)
        lam = float(d @ grad) / (k * n * mke)
        dk1 = d ** (k - 1)
        full = np.append(grad - lam * k * dk1, np.sum(d**k) - lk**k)
        dmse = 2.0 * d / n
        base = n * mse * mse
        jac = np.zeros((n + 1, n + 1))
        top = jac[:n, :n]  # the update order below fixes the Jacobian's bits
        top[:] = (np.outer(yz, dmse) - np.outer(2.0 * d, yz / n)) / base
        top[diag] += -2.0 * sxy / base
        top -= np.outer((mse * yz - 2.0 * d * sxy) * 2.0, dmse) / (base * mse)
        top[diag] -= lam * k * (k - 1) * d ** (k - 2)
        jac[:n, n] = -k * dk1
        jac[n, :n] = k * dk1
        try:
            delta = np.linalg.solve(jac, -full)
        except np.linalg.LinAlgError:
            return None
        nd = _renorm(d + delta[:n], k, lk)
        if nd is None:
            return None
        if np.max(np.abs(nd - d)) < 1e-15 * max(1.0, float(np.max(np.abs(d)))):
            return nd
        d = nd
    return d


def solve(
    prob: StationarityProblem,
    seed: int,
    max_iters: int = 400,
    restarts: int = 16,
) -> SolverState:
    """Best-of-restarts extremum of ccc on the L_k sphere.

    Starts are the two closed-form mse-bound directions plus the best
    ``restarts`` of ``PRESAMPLES`` random sphere points, each run through
    gradient ascent and Newton polish. Raises InvalidInput when the centred
    gold's L_k norm is zero or overflows in float64, and NotConverged (with the
    best state attached) if no candidate meets the residual tolerance.
    """
    yz = prob.gold.centered
    var_g = prob.gold.var_g
    n, k, lk = prob.gold.n, prob.k, prob.lk
    sign = 1.0 if prob.objective == "max" else -1.0

    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((PRESAMPLES, n))
    samples *= (lk / _lp_norm(samples, k))[:, None]
    sample_mse = np.sum(samples * samples, axis=1) / n
    sample_f = sign * (var_g + samples @ yz / n) / sample_mse
    top = np.argsort(sample_f)[::-1][:restarts]

    starts = [_renorm(yz.copy(), k, lk), _renorm(-yz, k, lk)]
    if starts[0] is None:
        raise InvalidInput(f"the L_{k} norm of the centred gold is zero or overflows float64")
    starts.extend(samples[i] for i in top)

    # (signed objective, residual, iterate, ascent iterations)
    converged: tuple[float, float, np.ndarray, int] | None = None
    fallback: tuple[float, float, np.ndarray, int] | None = None
    for start in starts:
        d, it = _ascend(yz, var_g, k, lk, start, sign, max_iters)
        candidates = [d]
        polished = _newton_polish(yz, var_g, k, lk, d)
        if polished is not None:
            candidates.append(polished)
        for cand in candidates:
            f_signed = sign * _objective(yz, var_g, cand)
            res = scaled_residual(prob, cand)
            entry = (f_signed, res, cand, it)
            if res <= TOL.residual_tol:
                # best objective wins; near-ties resolve to the smaller residual
                if (
                    converged is None
                    or f_signed > converged[0] + 1e-12 * max(1.0, abs(converged[0]))
                    or (
                        abs(f_signed - converged[0]) <= 1e-12 * max(1.0, abs(converged[0]))
                        and res < converged[1]
                    )
                ):
                    converged = entry
            if fallback is None or f_signed > fallback[0]:
                fallback = entry

    assert fallback is not None
    f_signed, res, d, iters_used = converged if converged is not None else fallback
    mse, mke, s_gd = _moments(yz, k, d)
    grad = _gradient(yz, var_g, d)
    state = SolverState(
        d=d,
        multiplier=float(d @ grad) / (k * n * mke),
        sigma_gd=s_gd,
        objective_value=(var_g + s_gd) / mse,
        residual_norm=res,
        ccc_value=ccc_from_mse_cov(mse, var_g + s_gd),
        iterations=iters_used,
    )
    if res > TOL.residual_tol:
        raise NotConverged(
            f"best residual {res:.3e} above tolerance {TOL.residual_tol:.1e} "
            f"after {restarts} restarts",
            state=state,
        )
    return state


def quadratic_in_gold(prob: StationarityProblem, d, i: int) -> tuple[float, float, float]:
    """Coefficients (a, b, c), a = 1, of the monic quadratic in the i-th
    centered gold value implied by the stationarity system.

    With A = d_i^(k-1) MSE - d_i MkE and B = d_i^(k-1) MSE - 2 d_i MkE:

        yz_i^2 + yz_i (d_i B + N MSE MkE)/(2A)
               + sum_{j != i} yz_j (yz_j + d_j B/(2A))  =  0

    at any stationary d. A vanishes identically at k = 2 (MkE == MSE), which
    is exactly the denominator degeneracy: Singularity is raised there and
    for any d_i with A ~ 0.
    """
    dv, mse, mke, _ = _iterate(prob, d)
    n = dv.size
    if not 0 <= i < n:
        raise InvalidInput(f"index {i} out of range for length {n}")
    di = float(dv[i])
    a_den = di ** (prob.k - 1) * mse - di * mke
    if abs(a_den) <= 1e-14 * (abs(di ** (prob.k - 1) * mse) + abs(di * mke)):
        raise Singularity(
            f"d_i^(k-1)*MSE - d_i*MkE = {a_den:.3e} is degenerate at i={i}"
        )
    b_num = di ** (prob.k - 1) * mse - 2.0 * di * mke
    yz = prob.gold.centered
    b = (di * b_num + n * mse * mke) / (2.0 * a_den)
    mask = np.arange(n) != i
    c = float(
        np.sum(yz[mask] * (yz[mask] + dv[mask] * b_num / (2.0 * a_den)))
    )
    return 1.0, float(b), c
