"""A family of concordance-aware regression losses with analytic gradients.

Every member combines an error term with a reward on the gold/prediction dot
product sum(g_j p_j) (or on the covariance), so that descent pushes both for
small errors and for positive joint variability:

    ratio            sum(g-p)^2 / sum(g p)                      (signed)
    ratio_pow        |ratio|^gamma
    general_ratio    |sum eps_j (g-p)^2 / sum alpha_j (g p)^(2 beta_j + 1)|^gamma
    diff             sum(g-p)^2 - alpha * sum(g p)              (signed)
    diff_pow         |sum(g-p)^2 - alpha * sum (g p)^(2 beta + 1)|^gamma
    general_diff     |sum eps_j (g-p)^2 - sum alpha_j (g p)^(2 beta_j + 1)|^gamma
    abs_mse_over_cov |mse / cov|^gamma

The signed ratio is unbounded below when the dot product can go negative;
abs_mse_over_cov is the safe variant (bounded below on the negative-cov side,
so driving the covariance more negative cannot pay off indefinitely).
Gradients are with respect to the prediction. At a non-differentiable point
of |.|^gamma (inner value exactly zero) the subgradient 0 is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .errors import InvalidInput, Singularity
from .stats import _as_pair, as_sequence, ccc as _ccc, mse as _mse

Variant = Literal[
    "ratio",
    "ratio_pow",
    "general_ratio",
    "diff",
    "diff_pow",
    "general_diff",
    "abs_mse_over_cov",
]

VARIANTS: tuple[Variant, ...] = get_args(Variant)


@dataclass(frozen=True)
class LossParams:
    """Coefficients selecting one member of the loss family.

    alpha = 0 is admitted for the diff variant (degenerates to the plain
    sum-of-squares loss, used by the descent demonstrator).
    """

    variant: Variant
    gamma: float = 1.0
    alpha: float = 1.0
    beta: int = 0
    per_sample_alpha: np.ndarray | None = None
    per_sample_beta: np.ndarray | None = None
    per_sample_eps: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidInput(f"unknown variant {self.variant!r}")
        if not 0.0 < self.gamma < np.inf:
            raise InvalidInput(f"gamma must be finite and positive, got {self.gamma}")
        if not 0.0 <= self.alpha < np.inf:
            raise InvalidInput(f"alpha must be finite and nonnegative, got {self.alpha}")
        if not 0 <= self.beta < np.inf or int(self.beta) != self.beta:
            raise InvalidInput(f"beta must be a nonnegative integer, got {self.beta}")
        for name in ("per_sample_alpha", "per_sample_eps"):
            vec = getattr(self, name)
            if vec is not None:
                vec = np.asarray(vec, dtype=np.float64)
                if np.any(vec <= 0) or not np.all(np.isfinite(vec)):
                    raise InvalidInput(f"{name} entries must be positive and finite")
                object.__setattr__(self, name, vec)
        if self.per_sample_beta is not None:
            vec = np.asarray(self.per_sample_beta)
            if np.any(vec < 0) or not np.issubdtype(vec.dtype, np.integer):
                raise InvalidInput("per_sample_beta entries must be nonnegative integers")
            object.__setattr__(self, "per_sample_beta", vec.astype(np.int64))


def _general_vectors(params: LossParams, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    eps = params.per_sample_eps if params.per_sample_eps is not None else np.ones(n)
    alpha = params.per_sample_alpha if params.per_sample_alpha is not None else np.ones(n)
    beta = (
        params.per_sample_beta
        if params.per_sample_beta is not None
        else np.zeros(n, dtype=np.int64)
    )
    if len(eps) != n or len(alpha) != n or len(beta) != n:
        raise InvalidInput("per-sample coefficient length does not match N")
    return eps, alpha, beta


def _inner_and_grad(params: LossParams, g: np.ndarray, p: np.ndarray):
    """(inner value, d inner / d p, wrap_abs_power?) for the chosen variant."""
    n = g.size
    err = p - g
    sq = float(err @ err)
    dsq = 2.0 * err
    variant = params.variant

    if variant in ("ratio", "ratio_pow"):
        dot = float(g @ p)
        if dot == 0.0:
            raise Singularity("sum(g_j p_j) is exactly zero")
        inner = sq / dot
        dinner = dsq / dot - sq * g / (dot * dot)
        return inner, dinner, variant == "ratio_pow"

    if variant == "general_ratio":
        eps, alpha, beta = _general_vectors(params, n)
        num = float(eps @ (err * err))
        powers = (g * p) ** (2 * beta)  # even exponent, safe for negative products
        den = float(np.sum(alpha * powers * (g * p)))
        if den == 0.0:
            raise Singularity("weighted dot-product denominator is exactly zero")
        dnum = 2.0 * eps * err
        dden = alpha * (2 * beta + 1) * powers * g
        inner = num / den
        dinner = dnum / den - num * dden / (den * den)
        return inner, dinner, True

    if variant == "diff":
        dot = float(g @ p)
        inner = sq - params.alpha * dot
        dinner = dsq - params.alpha * g
        return inner, dinner, False

    if variant == "diff_pow":
        powers = (g * p) ** (2 * params.beta)
        reward = float(np.sum(powers * (g * p)))
        inner = sq - params.alpha * reward
        dinner = dsq - params.alpha * (2 * params.beta + 1) * powers * g
        return inner, dinner, True

    if variant == "general_diff":
        eps, alpha, beta = _general_vectors(params, n)
        powers = (g * p) ** (2 * beta)
        inner = float(eps @ (err * err)) - float(np.sum(alpha * powers * (g * p)))
        dinner = 2.0 * eps * err - alpha * (2 * beta + 1) * powers * g
        return inner, dinner, True

    # abs_mse_over_cov
    gz = g - g.mean()
    cov = float((gz * (p - p.mean())).mean())
    if cov == 0.0:
        raise Singularity("covariance is exactly zero")
    mse_val = sq / n
    inner = mse_val / cov
    dinner = (dsq / n) / cov - mse_val * (gz / n) / (cov * cov)
    return inner, dinner, True


def loss(params: LossParams, gold, pred) -> float:
    g, p = _as_pair(gold, pred)
    inner, _, wrap = _inner_and_grad(params, g, p)
    if not wrap:
        return float(inner)
    return float(abs(inner) ** params.gamma)


def loss_gradient(params: LossParams, gold, pred) -> np.ndarray:
    g, p = _as_pair(gold, pred)
    inner, dinner, wrap = _inner_and_grad(params, g, p)
    if not wrap:
        return dinner
    if inner == 0.0:
        return np.zeros_like(dinner)  # subgradient at the |.|^gamma kink
    return params.gamma * abs(inner) ** (params.gamma - 1.0) * np.sign(inner) * dinner


#: Column names of :class:`TrainingTrace` rows.
TRACE_COLUMNS = ("iter", "loss", "mse", "ccc")


@dataclass(frozen=True)
class TrainingTrace:
    """Descent trajectory rows of (iteration, loss, mse, ccc)."""

    rows: np.ndarray
    diverged: bool
    final_pred: np.ndarray


def training_trace(
    params: LossParams, gold, init_pred, step: float, iters: int
) -> TrainingTrace:
    """Plain gradient descent demonstrator with step halving on increase.

    The step persists once halved; equality of consecutive losses is accepted
    (fixed points produce a flat trace rather than termination). A non-finite
    loss reports its row and stops with the diverged flag set.
    """
    if not step > 0:
        raise InvalidInput(f"step must be positive, got {step}")
    if iters < 1:
        raise InvalidInput(f"iters must be at least 1, got {iters}")
    g = as_sequence(gold)
    p = as_sequence(init_pred).copy()
    rows = []
    current_step = step
    diverged = False

    def record(it, value):
        rows.append((float(it), float(value), _mse(g, p), _ccc(g, p)))

    current = loss(params, g, p)
    record(0, current)
    if not np.isfinite(current):
        return TrainingTrace(rows=np.array(rows), diverged=True, final_pred=p)
    for it in range(1, iters + 1):
        moved = False
        for _ in range(60):
            candidate = p - current_step * loss_gradient(params, g, p)
            try:
                cand_loss = loss(params, g, candidate)
            except (Singularity, InvalidInput):
                cand_loss = np.inf  # singular or non-finite candidate: halve and retry
            if np.isfinite(cand_loss) and cand_loss <= current:
                p, current, moved = candidate, cand_loss, True
                break
            current_step *= 0.5
        if not moved:
            break
        record(it, current)
        if not np.isfinite(current):
            diverged = True
            break
    return TrainingTrace(rows=np.array(rows), diverged=diverged, final_pred=p)
