"""A family of concordance-aware regression losses with analytic gradients.

Every member combines an error term with a reward on the gold/prediction dot
product (or on the covariance), so that descent pushes both for small errors
and for positive joint variability. All but abs_mse_over_cov are one weighted
sum in two forms, the ratio N / R and the difference N - R, of

    N = sum eps_j (p_j - g_j)^2        R = coef * sum alpha_j (g_j p_j)^(2 beta_j + 1)

    variant          form                  weights read
    ratio            N / R   (signed)      none: eps = coef = alpha = 1, beta = 0
    ratio_pow        |N / R|^gamma         gamma
    general_ratio    |N / R|^gamma         gamma, per_sample_eps/alpha/beta (default 1, 1, 0)
    diff             N - R   (signed)      coef = alpha
    diff_pow         |N - R|^gamma         gamma, coef = alpha, beta
    general_diff     |N - R|^gamma         gamma, per_sample_eps/alpha/beta (default 1, 1, 0)
    abs_mse_over_cov |mse / cov|^gamma     gamma

A variant ignores the parameters it does not read. The signed ratio is
unbounded below when the dot product can go negative; abs_mse_over_cov is the
safe variant (bounded below on the negative-cov side, so driving the
covariance more negative cannot pay off indefinitely); it is evaluated in the
moment kernel's scaled units, and every variant with no positive beta at the
power of two that brings max |g_i|, |p_i| into [0.5, 1) (the weighted ones only
where that scales down), so that the scale of g and p alone takes no sum past
float64 where N / R or N - R is finite. A sum, loss or gradient past float64
raises InvalidInput naming it. Gradients are with respect to the prediction.
At a non-differentiable point of |.|^gamma (inner value exactly zero) the
subgradient 0 is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, Singularity
from .stats import _as_pair, _count, _counts, _error_mean, _instance, _moments, _real, _reals
from .stats import _scaled_errors, _span, _unscale, as_sequence, ccc as _ccc, mse as _mse
from .variants import VARIANTS, Variant


@dataclass(frozen=True, eq=False)
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
        _real(self.gamma, "gamma", "positive")
        _real(self.alpha, "alpha", "nonnegative")
        _count(self.beta, "beta", 0)
        for name in ("per_sample_alpha", "per_sample_eps", "per_sample_beta"):
            if (vec := getattr(self, name)) is not None:
                vec = _counts(vec, name) if "beta" in name else _reals(vec, name, "positive")
                object.__setattr__(self, name, vec)


def _inner_and_grad(params: LossParams, g: np.ndarray, p: np.ndarray):
    """(inner value, gradient, wrap_abs_power?) for the chosen variant; ``gradient()``
    computes d inner / d p, so a caller that wants only the loss builds no gradient. It may
    build the gradient in the inner value's buffers, so call it at most once."""
    variant = _instance(params, LossParams, "params").variant
    n = g.size
    if variant == "abs_mse_over_cov":
        # in the kernel's units g / 2**eg, p / 2**ep, p - g = d * 2**u: exact at any scale
        eg, ep, mu_g, _, _, _, cov = _moments(g, p)
        if cov == 0.0:
            raise Singularity("covariance is exactly zero")
        d, u = _scaled_errors(p, g)
        mse_val = _error_mean(d, 0, 2, "mse")  # leaves the signed d for the gradient

        def gradient():
            # (2 d / n) / cov * 2**(u - eg - ep) - mse (gz / n) / cov**2 * 2**(2u - eg - 2ep),
            # gz = g / 2**eg - mu_g, built in d and one more array
            dinner = np.multiply(d, 2.0, out=d)
            dinner /= n
            dinner /= cov
            np.ldexp(dinner, np.int32(u - eg - ep), out=dinner)
            gz = np.ldexp(g, -np.int32(eg))
            gz -= mu_g
            gz /= n
            gz *= mse_val
            gz /= cov * cov
            dinner -= np.ldexp(gz, np.int32(2 * u - eg - 2 * ep), out=gz)
            return dinner

        return _unscale(mse_val / cov, 2 * u - eg - ep, "loss"), gradient, True

    # N = sum eps_j (p_j - g_j)^2 and R = coef * sum alpha_j (g_j p_j)^(2 beta_j + 1);
    # unit weights are exact, so ratio is err @ err / (g @ p) and diff keeps alpha outside
    eps, coef, alpha, beta = 1.0, 1.0, 1.0, 0
    if variant.startswith("general_"):
        vectors = (params.per_sample_eps, params.per_sample_alpha, params.per_sample_beta)
        for name, v in zip(("eps", "alpha", "beta"), vectors):
            if v is not None and v.shape != (n,):
                raise InvalidInput(f"per_sample_{name} must have shape ({n},), got {v.shape}")
        eps, alpha, beta = (w if v is None else v for v, w in zip(vectors, (eps, alpha, beta)))
    elif variant.startswith("diff"):
        coef, beta = params.alpha, params.beta if variant == "diff_pow" else 0
    ratio = "ratio" in variant
    # with every beta 0, N and R scale as 4**s with g and p by 2**s, so N / R is scale-free
    # and N - R is unscaled by 4**s; a weight times a scaled-up term may overflow
    shift = 0
    if not np.any(beta):
        least = -1074 if variant in ("ratio", "ratio_pow") else 0
        shift = np.int32(max(_span(g)[0], _span(p)[0], least))  # int32: fast loop
        g, p = np.ldexp(g, -shift), np.ldexp(p, -shift)
    with np.errstate(all="ignore"):  # a sum past float64 is reported below
        err = p - g
        powers = alpha * (g * p) ** (2 * beta)  # even exponent, safe for negative products
        num = float(err @ (eps * err))
        reward = coef * float(g @ (powers * p))
    if ratio and reward == 0.0:
        raise Singularity("reward sum(alpha_j (g_j p_j)^(2 beta_j + 1)) is exactly zero")
    inner = num / reward if ratio else num - reward
    if not np.all(np.isfinite((num, reward, inner))):
        raise InvalidInput("loss overflows float64")
    if not ratio:
        inner = _unscale(inner, 2 * shift, "loss")

    def gradient():
        dnum, dreward = 2.0 * eps * err, coef * (2 * beta + 1) * powers * g
        if not ratio:
            grad = dnum - dreward
            return np.ldexp(grad, shift, out=grad)
        m, r = math.frexp(reward)  # reward = m * 2**r: its power of two goes first, with the shift's
        grad = dnum - inner * dreward
        return np.divide(np.ldexp(grad, -shift - r, out=grad), m, out=grad)

    return inner, gradient, variant not in ("ratio", "diff")


def _evaluate(params: LossParams, g: np.ndarray, p: np.ndarray):
    """(loss, gradient) of a validated pair: the loss as a float, and ``gradient()``, which
    builds the gradient on its one call."""
    inner, gradient, wrap = _inner_and_grad(params, g, p)
    value = inner
    if wrap:
        try:
            value = abs(inner) ** params.gamma
        except OverflowError:
            raise InvalidInput(f"loss overflows float64 at gamma {params.gamma}") from None
    return float(value), lambda: _wrapped_gradient(params, inner, gradient, wrap, g.size)


def loss(params: LossParams, gold, pred) -> float:
    return _evaluate(params, *_as_pair(gold, pred, ("gold", "pred")))[0]


def loss_gradient(params: LossParams, gold, pred) -> np.ndarray:
    g, p = _as_pair(gold, pred, ("gold", "pred"))
    return _wrapped_gradient(params, *_inner_and_grad(params, g, p), g.size)


def _wrapped_gradient(params: LossParams, inner: float, gradient, wrap: bool, n: int) -> np.ndarray:
    """The loss gradient from :func:`_inner_and_grad`'s output, with |.|^gamma applied where
    ``wrap`` says; InvalidInput when it leaves float64."""
    if wrap and inner == 0.0:
        return np.zeros(n)  # subgradient at the |.|^gamma kink
    with np.errstate(all="ignore"):  # a gradient past float64 is reported below
        grad = gradient()
        if wrap:
            grad *= params.gamma * np.float64(abs(inner)) ** (params.gamma - 1.0) * np.sign(inner)
    if not np.all(np.isfinite(grad)):
        at = f" at gamma {params.gamma}" if wrap else ""  # ratio and diff do not read gamma
        raise InvalidInput(f"loss gradient overflows float64{at}")
    return grad


#: Column names of :class:`TrainingTrace` rows.
TRACE_COLUMNS = ("iter", "loss", "mse", "ccc")


@dataclass(frozen=True, eq=False)
class TrainingTrace:
    """Rows of (iteration, loss, mse, ccc); ``diverged`` is always False, as every loss is
    finite or raises InvalidInput."""

    rows: np.ndarray
    diverged: bool
    final_pred: np.ndarray


def training_trace(
    params: LossParams, gold, init_pred, step: float, iters: int
) -> TrainingTrace:
    """Plain gradient descent demonstrator with step halving on increase.

    The step persists once halved; equality of consecutive losses is accepted
    (fixed points produce a flat trace rather than termination). A candidate
    whose loss or gradient raises is treated as an increase.
    """
    step, iters = _real(step, "step", "positive"), _count(iters, "iters", 1)
    g, p = _as_pair(gold, init_pred, ("gold", "init_pred"))
    p = p.copy()
    rows = []
    current_step = step

    def record(it, value):
        rows.append((float(it), float(value), _mse(g, p), _ccc(g, p)))

    current, gradient = _evaluate(params, g, p)
    record(0, current)
    grad = gradient()
    for it in range(1, iters + 1):
        moved = False
        for _ in range(60):
            with np.errstate(over="ignore"):  # as_sequence refuses an inf candidate
                candidate = p - current_step * grad
            try:
                cand_loss, gradient = _evaluate(params, g, as_sequence(candidate, "pred"))
                if cand_loss <= current:
                    grad = gradient()  # the next step's, from this evaluation
                    p, current, moved = candidate, cand_loss, True
                    break
            except (Singularity, InvalidInput):
                pass  # a singular or non-finite candidate or gradient: halve and retry
            current_step *= 0.5
        if not moved:
            break
        record(it, current)
    return TrainingTrace(rows=np.array(rows), diverged=False, final_pred=p)
