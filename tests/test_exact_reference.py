"""Exact-arithmetic reference for the figures derived from a gold standard.

Small-integer golds are scaled by a power of two anywhere in 2^-1074..2^1023, so that
every gold value is exact in float64, and the mse and the L_k norm are drawn at their
own, independent powers of two. Each figure is then checked against its value in
``fractions.Fraction`` arithmetic within a stated budget of units in the last place
(ulps) of that exact value rounded to float64:

- ``center_gold``'s ``mu_g`` within 1 ulp: one rounding in the kernel's units, and at
  most one more where mu_g is subnormal;
- ``var_g``, ``sigma_g``, ``bounds_given_mse``'s x and ``envelope_given_lk``'s x fed
  ``gold.sigma_g`` within 2n + 4 ulps: the squares, their sum and the quotients round
  about 2n times, each by at most half an ulp of the kernel's units;
- ``err_max`` entrywise within 2n + 4 ulps of its largest exact entry, plus x times an
  ulp of mu_g, the rounding of the mean that every centred entry carries.

A call may instead raise ``InvalidInput`` naming a quantity whose exact value leaves
float64, and must raise where it does. No drawn gold is constant, so ``center_gold`` takes
each one: a var_g below the normal range, down to 0, is still within budget times the least
subnormal. ``envelope_given_lk`` refuses a subnormal sigma_g, and only that, as
``InvalidInput`` naming it: such a sigma_g has lost bits of the x it would give.

``ccc_from_mse_cov`` and ``envelope_kernel`` take any finite float64 arguments and are
checked within 2 ulps. The mapping 2c / (m + 2c) rounds twice, the sum and the quotient,
and raises ``Singularity`` exactly where m + 2c is 0; the kernel 2t / (1 + t^2) rounds
three times, and random draws over the whole range found it within 1.46 ulps.

``upper_envelope(x)`` and ``lower_envelope(x)`` are that kernel at t = 1 + x and t = 1 - x,
for x from 2^-1074 to float64's top and x near 1 and 2, and are checked within 3 ulps of the
kernel at the exact t: forming t rounds once, by at most half an ulp of t, and the kernel's
relative condition number |1 - t^2| / (1 + t^2) is at most 1, so that costs at most one ulp of
the value; random draws found them within 2.07 ulps. No value of the envelopes leaves
float64, so no x is refused.

``error_set``'s mse is checked within 2n + 4 ulps, like var_g, or refused as ``InvalidInput``
naming mse where it leaves float64. Each ``formula_value`` of ``optimal_permutations`` is
f = 2P / (mse + 2P) at P = var_g +- cov(g, e) of its ordering, checked within 2n + 4 ulps
of f plus (2n + 4) S / (mse + 2P) halves of an ulp of 1, where S = var_g + sqrt(var_g mse)
bounds the terms of P, which cancel as f nears 0; plus 16n of the least subnormal where a
term of P or of mse + 2P, taken in units of the larger of the two powers of two, falls
below the normal range. mse + 2P = var_g + var_p + (mu_p - mu_g)^2 is never 0.

The ``ratio`` and ``diff`` losses and their gradients (gamma 1, which they do not read) are
rational in g, p and alpha. Each is checked against its exact value within a bound carried
through the steps that ``losses`` documents: g and p scaled by the power of two that brings
their largest magnitude into [0.5, 1), for ``diff``, whose R alpha weighs, only where that
scales them down, and ``diff``'s N - alpha R and gradient unscaled by 4^s and 2^s. Each elementwise
step rounds by at most u |value| + eta / 2 (u = 2^-53, eta = 2^-1074) on top of its operands'
bounds, and each dot product by at most gamma_n sum |terms| + n eta, gamma_n = n u / (1 - n u),
which holds whatever order BLAS sums in. A call may raise ``Singularity`` only where the
reward sum may round to 0, and ``InvalidInput`` only where some step may leave float64: for
``diff``'s loss that is N - alpha R itself, as N and R are taken where they fit.
"""

import math
import sys
from fractions import Fraction
from typing import NamedTuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cccmap.errors import CccmapError, DegenerateVariance, InvalidInput, Singularity
from cccmap.lk_bounds import envelope_given_lk
from cccmap.losses import LossParams, loss, loss_gradient
from cccmap.mse_bounds import (
    bounds_given_mse, ccc_from_mse_cov, center_gold, envelope_kernel, lower_envelope, upper_envelope,
)
from cccmap.oracles import mse_sphere_oracle
from cccmap.ordering import error_set, optimal_permutations

MAX = Fraction(sys.float_info.max)
TINY = Fraction(math.ulp(0.0))  # the smallest subnormal, 2**-1074
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def fsqrt(q: Fraction) -> Fraction:
    """sqrt(q) of a nonnegative q, within 2**-200 relative."""
    top = q.numerator * q.denominator  # sqrt(q) = sqrt(top) / denominator
    shift = max(0, 200 - top.bit_length() // 2)
    return Fraction(math.isqrt(top << 2 * shift), q.denominator << shift)


def ulp(exact: Fraction) -> Fraction:
    """An ulp of exact rounded to float64; that of MAX past it."""
    return Fraction(math.ulp(float(min(abs(exact), MAX))))


def leaves_float64(exact: Fraction, budget: int) -> bool:
    return abs(exact) > MAX - budget * ulp(MAX)


def must_leave_float64(exact: Fraction, budget: int) -> bool:
    return abs(exact) > MAX + budget * ulp(MAX)


def assert_within(name: str, got: float, exact: Fraction, budget: int) -> None:
    assert not must_leave_float64(exact, budget), f"{name} = {got!r} past float64 was not refused"
    ulps = abs(Fraction(got) - exact) / ulp(exact)
    assert ulps <= budget, f"{name} = {got!r} is {float(ulps):.3g} ulps from {float(exact)!r}"


def outcome(call, budget: int, **exact: Fraction):
    """call()'s value, or None when it raises an InvalidInput naming one of the quantities
    of ``exact``, which it may only where that quantity leaves float64."""
    try:
        got = call()
    except InvalidInput as exc:
        named = [name for name in exact if f"{name} overflows" in str(exc)]
        assert named, exc
        value = exact[named[0]]
        assert leaves_float64(value, budget), f"{named[0]} = {float(value)!r} refused: {exc}"
        return None
    return got


@settings(max_examples=400, deadline=None)
@given(
    ints=st.lists(st.integers(-1000, 1000), min_size=2, max_size=12).filter(
        lambda v: len(set(v)) > 1
    ),
    gold_scale=st.integers(-1074, 1023),
    mse_mant=st.integers(0, 1 << 20),
    mse_scale=st.integers(-1074, 1023 - 21),
    lk_mant=st.integers(0, 1 << 20),
    lk_scale=st.integers(-1074, 1023 - 21),
    k=st.sampled_from([1, 2, 4]),
)
# the gold [1, 2, 3] near 1e-160, whose var_g is subnormal
@example(ints=[1, 2, 3], gold_scale=-532, mse_mant=1, mse_scale=-532, lk_mant=1, lk_scale=-532, k=4)
# the gold [0, 0, 1] at 2**-1026: var_g underflows to 0 and sigma_g is subnormal
@example(ints=[0, 0, 1], gold_scale=-1026, mse_mant=1, mse_scale=-1000, lk_mant=1, lk_scale=-1000, k=4)
# the gold [0, 22] near 1e149 at an mse whose x is subnormal: err must not inherit x's rounding
@example(ints=[0, 22], gold_scale=490, mse_mant=1, mse_scale=-1065, lk_mant=0, lk_scale=0, k=1)
def test_gold_figures_match_exact_arithmetic(
    ints, gold_scale, mse_mant, mse_scale, lk_mant, lk_scale, k
):
    scale = min(gold_scale, 1024 - max(abs(i) for i in ints).bit_length())  # keep gold finite
    gold = [math.ldexp(i, scale) for i in ints]
    n = len(gold)
    budget = 2 * n + 4
    exact_gold = [Fraction(g) for g in gold]
    mu = sum(exact_gold) / n
    var = sum((g - mu) ** 2 for g in exact_gold) / n

    prepared = center_gold(gold)
    assert_within("mu_g", prepared.mu_g, mu, 1)
    var_g = outcome(lambda: prepared.var_g, budget, var_g=var)
    if var_g is not None:
        assert_within("var_g", var_g, var, budget)
    assert_within("sigma_g", prepared.sigma_g, fsqrt(var), budget)

    mse = math.ldexp(mse_mant, mse_scale)
    x = fsqrt(Fraction(mse) / var)
    bounds = outcome(lambda: bounds_given_mse(prepared, mse), budget, x=x)
    if bounds is not None:
        assert_within("x", bounds.x_param, x, budget)
        exact_err = [x * (g - mu) for g in exact_gold]
        top = max(abs(v) for v in exact_err)
        tol = budget * ulp(top) + x * ulp(mu)
        for got, want in zip(bounds.err_max.tolist(), exact_err):
            assert abs(Fraction(got) - want) <= tol, f"err_max entry {got!r} vs {float(want)!r}"

    lk = math.ldexp(lk_mant, lk_scale)
    if prepared.sigma_g < sys.float_info.min:
        try:
            envelope_given_lk(k, n, lk, prepared.sigma_g)
        except InvalidInput as exc:
            assert str(exc).startswith("sigma_g must be a normal float64"), exc
            return
        raise AssertionError(f"subnormal sigma_g = {prepared.sigma_g!r} was not refused")
    root = Fraction(n) if k == 1 else fsqrt(Fraction(n))
    x_lk = Fraction(lk) / (root * fsqrt(var))
    # 2/x past float64 is refused; at x = 0 theta_at_min is inf
    envelope = outcome(
        lambda: envelope_given_lk(k, n, lk, prepared.sigma_g), budget,
        x=x_lk, theta_at_min=2 / x_lk if x_lk else Fraction(0),
    )
    if envelope is not None:
        assert_within("envelope x", envelope.x, x_lk, budget)
        if envelope.x:  # 2 / x of an x within budget ulps, rounded once more
            assert_within("theta_at_min", envelope.theta_at_min, 2 / x_lk, 2 * budget + 2)


def _refusal(call):
    """The type of the CccmapError that call() raises, or None where it returns."""
    try:
        call()
    except CccmapError as exc:
        return type(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(
    ints=st.lists(st.integers(-1000, 1000), min_size=2, max_size=8),
    gold_scale=st.integers(-1074, 1023),
    mse_mant=st.integers(1, 1 << 20),
    lk_mant=st.integers(1, 1 << 20),
    k=st.sampled_from([1, 2, 4]),
)
# the gold [0, 1, 2] near 1e-170, whose var_g underflows to 0
@example(ints=[0, 1, 2], gold_scale=-565, mse_mant=1, lk_mant=1, k=4)
# the gold [1, 2, 4] near 1e160, whose var_g overflows
@example(ints=[1, 2, 4], gold_scale=531, mse_mant=1 << 20, lk_mant=1 << 20, k=2)
@example(ints=[3, 3, 3], gold_scale=0, mse_mant=1, lk_mant=1, k=1)
def test_one_gold_refusal_and_x_free_of_the_golds_scale(ints, gold_scale, mse_mant, lk_mant, k):
    """``center_gold``, ``optimal_permutations`` and ``mse_sphere_oracle`` refuse the same
    golds, the constant ones. The bounds depend on the gold only through its ratios to mse and
    L_k, so wherever the scaled mse, L_k and sigma_g are normal, x at (gold 2^s, mse 4^s) and at
    (L_k 2^s, sigma_g 2^s) is x at s = 0 bit for bit; a subnormal sigma_g is refused."""
    scale = min(gold_scale, 1024 - max(abs(i) for i in ints).bit_length())  # keep gold finite
    gold = [math.ldexp(i, scale) for i in ints]
    constant = len(set(ints)) == 1
    refusals = {
        _refusal(lambda: center_gold(gold)),
        _refusal(lambda: optimal_permutations(gold, error_set(ints))),
        _refusal(lambda: mse_sphere_oracle(gold, 1.0, 8, 0)),
    }
    assert refusals == {DegenerateVariance if constant else None}
    if constant:
        return
    unit, scaled = center_gold(ints), center_gold(gold)
    mse, lk = math.ldexp(mse_mant, -20), math.ldexp(lk_mant, -20)  # in [2**-20, 1]
    if -1002 <= 2 * scale <= 1023:  # mse 4^s is normal
        got = bounds_given_mse(scaled, math.ldexp(mse, 2 * scale)).x_param
        assert got == bounds_given_mse(unit, mse).x_param
    n = len(ints)
    if scaled.sigma_g < sys.float_info.min:
        assert _refusal(lambda: envelope_given_lk(k, n, lk, scaled.sigma_g)) is InvalidInput
    elif scale >= -1002:  # L_k 2^s is normal
        got = envelope_given_lk(k, n, math.ldexp(lk, scale), scaled.sigma_g).x
        assert got == envelope_given_lk(k, n, lk, unit.sigma_g).x


@settings(max_examples=400, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)), min_size=2, max_size=8
    ).filter(lambda p: len({g for g, _ in p}) > 1),
    gold_scale=st.integers(-1074, 1013),  # 1000 * 2**1013 + 1000 * 2**1013 is finite
    err_scale=st.integers(-1074, 1013),
)
# errors equal to the gold: P = 0 exactly at min_sub, so f = 0
@example(pairs=[(1, 1), (2, 2), (4, 4)], gold_scale=0, err_scale=0)
# errors one step off the gold: P cancels to 1/3 of its terms' 10^6
@example(pairs=[(0, 1), (1000, 1000), (-1000, -1000)], gold_scale=-3, err_scale=-3)
# var_g's term of P is subnormal in the errors' units
@example(pairs=[(-913, -133), (987, -516)], gold_scale=-595, err_scale=476)
# all-zero errors at a small gold: f = 1, not a Singularity from an underflowed var_g
@example(pairs=[(0, 0), (1, 0)], gold_scale=-537, err_scale=0)
def test_ordering_extremes_match_exact_arithmetic(pairs, gold_scale, err_scale):
    gold = [math.ldexp(g, gold_scale) for g, _ in pairs]
    err = [math.ldexp(e, err_scale) for _, e in pairs]
    n = len(pairs)
    budget = 2 * n + 4
    exact_e = [Fraction(e) for e in err]
    mse = sum(e * e for e in exact_e) / n
    errors = outcome(lambda: error_set(err), budget, mse=mse)
    if errors is None:
        return
    assert_within("mse", errors.mse, mse, budget)

    exact_g = [Fraction(g) for g in gold]
    mu = sum(exact_g) / n
    var = sum((g - mu) ** 2 for g in exact_g) / n
    extremes = optimal_permutations(gold, errors)  # no drawn gold is constant
    ascending = sorted(exact_e)
    rank = sorted(range(n), key=exact_g.__getitem__)
    cov = {}  # cov(g, e) of the errors sorted like the gold (0) and opposite to it (1)
    for row, values in enumerate((ascending, ascending[::-1])):
        cov[row] = sum((exact_g[i] - mu) * v for i, v in zip(rank, values)) / n
    size = var + fsqrt(var * mse)
    for name, p in (
        ("max_add", var + cov[0]), ("max_sub", var - cov[1]),
        ("min_add", var + cov[1]), ("min_sub", var - cov[0]),
    ):
        denom = mse + 2 * p
        f = 2 * p / denom
        slack = (budget * size / denom / 2**53 + 16 * n * TINY) / ulp(f)
        assert_within(name, getattr(extremes, name).formula_value, f, budget + math.ceil(slack))


@settings(max_examples=1000, deadline=None)
@given(mse=st.floats(0.0, allow_infinity=False), cov=FINITE, pole=st.none() | st.integers(-3, 3))
# subnormal mse: halving it lost its last bit
@example(mse=5e-324, cov=5e-324, pole=None)
@example(mse=6.4e-323, cov=-2.5e-323, pole=None)
@example(mse=5e-324, cov=0.0, pole=None)
def test_ccc_from_mse_cov_matches_exact_arithmetic(mse, cov, pole):
    if pole is not None:  # cov within a few ulps of -mse/2, where mse + 2 cov cancels
        cov = -mse / 2
        for _ in range(abs(pole)):
            cov = math.nextafter(cov, math.copysign(math.inf, pole))
    denom = Fraction(mse) + 2 * Fraction(cov)
    try:
        got = ccc_from_mse_cov(mse, cov)
    except Singularity:
        assert denom == 0, f"ccc_from_mse_cov({mse!r}, {cov!r}) refused a nonzero mse + 2 cov"
        return
    assert denom != 0, f"ccc_from_mse_cov({mse!r}, {cov!r}) = {got!r} at mse + 2 cov = 0"
    assert_within("ccc", got, 2 * Fraction(cov) / denom, 2)


@settings(max_examples=1000, deadline=None)
@given(t=FINITE)
def test_envelope_kernel_matches_exact_arithmetic(t):
    exact = 2 * Fraction(t) / (1 + Fraction(t) ** 2)
    assert_within("envelope_kernel", envelope_kernel(t), exact, 2)


NEAR_ONE_OR_TWO = st.builds(  # within 2**20 ulps of 1 on either side of 1 and of 2
    lambda base, steps: base + steps * 2.0**-52, st.sampled_from([1.0, 2.0]),
    st.integers(-(2**20), 2**20),
)


@settings(max_examples=1000, deadline=None)
@given(x=st.floats(0.0, allow_infinity=False) | NEAR_ONE_OR_TWO)
@example(x=math.ulp(0.0))
@example(x=sys.float_info.max)
@example(x=1.0)
@example(x=2.0)
@example(x=math.nextafter(1.0, 0.0))
@example(x=math.nextafter(2.0, math.inf))
def test_envelopes_match_exact_arithmetic(x):
    for name, envelope, t in (
        ("upper_envelope", upper_envelope, 1 + Fraction(x)),
        ("lower_envelope", lower_envelope, 1 - Fraction(x)),
    ):
        got = outcome(lambda: envelope(x), 3, t=t)
        assert got is not None, f"{name}({x!r}) refused"
        assert_within(name, got, 2 * t / (1 + t * t), 3)


U = Fraction(1, 2**53)  # the unit roundoff
NORMAL = Fraction(2) ** -1022


class Bounded(NamedTuple):
    """An exact value and a bound on how far its float64 evaluation may lie from it."""

    x: Fraction
    err: Fraction

    def may_leave_float64(self) -> bool:
        return abs(self.x) + self.err > MAX


def rounded(x: Fraction, pre: Fraction) -> Bounded:
    """One float64 operation whose exact result is x, on operands that move it by at most pre."""
    return Bounded(x, pre + U * (abs(x) + pre) + TINY / 2)


def sub(a: Bounded, b: Bounded) -> Bounded:
    return rounded(a.x - b.x, a.err + b.err)


def mul(a: Bounded, b: Bounded) -> Bounded:
    return rounded(a.x * b.x, abs(a.x) * b.err + abs(b.x) * a.err + a.err * b.err)


def div(a: Bounded, b: Bounded) -> Bounded:
    """a / b, where b's evaluation cannot be 0."""
    q = a.x / b.x
    return rounded(q, (a.err + abs(q) * b.err) / (abs(b.x) - b.err))


def quotient(a: Bounded, b: Bounded, k: int) -> Bounded:
    """a / b * 2**k as ``losses`` takes it, ldexp(a, k - r) / m for b = m * 2**r: one relative
    rounding, and at most two into the subnormal range, where b's evaluation cannot be 0."""
    q, scale = a.x / b.x, Fraction(2) ** k
    pre = (a.err + abs(q) * b.err) / (abs(b.x) - b.err) * scale
    return Bounded(q * scale, pre + U * (abs(q) * scale + pre) + 2 * TINY)


def dot(xs, ys) -> Bounded:
    n = len(xs)
    pre = sum(abs(x.x) * y.err + abs(y.x) * x.err + x.err * y.err for x, y in zip(xs, ys))
    size = sum(abs(x.x * y.x) for x, y in zip(xs, ys)) + pre
    return Bounded(sum(x.x * y.x for x, y in zip(xs, ys)), pre + n * U / (1 - n * U) * size + n * TINY)


def ldexp(a: Bounded, k: int) -> Bounded:
    """a * 2**k: exact unless its value may fall below the normal range."""
    x, err = a.x * Fraction(2) ** k, a.err * Fraction(2) ** k
    return Bounded(x, err + (TINY / 2 if abs(x) - err < NORMAL else 0))


def loss_reference(variant: str, gold, pred, alpha: float):
    """(loss steps, gradient steps) as ``losses`` evaluates them, the loss and the gradient
    last; None where the reward sum may round to 0, so the loss may be anything."""
    exact = [Bounded(Fraction(v), Fraction(0)) for v in (*gold, *pred)]
    # taken at the power of two of the larger magnitude, for diff at least 2**0
    spans = (math.frexp(max(map(abs, v)))[1] for v in (gold, pred))
    shift = max(*spans, -1074 if variant == "ratio" else 0)
    exact = [ldexp(v, -shift) for v in exact]
    g, p = exact[:len(gold)], exact[len(gold):]
    err = [sub(pi, gi) for gi, pi in zip(g, p)]
    num, gp = dot(err, err), dot(g, p)
    twice = [Bounded(2 * e.x, 2 * e.err) for e in err]  # 2 * eps * err: exact doubling
    if variant == "ratio":
        if abs(gp.x) <= gp.err:
            return None
        inner = div(num, gp)
        grad = [quotient(sub(d, mul(inner, gi)), gp, -shift) for d, gi in zip(twice, g)]
        return [num, gp, inner], [*twice, *grad]
    coef = Bounded(Fraction(alpha), Fraction(0))
    reward = mul(coef, gp)
    inner = ldexp(sub(num, reward), 2 * shift)
    grad = [ldexp(sub(d, mul(coef, gi)), shift) for d, gi in zip(twice, g)]
    return [num, gp, reward, inner], [*twice, *grad]


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)), min_size=1, max_size=8
    ),
    gold_scale=st.integers(-1074, 1013),
    pred_scale=st.integers(-1074, 1013),
    alpha=st.builds(math.ldexp, st.integers(0, 1000), st.integers(-1074, 1013)),
    variant=st.sampled_from(["ratio", "diff"]),
)
# diff: N = 36 * 2**1020 and R = 27 * 2**1020 leave float64, N - R = 9 * 2**1020 does not
@example(pairs=[(3, 9)], gold_scale=510, pred_scale=510, alpha=1.0, variant="diff")
# diff: scaled up, alpha R would be 2**1023 * 1.9; the loss is about -2**-156
@example(pairs=[(1000, 1000)] * 2, gold_scale=-600, pred_scale=-600, alpha=math.ldexp(1000, 1013),
         variant="diff")
# ratio: the small samples fall below the normal range once scaled by the large one's power
@example(pairs=[(1000, 1), (1, 1), (-3, 7)], gold_scale=1013, pred_scale=-60, alpha=1.0, variant="ratio")
# ratio: the gradient is about -2**1023, which in g and p's units (2**2 larger) overflowed
@example(pairs=[(1, 1)], gold_scale=1, pred_scale=-511, alpha=1.0, variant="ratio")
def test_ratio_and_diff_losses_match_exact_arithmetic(pairs, gold_scale, pred_scale, alpha, variant):
    gold = [math.ldexp(g, gold_scale) for g, _ in pairs]
    pred = [math.ldexp(p, pred_scale) for _, p in pairs]
    params = LossParams(variant, alpha=alpha)
    reference = loss_reference(variant, gold, pred, alpha)
    if reference is None:  # the reward may round to 0: Singularity or any value
        return
    loss_steps, grad_steps = reference
    try:
        got = loss(params, gold, pred)
    except InvalidInput as exc:
        assert str(exc) == "loss overflows float64", exc
        steps = loss_steps if variant == "ratio" else loss_steps[-1:]  # diff: N - alpha R itself
        assert any(step.may_leave_float64() for step in steps), f"loss refused: {exc}"
    else:
        want = loss_steps[-1]
        assert abs(Fraction(got) - want.x) <= want.err, f"loss {got!r} vs {float(want.x)!r}"
    try:
        grad = loss_gradient(params, gold, pred).tolist()
    except InvalidInput as exc:
        assert str(exc) in ("loss overflows float64", "loss gradient overflows float64"), exc
        steps = loss_steps + grad_steps
        assert any(step.may_leave_float64() for step in steps), f"gradient refused: {exc}"
        return
    for i, (got_i, want) in enumerate(zip(grad, grad_steps[-len(pairs):])):
        assert abs(Fraction(got_i) - want.x) <= want.err, f"gradient[{i}] {got_i!r} vs {float(want.x)!r}"
