"""Unit and property tests for the paired-sequence statistics layer."""

import decimal
import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cccmap import (
    DegenerateVariance,
    InvalidInput,
    ccc,
    covariance,
    error_set,
    lp_norm,
    mae,
    mean,
    mke,
    mse,
    pair_stats,
    pearson,
    population_variance,
)
from cccmap.mse_bounds import center_gold

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def seqs(min_size=1, max_size=40):
    return st.lists(finite_floats, min_size=min_size, max_size=max_size)


class TestMean:
    def test_symmetric(self):
        assert mean([1, 2, 3]) == 2.0

    def test_zeros(self):
        assert mean([0, 0, 0, 0]) == 0.0

    def test_thirds(self):
        # direct sum/3
        assert mean([0.1, 0.2, 0.7]) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            mean([])

    def test_nan_rejected(self):
        with pytest.raises(InvalidInput):
            mean([1.0, float("nan")])


class TestPopulationVariance:
    def test_constant(self):
        assert population_variance([5.5, 5.5, 5.5]) == 0.0

    def test_hand_computed(self):
        # (1 + 0 + 1)/3
        assert population_variance([1, 2, 3]) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_symmetric_pair(self):
        assert population_variance([-1, 1]) == 1.0


class TestCovariance:
    def test_self_is_variance(self):
        assert covariance([1, 2, 3], [1, 2, 3]) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_sign_flip(self):
        assert covariance([1, 2, 3], [3, 2, 1]) == pytest.approx(-2.0 / 3.0, rel=1e-12)

    def test_constant_second(self):
        assert covariance([1, 2, 3], [5, 5, 5]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            covariance([1, 2], [1, 2, 3])


class TestPearson:
    def test_exact_linear(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson(x, 2 * x + 3) == pytest.approx(1.0, abs=1e-15)

    def test_negation(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-15)

    def test_hand_computed(self):
        # cov=1, var=var=1.25 -> 0.8
        assert pearson([1, 2, 3, 4], [1, 2, 4, 3]) == pytest.approx(0.8, rel=1e-12)

    def test_constant_rejected(self):
        with pytest.raises(DegenerateVariance):
            pearson([1, 1, 1], [1, 2, 3])


class TestCcc:
    def test_identity(self):
        assert ccc([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-15)

    def test_exact_negation_zero_mean(self):
        assert ccc([1, 0, -1], [-1, 0, 1]) == pytest.approx(-1.0, abs=1e-15)

    def test_shifted_pair(self):
        # var 2/3 each, cov 2/3, mean gap 1 -> 4/7
        assert ccc([1, 2, 3], [2, 3, 4]) == pytest.approx(4.0 / 7.0, rel=1e-12)

    def test_zero_cov_is_exact_zero(self):
        assert ccc([1, 2, 3], [2, 2, 2]) == 0.0

    def test_both_constant_rejected(self):
        with pytest.raises(DegenerateVariance):
            ccc([1, 1, 1], [2, 2, 2])


class TestNormsAndErrors:
    def test_l2_of_ones(self):
        assert lp_norm([1, 1, 1], 2) == pytest.approx(math.sqrt(3), rel=1e-15)

    def test_pythagorean(self):
        assert lp_norm([3, -4], 2) == pytest.approx(5.0, abs=1e-15)

    def test_l1_absolute_sum(self):
        assert lp_norm([1, -2, 3], 1) == pytest.approx(6.0, abs=1e-15)

    def test_bad_p(self):
        for p in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidInput):
                lp_norm([1, 2], p)
            with pytest.raises(InvalidInput):
                mke([1, 2], [0, 0], p)

    def test_unit_offsets(self):
        assert mse([1, 2, 3], [2, 3, 4]) == pytest.approx(1.0, abs=1e-15)

    def test_identical_inputs_zero(self):
        x = [0.3, 1.7, -2.2]
        assert mse(x, x) == 0.0
        assert mae(x, x) == 0.0
        assert mke(x, x, 4) == 0.0

    def test_power_sum(self):
        # errors [1, 2], k=4 -> (1 + 16)/2
        assert mke([1, 2], [0, 0], 4) == pytest.approx(8.5, rel=1e-12)

    def test_mismatch(self):
        with pytest.raises(InvalidInput):
            mse([1], [1, 2])


class TestPairStats:
    def test_blocks_agree_with_scalar_functions(self):
        x, y = [1.0, 2.0, 3.0, 4.0], [1.5, 2.0, 4.0, 3.0]
        s = pair_stats(x, y)
        assert s.ccc == ccc(x, y)
        assert s.pearson == pearson(x, y)
        assert s.mse == mse(x, y)
        assert 0 < s.c_b <= 1
        # c_b * pearson == ccc
        assert s.c_b * s.pearson == pytest.approx(s.ccc, rel=1e-12)

    def test_constant_rejected(self):
        with pytest.raises(DegenerateVariance):
            pair_stats([1, 1, 1], [1, 2, 3])

    def test_ccc_equals_pearson_iff_matched_moments(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(-3, 3, 20)
        shuffled = rng.permutation(x)  # same mean and variance
        s = pair_stats(x, shuffled)
        assert s.ccc == pytest.approx(s.pearson, rel=1e-12, abs=1e-15)
        assert s.c_b == pytest.approx(1.0, rel=1e-12)
        shifted = pair_stats(x, x + 1.0)  # mean gap breaks the equality
        assert abs(shifted.ccc) < abs(shifted.pearson)
        scaled = pair_stats(x, x * 2.0)  # variance gap breaks it too
        assert abs(scaled.ccc) < abs(scaled.pearson)


# ---------------------------------------------------------------------------
# invariants


@given(seqs(min_size=2), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_symmetry(values, rnd):
    x = np.asarray(values)
    y = np.asarray([rnd.uniform(-10, 10) for _ in values])
    assume(population_variance(x) > 0 or population_variance(y) > 0)
    assert ccc(x, y) == pytest.approx(ccc(y, x), rel=1e-12, abs=1e-15)
    assert mse(x, y) == mse(y, x)


@given(seqs(min_size=2), st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_bound_chain(values, seed):
    x = np.asarray(values)
    rng = np.random.default_rng(seed)
    y = rng.uniform(-10, 10, x.size)
    assume(population_variance(x) > 0 and population_variance(y) > 0)
    rho = pearson(x, y)
    rho_c = ccc(x, y)
    assert -1 <= -abs(rho) <= rho_c + 1e-12
    assert rho_c <= abs(rho) + 1e-12 <= 1 + 1e-12
    if rho != 0:
        assert np.sign(rho_c) in (0.0, np.sign(rho))


@given(seqs(min_size=2))
@settings(max_examples=60, deadline=None)
def test_perfect_agreement_iff_identical(values):
    x = np.asarray(values)
    assume(population_variance(x) > 0)
    assert ccc(x, x) == pytest.approx(1.0, abs=1e-15)
    bumped = x.copy()
    bumped[0] += 1.0 + abs(bumped[0])
    assert ccc(x, bumped) < 1.0


def test_perfect_disagreement_needs_zero_mean():
    # ccc == -1 iff prediction == -gold elementwise, which forces mean zero
    rng = np.random.default_rng(7)
    y = rng.uniform(-5, 5, 9)
    y -= y.mean()
    assert ccc(-y, y) == pytest.approx(-1.0, abs=1e-14)
    shifted = y + 3.0  # nonzero mean: negation no longer attains -1
    assert ccc(-shifted, shifted) > -1.0
    bumped = -y.copy()
    bumped[0] += 0.5
    assert ccc(bumped, y) > -1.0


@given(seqs(min_size=2), st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_mke_consistency(values, seed):
    x = np.asarray(values)
    rng = np.random.default_rng(seed)
    y = rng.uniform(-10, 10, x.size)
    assert mke(x, y, 2) == pytest.approx(mse(x, y), rel=1e-12, abs=1e-300)
    assert mke(x, y, 1) == pytest.approx(mae(x, y), rel=1e-12, abs=1e-300)


@given(
    seqs(min_size=1),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=1.01, max_value=4.0),
)
@settings(max_examples=60, deadline=None)
def test_norm_monotonicity(values, r, ratio):
    e = np.asarray(values)
    p = r * ratio
    assert lp_norm(e, p) <= lp_norm(e, r) * (1 + 1e-12) + 1e-300


# ---------------------------------------------------------------------------
# range: the moment kernel over the whole finite float64 range

RANGE_X = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
RANGE_Y = np.array([2.0, 1.0, 4.0, 3.0, 7.0, 5.0])

int_pairs = st.lists(
    st.tuples(st.integers(-10_000, 10_000), st.integers(-10_000, 10_000)),
    min_size=2,
    max_size=30,
)
# |a| in [2**-500, 2**500) with a two-bit mantissa, so a * x and a * (x + c) are
# exact for the integer samples above and every difference is the kernel's own.
scales = st.builds(
    lambda sign, m, k: sign * math.ldexp(m, k),
    st.sampled_from([-1.0, 1.0]),
    st.sampled_from([1.0, 1.25, 1.5, 1.75]),
    st.integers(-500, 499),
)


def _columns(pairs):
    x, y = zip(*pairs)
    return np.array(x, dtype=np.float64), np.array(y, dtype=np.float64)


@given(int_pairs, scales, st.integers(-10, 10))
@settings(max_examples=200, deadline=None)
def test_ccc_affine_equivariance_over_the_range(pairs, a, c):
    x, y = _columns(pairs)
    assume(np.ptp(x) > 0 or np.ptp(y) > 0)
    b = a * c
    assert math.isclose(ccc(a * x + b, a * y + b), ccc(x, y), rel_tol=1e-12, abs_tol=1e-12)


@given(int_pairs, scales)
@settings(max_examples=200, deadline=None)
def test_symmetry_over_the_range(pairs, a):
    x, y = _columns(pairs)
    assume(np.ptp(x) > 0 and np.ptp(y) > 0)
    x, y = a * x, a * y
    assert ccc(x, y) == ccc(y, x)
    assert pearson(x, y) == pearson(y, x)
    try:
        cov = covariance(x, y)
    except InvalidInput:
        with pytest.raises(InvalidInput):
            covariance(y, x)
    else:
        assert covariance(y, x) == cov


@given(int_pairs, scales)
@settings(max_examples=200, deadline=None)
def test_pearson_bounded_and_scale_free_over_the_range(pairs, a):
    x, y = _columns(pairs)
    assume(np.ptp(x) > 0 and np.ptp(y) > 0)
    rho = pearson(a * x, a * y)
    assert -1.0 <= rho <= 1.0
    assert math.isclose(rho, pearson(x, y), rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-150, 1e150, 1e160, 1e300])
def test_correlations_at_extreme_magnitudes(scale):
    x, y = RANGE_X * scale, RANGE_Y * scale
    assert pearson(x, y) == pytest.approx(pearson(RANGE_X, RANGE_Y), rel=1e-12)
    assert ccc(x, y) == pytest.approx(ccc(RANGE_X, RANGE_Y), rel=1e-12)


def test_overflowing_moment_is_named():
    with pytest.raises(InvalidInput, match="var_x"):
        pair_stats(RANGE_X * 1e160, RANGE_Y)
    with pytest.raises(InvalidInput, match="var_y"):
        pair_stats(RANGE_X, RANGE_Y * 1e160)
    with pytest.raises(InvalidInput, match="variance"):
        population_variance(RANGE_X * 1e160)


def _exact_pair_stats(x, y) -> tuple[dict, dict]:
    """PairStats fields of float arrays in exact rationals (roots in 60 digits), and
    the scale each float field is accurate to."""
    xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    vx = sum((a - mx) ** 2 for a in xs) / n
    vy = sum((b - my) ** 2 for b in ys) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / n
    denom = vx + vy + (mx - my) ** 2
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        dec = lambda f: decimal.Decimal(f.numerator) / decimal.Decimal(f.denominator)  # noqa: E731
        sx, sy = dec(vx).sqrt(), dec(vy).sqrt()
        ref = {
            "n": n, "mu_x": dec(mx), "mu_y": dec(my), "var_x": dec(vx), "var_y": dec(vy),
            "cov_xy": dec(cov), "pearson": dec(cov) / (sx * sy), "c_b": 2 * sx * sy / dec(denom),
            "ccc": dec(2 * cov / denom),
            "mse": dec(sum((a - b) ** 2 for a, b in zip(xs, ys)) / n),
            "mae": dec(sum(abs(a - b) for a, b in zip(xs, ys)) / n),
            "shift_penalty": dec(mx - my) / (sx * sy).sqrt(), "scale_penalty": sx / sy,
        }
        big = decimal.Decimal(max(np.abs(x).max(), np.abs(y).max()))
        scale = {
            "n": 0, "mu_x": decimal.Decimal(np.abs(x).max()), "mu_y": decimal.Decimal(np.abs(y).max()),
            "var_x": ref["var_x"], "var_y": ref["var_y"], "cov_xy": sx * sy, "pearson": 1,
            "c_b": ref["c_b"], "ccc": ref["c_b"], "mse": ref["mse"], "mae": ref["mae"],
            "shift_penalty": big / (sx * sy).sqrt(), "scale_penalty": ref["scale_penalty"],
        }
    return ref, scale


@given(int_pairs, st.integers(-1100, 1010), st.integers(-1100, 1010))
@settings(max_examples=300, deadline=None)
def test_pair_stats_against_exact_arithmetic_at_independent_scales(pairs, i, j):
    """Each column at its own power of two anywhere in float64: every field is exact
    to 1e-12 of its scale, or the error names a field that does not fit in float64."""
    x, y = _columns(pairs)
    x, y = np.ldexp(x, i), np.ldexp(y, j)
    assume(np.any(x != x[0]) and np.any(y != y[0]))
    ref, scale = _exact_pair_stats(x, y)
    try:
        got = asdict(pair_stats(x, y))
    except InvalidInput as err:
        name = str(err).split()[0]
        assert abs(ref[name]) > decimal.Decimal(1e308), str(err)
        return
    for name, value in got.items():
        error = abs(decimal.Decimal(value) - ref[name])
        assert error <= decimal.Decimal(1e-12) * scale[name] + decimal.Decimal(2.0**-1070), name
    # one implementation: the public functions return the pair_stats fields bit for bit
    assert (mse(x, y), mae(x, y), mke(x, y, 2), mke(x, y, 1)) == (got["mse"], got["mae"]) * 2
    assert (ccc(x, y), pearson(x, y), covariance(x, y)) == (got["ccc"], got["pearson"], got["cov_xy"])
    assert population_variance(x) == got["var_x"]
    if got["var_y"] == 0.0:  # nonconstant, but the variance underflows
        with pytest.raises(DegenerateVariance):
            center_gold(y)
    else:
        gold = center_gold(y)
        assert (gold.mu_g, gold.var_g) == (got["mu_y"], got["var_y"])


@pytest.mark.parametrize("x", [[1.0, 2.0, 3.0, 4.0], [1e20, 2e20, 3e20, 4e20], [1.0, 1.0 + 2.0**-52, 1.0, 1.0]])
@pytest.mark.parametrize("tiny", [1e-150, 1e-170, 1e-300])
def test_pearson_of_columns_far_apart_in_magnitude(x, tiny):
    y = [1.0, 2.0, 4.0, 3.0]
    assert pearson(x, [tiny * v for v in y]) == pytest.approx(pearson(x, y), rel=1e-12)


def test_error_means_over_the_range():
    assert mse([1e100, 1e-150], [1e100, 0.0]) == pytest.approx(5e-301, rel=1e-12)
    assert mae([1e300, -1e300], [-1e300, 1e300]) == 2e300
    for fn in (mse, lambda x, y: pair_stats(x, y).mse):
        with pytest.raises(InvalidInput, match="mse"):
            fn([1e154, -1e154], [-1e154, 1e154])  # every moment fits, mse = 4e308 does not
    assert lp_norm([1e200, 1e200], 2) == pytest.approx(2**0.5 * 1e200, rel=1e-15)
    assert lp_norm([3e-200, -4e-200], 2) == pytest.approx(5e-200, rel=1e-15)
    with pytest.raises(InvalidInput, match="lp_norm"):
        lp_norm([1.5e308, 1.5e308], 2)
    assert mean([1e308, 1e308]) == 1e308
    errors = error_set([1e150, -2e150, 3e150])
    assert (errors.mu_e, errors.mse) == pytest.approx((2e150 / 3, 14e300 / 3), rel=1e-15)
    with pytest.raises(InvalidInput, match="mse"):
        error_set([1e160, -2e160, 3e160])
