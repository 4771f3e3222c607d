"""Tests for the mse <-> ccc mapping and the constructive envelope bounds."""

import math

import numpy as np
import pytest

from cccmap import (
    DegenerateVariance,
    InvalidInput,
    Singularity,
    TooLarge,
    bounds_given_mse,
    ccc,
    ccc_from_mse_cov,
    center_gold,
    covariance,
    envelope_kernel,
    lower_envelope,
    mse,
    mse_region_table,
    upper_envelope,
    variance_identity_residual,
)
from cccmap.mse_bounds import MAX_GRID_CELLS


def random_pair(rng, n_max=60):
    n = int(rng.integers(2, n_max))
    x = rng.uniform(-10, 10, n)
    y = rng.uniform(-10, 10, n)
    return x, y


class TestMapping:
    def test_perfect_prediction(self):
        assert ccc_from_mse_cov(0.0, 1.7) == 1.0

    def test_equal_terms(self):
        assert ccc_from_mse_cov(3.0, 1.5) == 0.5

    def test_cross_check_against_direct_ccc(self):
        g, p = [1.0, 2.0, 3.0], [2.0, 3.0, 4.0]
        mapped = ccc_from_mse_cov(mse(g, p), covariance(g, p))
        assert mapped == pytest.approx(4.0 / 7.0, rel=1e-12)
        assert mapped == pytest.approx(ccc(g, p), rel=1e-12)

    def test_zero_cov_positive_mse_gives_zero(self):
        assert ccc_from_mse_cov(2.0, 0.0) == 0.0

    def test_exact_singularity(self):
        with pytest.raises(Singularity):
            ccc_from_mse_cov(0.0, 0.0)
        with pytest.raises(Singularity):
            ccc_from_mse_cov(2.0, -1.0)

    def test_negative_mse_rejected(self):
        with pytest.raises(InvalidInput):
            ccc_from_mse_cov(-0.5, 1.0)
        for cov in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidInput, match="cov"):
                ccc_from_mse_cov(1.0, cov)

    def test_terms_near_the_top_of_the_range(self):
        # 0.5*mse + cov is past float64 here; the mapping is homogeneous of degree 0
        assert ccc_from_mse_cov(1.7e308, 1.7e308) == pytest.approx(2 / 3, rel=1e-15)
        assert ccc_from_mse_cov(0.0, 1.7e308) == 1.0
        assert ccc_from_mse_cov(1.7e308, 1.0e308) == pytest.approx(2 / 3.7, rel=1e-15)
        big = np.finfo(np.float64).max
        assert ccc_from_mse_cov(big, big) == pytest.approx(2 / 3, rel=1e-15)

    def test_mapping_identity_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            x, y = random_pair(rng)
            direct = ccc(x, y)
            mapped = ccc_from_mse_cov(mse(x, y), covariance(x, y))
            assert mapped == pytest.approx(direct, rel=1e-12, abs=1e-15)


class TestVarianceIdentity:
    def test_identical_inputs(self):
        x = [1.0, 2.0, 3.0]
        assert variance_identity_residual(x, x) == pytest.approx(0.0, abs=1e-15)

    def test_permuted_triple(self):
        assert variance_identity_residual([1, 2, 3], [3, 1, 2]) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_random_pairs_tight(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            x, y = random_pair(rng)
            left = (
                np.var(x) + np.var(y) + (x.mean() - y.mean()) ** 2
            )  # reference scale
            res = variance_identity_residual(x, y)
            assert abs(res) <= 1e-12 * max(1.0, abs(left))


class TestEnvelopes:
    def test_anchor_points_exact(self):
        assert abs(upper_envelope(0.0) - 1.0) <= 1e-15
        assert abs(lower_envelope(0.0) - 1.0) <= 1e-15
        assert abs(upper_envelope(1.0) - 0.8) <= 1e-15
        assert abs(upper_envelope(2.0) - 0.6) <= 1e-15
        assert abs(lower_envelope(1.0) - 0.0) <= 1e-15
        assert abs(lower_envelope(2.0) - (-1.0)) <= 1e-15

    def test_direct_evaluation_at_1p2(self):
        # 2(1-1.2)/(1+0.04) and 2(2.2)/(1+4.84)
        assert lower_envelope(1.2) == pytest.approx(-0.4 / 1.04, rel=1e-15)
        assert upper_envelope(1.2) == pytest.approx(4.4 / 5.84, rel=1e-15)

    def test_kernel_relations_exact(self):
        for x in np.linspace(0, 5, 23):
            assert upper_envelope(x) == envelope_kernel(1.0 + x)
            assert lower_envelope(x) == envelope_kernel(1.0 - x)

    def test_kernel_past_the_square_root_of_the_range(self):
        t = np.array([1e154, -1e200, 1e300, 1.7976931348623157e308])
        np.testing.assert_allclose(envelope_kernel(t), 2.0 / t, rtol=1e-15)
        assert upper_envelope(1e300) == pytest.approx(2e-300, rel=1e-15)
        assert lower_envelope(1e300) == pytest.approx(-2e-300, rel=1e-15)

    def test_negative_x_rejected(self):
        for x in (-0.5, float("nan")):
            with pytest.raises(InvalidInput):
                upper_envelope(x)
            with pytest.raises(InvalidInput):
                lower_envelope(x)


class TestBoundsGivenMse:
    def test_zero_mse(self):
        res = bounds_given_mse(center_gold([1, 2, 3]), 0.0)
        assert res.ccc_max == 1.0 and res.ccc_min == 1.0
        assert np.all(res.err_max == 0)

    def test_mse_equal_to_variance(self):
        gold = center_gold([1, 2, 3])
        res = bounds_given_mse(gold, gold.var_g)
        assert res.x_param == pytest.approx(1.0, rel=1e-15)
        assert res.ccc_max == pytest.approx(0.8, abs=1e-15)
        assert res.ccc_min == pytest.approx(0.0, abs=1e-15)

    def test_constructive_vectors_for_unit_triple(self):
        gold = center_gold([1, 2, 3])
        res = bounds_given_mse(gold, 2.0 / 3.0)
        np.testing.assert_allclose(res.err_max, [-1.0, 0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(gold.gold + res.err_max, [0.0, 2.0, 4.0], atol=1e-14)
        assert ccc([1, 2, 3], [0, 2, 4]) == pytest.approx(0.8, rel=1e-12)

    def test_negative_mse_rejected(self):
        for mse_value in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidInput):
                bounds_given_mse(center_gold([1, 2, 3]), mse_value)
            with pytest.raises(InvalidInput):
                ccc_from_mse_cov(mse_value, 1.0)

    def test_x_past_the_range_is_named(self):
        gold = center_gold([0.0, 3e-162, 6e-162])  # var_g rounds to the smallest subnormal
        # x from the variance in the kernel's units: sqrt(1e-20 / var_g) with the exact
        # var_g (6e-324, not its subnormal rounding 5e-324), as fractions.Fraction gives it
        assert bounds_given_mse(gold, 1e-20).x_param == pytest.approx(4.08248290463863e151, rel=1e-14)
        with pytest.raises(InvalidInput, match="x overflows"):
            bounds_given_mse(gold, 1e300)

    def test_err_where_x_times_the_kernel_units_would_overflow(self):
        # x is near the top of float64 and a = gold / 2**e - mu reaches 1.575, yet err is 4e154
        gold = center_gold([math.ldexp(v, -514) for v in [-7] * 9 + [7]])
        result = bounds_given_mse(gold, 1.7e308)
        assert result.x_param > 1.6e308
        np.testing.assert_array_equal(result.err_max, result.x_param * gold.centered)

    def test_constant_gold_rejected(self):
        with pytest.raises(DegenerateVariance):
            center_gold([4, 4, 4])

    def test_gold_variance_overflow_is_named(self):
        gold = center_gold([1e160, 2e160, 4e160])  # prepared: only var_g itself leaves float64
        with pytest.raises(InvalidInput, match="^var_g overflows float64$"):
            gold.var_g  # noqa: B018
        assert gold.sigma_g == pytest.approx(math.sqrt(14 / 9) * 1e160, rel=1e-15)
        assert bounds_given_mse(gold, 4.0).x_param == 1.6035674514745462e-160
        assert center_gold([1e150, 2e150, 4e150]).var_g == pytest.approx(14e300 / 9, rel=1e-15)

    def test_attainment_random(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            g = rng.uniform(-10, 10, n)
            gold = center_gold(g)
            target = float(rng.uniform(0, 9.0)) * gold.var_g
            res = bounds_given_mse(gold, target)
            for err, want in ((res.err_max, res.ccc_max), (-res.err_max, res.ccc_min)):
                assert mse(g, g + err) == pytest.approx(target, rel=1e-12, abs=1e-15)
                assert ccc(g, g + err) == pytest.approx(want, abs=1e-10)

    def test_dominance_on_random_sphere_points(self):
        # any error vector with the same mse stays inside the envelopes
        rng = np.random.default_rng(5)
        g = rng.uniform(-3, 3, 12)
        gold = center_gold(g)
        for _ in range(500):
            d = rng.standard_normal(12)
            target = float(rng.uniform(0.01, 8.0)) * gold.var_g
            d *= np.sqrt(12 * target) / np.linalg.norm(d)
            x = np.sqrt(target / gold.var_g)
            val = ccc(g, g + d)
            assert val <= upper_envelope(x) + 1e-9
            assert val >= lower_envelope(x) - 1e-9

    def test_headline_counterexample(self):
        # smaller mse with strictly smaller ccc: lower branch at x=1 vs upper at x=2
        gold = center_gold([0.3, 1.9, 2.4, 4.0, 5.5])
        mse_1 = gold.var_g
        mse_2 = 4.0 * gold.var_g
        res_1 = bounds_given_mse(gold, mse_1)
        res_2 = bounds_given_mse(gold, mse_2)
        ccc_1 = ccc(gold.gold, gold.gold - res_1.err_max)
        ccc_2 = ccc(gold.gold, gold.gold + res_2.err_max)
        assert mse_1 < mse_2
        assert ccc_1 < ccc_2


class TestRegionTable:
    def test_labeled_points(self):
        rows = mse_region_table(2.0, 3)
        np.testing.assert_allclose(rows[:, 0], [0.0, 1.0, 2.0], atol=1e-15)
        np.testing.assert_allclose(rows[:, 1], [1.0, 0.8, 0.6], atol=1e-15)
        np.testing.assert_allclose(rows[:, 2], [1.0, 0.0, -1.0], atol=1e-15)

    def test_degenerate_single_x(self):
        rows = mse_region_table(0.0, 2)
        assert rows.shape == (2, 3)
        np.testing.assert_allclose(rows, [[0, 1, 1], [0, 1, 1]], atol=1e-15)

    def test_upper_column_strictly_decreasing(self):
        rows = mse_region_table(5.0, 200)
        assert np.all(np.diff(rows[:, 1]) < 0)

    def test_bad_steps(self):
        with pytest.raises(InvalidInput):
            mse_region_table(1.0, 1)
        for x_max in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidInput, match="x_max"):
                mse_region_table(x_max, 3)

    def test_the_cell_cap(self):
        # the cap is checked before numpy allocates: 2**63 rows would be an IndexError there
        assert mse_region_table(1.0, MAX_GRID_CELLS // 3).shape == (MAX_GRID_CELLS // 3, 3)
        for steps in (MAX_GRID_CELLS // 3 + 1, 2**63, 10**30):
            with pytest.raises(TooLarge, match=rf"^3 \* steps = {3 * steps} grid cells"):
                mse_region_table(1.0, steps)
