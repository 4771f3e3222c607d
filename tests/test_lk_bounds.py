"""Tests for the norm sandwich, the rmse band, and the fixed-L_k envelopes."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cccmap import (
    InvalidInput,
    NoConjugate,
    ccc,
    center_gold,
    conjugate_theta,
    envelope_given_lk,
    lk_region_table,
    lower_envelope,
    lp_norm,
    norm_sandwich,
    theta_band,
    upper_envelope,
)
from cccmap.lk_bounds import lk_region_columns, theta_grid
from cccmap.mse_bounds import mse_region_table


class TestNormSandwich:
    def test_hand_computed_triple(self):
        lo, mid, hi = norm_sandwich([1, 2, 3], 1, 2)
        assert lo == pytest.approx(math.sqrt(14), rel=1e-15)
        assert mid == pytest.approx(6.0, abs=1e-15)
        assert hi == pytest.approx(math.sqrt(42), rel=1e-12)
        assert lo <= mid <= hi

    def test_constant_vector_upper_tight(self):
        lo, mid, hi = norm_sandwich([2.5] * 7, 1, 2)
        assert mid == pytest.approx(hi, rel=1e-12)
        assert mid > lo

    def test_single_spike_lower_tight(self):
        lo, mid, hi = norm_sandwich([0, 0, -3.7, 0], 1, 2)
        assert mid == pytest.approx(lo, rel=1e-12)
        assert mid < hi

    def test_bad_order_rejected(self):
        with pytest.raises(InvalidInput):
            norm_sandwich([1, 2], 2, 2)
        with pytest.raises(InvalidInput):
            norm_sandwich([1, 2], 3, 2)

    def test_random_never_violates(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(1, 30))
            e = rng.standard_normal(n) * rng.uniform(0.1, 10)
            r = float(rng.uniform(0.2, 4.0))
            p = r * float(rng.uniform(1.05, 3.0))
            lo, mid, hi = norm_sandwich(e, r, p)
            assert lo <= mid * (1 + 1e-12)
            assert mid <= hi * (1 + 1e-12)


class TestThetaBand:
    def test_k2_collapses(self):
        for n in (2, 17, 1000):
            band = theta_band(2, n, 1.0)
            assert band.theta_max == 1.0
            assert band.rmse_min == band.rmse_max

    def test_k1_n64(self):
        band = theta_band(1, 64, 3.0)
        assert band.theta_max == pytest.approx(8.0, abs=1e-15)

    def test_k4_n16(self):
        # n^((k-2)/(2k)) = 16^(2/8) = 2
        band = theta_band(4, 16, 1.0)
        assert band.theta_max == pytest.approx(2.0, rel=1e-15)

    def test_band_scaling_relation(self):
        band = theta_band(4, 10, 2.5)
        assert band.rmse_max == pytest.approx(band.theta_max * band.rmse_min, rel=1e-15)
        assert band.theta_min == 1.0

    def test_theta_of_random_vectors_in_band(self):
        rng = np.random.default_rng(10)
        for _ in range(400):
            n = int(rng.integers(2, 40))
            k = float(rng.uniform(0.3, 6.0))
            e = rng.standard_normal(n) * rng.uniform(0.1, 5)
            band = theta_band(k, n, lp_norm(e, k))
            rmse = math.sqrt(float((e * e).mean()))
            theta = rmse / band.rmse_min
            assert 1 - 1e-12 <= theta <= band.theta_max * (1 + 1e-12)


class TestConjugateTheta:
    def test_documented_pair(self):
        assert conjugate_theta(8.0, 0.75) == pytest.approx(1.6, rel=1e-15)
        assert lower_envelope(6.0) == pytest.approx(-0.3846, abs=5e-5)

    def test_self_conjugate_at_minimum(self):
        x = 0.4
        theta0 = 2.0 / x
        assert conjugate_theta(theta0, x) == pytest.approx(theta0, rel=1e-15)

    def test_involution_and_value_match(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            x = float(rng.uniform(0.05, 3.0))
            theta1 = float(rng.uniform(1.0 / x + 1e-3, 10.0 / x))
            theta2 = conjugate_theta(theta1, x)
            assert conjugate_theta(theta2, x) == pytest.approx(theta1, rel=1e-12)
            assert lower_envelope(theta1 * x) == pytest.approx(
                lower_envelope(theta2 * x), rel=1e-12, abs=1e-12
            )

    def test_no_conjugate_on_nonnegative_branch(self):
        with pytest.raises(NoConjugate):
            conjugate_theta(1.0, 0.5)


class TestEnvelopeGivenLk:
    def test_small_x_hits_zero_at_inverse_theta_max(self):
        # theta_max = 8 for k=1, n=64; lower envelope reaches 0 at x = 1/8
        env = envelope_given_lk(1, 64, lk=8.0, sigma_g=1.0)
        assert env.x == pytest.approx(0.125, rel=1e-15)
        assert env.ccc_lower == pytest.approx(0.0, abs=1e-15)

    def test_family_member_at_x075_theta8(self):
        env = envelope_given_lk(1, 64, lk=48.0, sigma_g=1.0, theta=8.0)
        assert env.x == pytest.approx(0.75, rel=1e-15)
        assert env.ccc_lower_at_theta == pytest.approx(-10.0 / 26.0, rel=1e-12)
        assert env.ccc_lower == -1.0  # 2/8 <= 0.75 <= 2: bottom of the band
        assert env.theta_at_min == pytest.approx(2.0 / 0.75, rel=1e-15)

    def test_curves_rejoin_for_large_x(self):
        env = envelope_given_lk(1, 64, lk=192.0, sigma_g=1.0, theta=1.0)
        assert env.x == pytest.approx(3.0, rel=1e-15)
        assert env.ccc_lower == pytest.approx(float(lower_envelope(3.0)), rel=1e-15)
        assert env.ccc_lower_at_theta == env.ccc_lower

    def test_upper_is_mse_envelope(self):
        env = envelope_given_lk(4, 20, lk=1.3, sigma_g=0.7)
        assert env.ccc_upper == pytest.approx(float(upper_envelope(env.x)), rel=1e-15)

    def test_theta_out_of_range(self):
        with pytest.raises(InvalidInput):
            envelope_given_lk(1, 64, lk=1.0, sigma_g=1.0, theta=9.0)
        with pytest.raises(InvalidInput):
            envelope_given_lk(1, 64, lk=1.0, sigma_g=1.0, theta=0.5)

    def test_nonfinite_lk_rejected(self):
        for lk in (float("nan"), float("inf")):
            with pytest.raises(InvalidInput):
                envelope_given_lk(1, 64, lk=lk, sigma_g=1.0)
            with pytest.raises(InvalidInput):
                theta_band(lk, 64, 1.0)  # as k

    def test_band_overflow_is_typed(self):
        with pytest.raises(InvalidInput, match="overflows"):
            theta_band(0.001, 64, 8.0)

    def test_containment_of_random_vectors(self):
        # every vector with the given L_k norm lands inside the outer envelope
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(3, 20))
            g = rng.uniform(-5, 5, n)
            gold = center_gold(g)
            sigma_g = math.sqrt(gold.var_g)
            k = float(rng.choice([0.5, 1.0, 1.5, 3.0, 4.0]))
            lk = float(rng.uniform(0.2, 4.0)) * sigma_g
            env = envelope_given_lk(k, n, lk, sigma_g)
            for _ in range(40):
                d = rng.standard_normal(n)
                d *= lk / lp_norm(d, k)
                val = ccc(g, g + d)
                assert val <= env.ccc_upper + 1e-9
                assert val >= env.ccc_lower - 1e-9


class TestRegionTable:
    def test_k2_degenerates_to_mse_table(self):
        rows, thetas = lk_region_table(2, 50, x_max=3.0, steps=40, theta_steps=4)
        base = mse_region_table(3.0, 40)
        np.testing.assert_allclose(rows[:, :3], base, atol=1e-15)
        assert np.all(thetas == 1.0)
        for j in range(3, rows.shape[1]):
            np.testing.assert_allclose(rows[:, j], base[:, 2], atol=1e-15)

    def test_middle_branch_reaches_minus_one(self):
        rows, thetas = lk_region_table(1, 64, x_max=2.0, steps=5, theta_steps=4)
        np.testing.assert_allclose(thetas, [1.0, 2.0, 4.0, 8.0], rtol=1e-12)
        row = rows[np.isclose(rows[:, 0], 0.5)][0]
        assert min(row[3:]) == pytest.approx(-1.0, abs=1e-12)
        assert row[2] == -1.0  # piecewise envelope bottoms out

    def test_upper_column_is_k_independent(self):
        rows_a, _ = lk_region_table(1, 64, x_max=2.5, steps=30)
        rows_b, _ = lk_region_table(4, 64, x_max=2.5, steps=30)
        np.testing.assert_allclose(rows_a[:, 1], rows_b[:, 1], atol=1e-15)

    def test_column_names_match_width(self):
        rows, thetas = lk_region_table(1, 16, x_max=1.0, steps=3, theta_steps=5)
        names = lk_region_columns(thetas)
        assert len(names) == rows.shape[1]
        assert names[:3] == ("x", "psi_upper", "psi_lower")


@given(st.integers(2, 500), st.floats(0.2, 6.0))
@settings(max_examples=60, deadline=None)
def test_theta_grid_endpoints(n, k):
    assume(abs(k - 2) > 1e-6)
    tmax = theta_band(k, n, 1.0).theta_max
    grid = theta_grid(tmax, 6)
    assert grid[0] == pytest.approx(1.0, rel=1e-12)
    assert grid[-1] == pytest.approx(tmax, rel=1e-12)
    assert np.all(np.diff(grid) > 0)
