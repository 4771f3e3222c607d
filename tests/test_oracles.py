"""Tests for the brute-force verifiers themselves."""

import itertools

import numpy as np
import pytest

from cccmap import (
    InvalidInput,
    TooLarge,
    ccc,
    bounds_given_mse,
    center_gold,
    error_set,
    finite_difference,
    lk_sphere_oracle,
    lower_envelope,
    lp_norm,
    mse,
    mse_sphere_oracle,
    optimal_permutations,
    permutation_oracle,
    theta_band,
    upper_envelope,
)
from cccmap.ordering import GOLD_MINUS_PRED, PRED_MINUS_GOLD


class TestPermutationOracle:
    def test_three_distinct_values(self):
        g = [1.0, 3.0, 2.0]
        es = error_set([0.5, -1.0, 2.0])
        report = permutation_oracle(g, es, PRED_MINUS_GOLD)
        assert report.trials == 6
        # independent re-enumeration in plain python
        vals = [ccc(g, np.asarray(g) + np.array(p)) for p in itertools.permutations(es.values)]
        assert report.best_value == pytest.approx(max(vals), abs=1e-14)
        assert report.worst_value == pytest.approx(min(vals), abs=1e-14)
        ext = optimal_permutations(g, es)
        assert report.best_value == pytest.approx(ext.max_add.ccc_value, abs=1e-10)

    def test_constant_errors_collapse(self):
        report = permutation_oracle([1, 2, 3], error_set([0.4, 0.4, 0.4]), GOLD_MINUS_PRED)
        assert report.best_value == report.worst_value

    def test_factorial_guard(self):
        with pytest.raises(TooLarge):
            permutation_oracle(list(range(10)), error_set(list(range(10))), PRED_MINUS_GOLD)


class TestMseSphereOracle:
    def test_reproducible_under_seed(self):
        g = [0.0, 1.0, 3.0, 2.0]
        a = mse_sphere_oracle(g, 0.8, trials=500, seed=123)
        b = mse_sphere_oracle(g, 0.8, trials=500, seed=123)
        assert a.best_value == b.best_value
        assert a.worst_value == b.worst_value
        np.testing.assert_array_equal(a.witness_best, b.witness_best)

    def test_samples_respect_envelopes_and_theorem_vector_attains(self):
        rng = np.random.default_rng(0)
        g = rng.uniform(-2, 2, 10)
        gold = center_gold(g)
        target = 1.3 * gold.var_g
        x = np.sqrt(target / gold.var_g)
        report = mse_sphere_oracle(g, target, trials=20_000, seed=7)
        hi, lo = float(upper_envelope(x)), float(lower_envelope(x))
        assert report.best_value <= hi + 1e-9
        assert report.worst_value >= lo - 1e-9
        # the constructive vector closes the gap exactly
        res = bounds_given_mse(gold, target)
        attained = ccc(g, g + res.err_max)
        assert max(report.best_value, attained) == pytest.approx(hi, abs=1e-10)

    def test_small_mse_drives_ccc_to_one(self):
        g = [1.0, 2.0, 5.0, 3.0]
        report = mse_sphere_oracle(g, 1e-10, trials=2000, seed=3)
        assert report.worst_value > 0.999

    def test_witness_norm_matches_constraint(self):
        g = [1.0, 2.0, 5.0, 3.0]
        report = mse_sphere_oracle(g, 0.5, trials=100, seed=9)
        assert mse(g, np.asarray(g) + report.witness_best) == pytest.approx(0.5, rel=1e-12)


class TestLkSphereOracle:
    def test_k2_reduces_to_mse_sphere(self):
        g = [0.5, 2.0, -1.0, 3.0, 1.0]
        n = len(g)
        lk = 1.7
        a = lk_sphere_oracle(g, 2.0, lk, trials=3000, seed=11)
        b = mse_sphere_oracle(g, lk**2 / n, trials=3000, seed=11)
        assert a.best_value == pytest.approx(b.best_value, rel=1e-12)
        assert a.worst_value == pytest.approx(b.worst_value, rel=1e-12)

    def test_within_outer_envelope_and_theta_in_band(self):
        rng = np.random.default_rng(1)
        g = rng.uniform(-3, 3, 8)
        gold = center_gold(g)
        sigma_g = float(np.sqrt(gold.var_g))
        k, lk = 4.0, 2.2 * sigma_g
        report = lk_sphere_oracle(g, k, lk, trials=20_000, seed=5)
        band = theta_band(k, gold.n, lk)
        x = band.rmse_min / sigma_g
        hi = float(upper_envelope(x))
        assert report.best_value <= hi + 1e-9
        # per-sample theta check on a fresh draw with the oracle's scaling rule
        sample_rng = np.random.default_rng(5)
        d = sample_rng.standard_normal((1000, gold.n))
        d *= (lk / np.sum(np.abs(d) ** k, axis=1) ** (1 / k))[:, None]
        theta = np.sqrt((d * d).mean(axis=1)) / band.rmse_min
        assert np.all(theta >= 1 - 1e-12)
        assert np.all(theta <= band.theta_max * (1 + 1e-12))

    def test_nonfinite_parameters_rejected(self):
        g = np.array([1.0, 2.0, 3.0])
        for k, lk in ((float("inf"), 1.0), (float("nan"), 1.0), (4.0, float("inf")), (4.0, float("nan"))):
            with pytest.raises(InvalidInput):
                lk_sphere_oracle(g, k, lk, trials=10, seed=0)

    def test_witness_lk_norm(self):
        g = [1.0, 2.0, 5.0, 3.0]
        report = lk_sphere_oracle(g, 4.0, 1.9, trials=50, seed=2)
        assert lp_norm(report.witness_worst, 4.0) == pytest.approx(1.9, rel=1e-12)


class TestFiniteDifference:
    def test_quadratic(self):
        grad = finite_difference(lambda v: float(np.sum(v * v)), [1.0, 2.0], h=1e-6)
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-9)

    def test_mse_gradient(self):
        g = np.array([1.0, 2.0, 3.0])
        p = np.array([1.5, 1.0, 2.0])
        grad = finite_difference(lambda v: mse(g, v), p, h=1e-6)
        np.testing.assert_allclose(grad, 2 * (p - g) / 3, atol=1e-9)

    def test_h_sweep_plateau(self):
        f = lambda v: float(np.sum(v**3))
        at = np.array([0.7, -1.3, 2.1])
        exact = 3 * at**2
        errs = [
            float(np.max(np.abs(finite_difference(f, at, h) - exact)))
            for h in (1e-4, 1e-5, 1e-6)
        ]
        assert errs[0] <= 1e-6
        assert errs[1] <= errs[0]
        assert all(e <= 1e-6 for e in errs)
