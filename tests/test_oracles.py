"""Tests for the brute-force verifiers themselves."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cccmap import (
    DegenerateVariance,
    InvalidInput,
    TooLarge,
    ccc,
    bounds_given_mse,
    center_gold,
    envelope_given_lk,
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
from cccmap import stats
from cccmap.oracles import _permutation_table
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

    def test_a_constant_prediction_scores_as_stats_ccc_does(self):
        # the identity ordering predicts 0.78 everywhere; the mean of a constant row is
        # its first value, in a batch as alone, so its ccc is exactly 0
        g = np.array([0.91, -0.7, 0.95])
        report = permutation_oracle(g, error_set(0.78 - g), PRED_MINUS_GOLD)
        assert np.ptp(report.witness_worst) == 0.0
        assert report.worst_value == ccc(g, report.witness_worst) == 0.0

    def test_constant_errors_collapse(self):
        report = permutation_oracle([1, 2, 3], error_set([0.4, 0.4, 0.4]), GOLD_MINUS_PRED)
        assert report.best_value == report.worst_value

    def test_a_constant_gold_is_degenerate_for_the_orderings_and_every_oracle(self):
        g, es = [2.5, 2.5, 2.5], error_set([0.5, -1.0, 2.0])
        for call in (
            lambda: optimal_permutations(g, es),
            lambda: permutation_oracle(g, es, PRED_MINUS_GOLD),
            lambda: mse_sphere_oracle(g, 1.0, trials=10, seed=0),
            lambda: lk_sphere_oracle(g, 4.0, 1.0, trials=10, seed=0),
        ):
            with pytest.raises(DegenerateVariance, match="gold standard is constant"):
                call()

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

    @pytest.mark.parametrize("trials", [1, 50, 20_000])
    def test_zero_mse_scores_the_gold_itself(self, trials):
        # every row scales to zero, so each prediction is the gold and ccc is 1
        report = mse_sphere_oracle([1.0, 2.0, 3.0, 4.0], 0.0, trials, seed=3)
        assert report.best_value == report.worst_value == 1.0
        assert not report.witness_best.any() and not report.witness_worst.any()
        assert report.best_index == report.worst_index == 0


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


def _oracle_runs(exponent: int):
    """(name, gold, report, whether witnesses are errors) for each oracle, with gold,
    errors and sphere radii scaled by 2**exponent; the unit-scale runs are the golden
    CLI cases ``audit_permutation_json``, ``readme_audit_mse_sphere`` and ``audit_lk_sphere``."""
    g = np.ldexp([1.0, 2.0, 4.0, 0.0], exponent)
    errors = error_set(np.ldexp([0.5, -1.0, 2.0, 0.1], exponent))
    sphere_gold = np.ldexp([1.0, 2.0, 3.0, 4.0, 6.0], exponent)
    return [
        ("permutation-add", g, permutation_oracle(g, errors, PRED_MINUS_GOLD), False),
        ("permutation-sub", g, permutation_oracle(g, errors, GOLD_MINUS_PRED), False),
        ("mse-sphere", sphere_gold[:4],
         mse_sphere_oracle(sphere_gold[:4], math.ldexp(0.5, 2 * exponent), 100_000, seed=1), True),
        ("lk-sphere", sphere_gold,
         lk_sphere_oracle(sphere_gold, 4.0, math.ldexp(1.5, exponent), 100_000, seed=2), True),
    ]


def _exact_ccc(gold, pred) -> Fraction:
    g, p = [Fraction(v) for v in gold], [Fraction(v) for v in pred]
    n = len(g)
    mu_g, mu_p = sum(g) / n, sum(p) / n
    cov = sum((a - mu_g) * (b - mu_p) for a, b in zip(g, p)) / n
    var_g = sum((a - mu_g) ** 2 for a in g) / n
    var_p = sum((b - mu_p) ** 2 for b in p) / n
    return 2 * cov / (var_g + var_p + (mu_g - mu_p) ** 2)


class TestOracleValues:
    @pytest.mark.parametrize("which", ["best", "worst"])
    def test_extremes_are_the_direct_ccc_of_their_witnesses(self, which):
        for name, gold, report, error_witness in _oracle_runs(0):
            value, witness = getattr(report, f"{which}_value"), getattr(report, f"witness_{which}")
            pred = gold + witness if error_witness else witness
            assert value == ccc(gold, pred), name
            exact = _exact_ccc(gold, pred)
            assert abs(Fraction(value) - exact) <= 2 * Fraction(math.ulp(float(exact))), name

    @pytest.mark.parametrize("exponent", [-500, 500, 511])
    def test_reports_exact_under_power_of_two_scaling(self, exponent):
        # at 2**511 the gold's raw squares are past float64
        for (name, _, base, _), (_, _, scaled, _) in zip(_oracle_runs(0), _oracle_runs(exponent)):
            assert (scaled.best_value, scaled.worst_value) == (base.best_value, base.worst_value), name
            np.testing.assert_array_equal(scaled.witness_best, np.ldexp(base.witness_best, exponent))
            np.testing.assert_array_equal(scaled.witness_worst, np.ldexp(base.witness_worst, exponent))


def _fields(report):
    return (report.trials, report.best_value, report.worst_value, report.witness_best.tobytes(),
            report.witness_worst.tobytes(), report.seed, report.best_index, report.worst_index)


class TestBlocks:
    # one row, seven rows and the default: every block edge falls somewhere else
    SIZES = [1, 7, None]

    def _reports(self, monkeypatch, run, n, sizes=SIZES):
        out, default = [], stats._BLOCK
        for rows in sizes:
            monkeypatch.setattr(stats, "_BLOCK", default if rows is None else rows * n)
            out.append(_fields(run()))
        monkeypatch.undo()
        return out

    @pytest.mark.parametrize("trials", [1, 20, 7 * 3 + 2])
    def test_sphere_reports_do_not_depend_on_the_block(self, monkeypatch, trials):
        g = [1.0, 2.0, 5.0, 3.0, 0.5]
        for run in (lambda: mse_sphere_oracle(g, 0.8, trials, seed=4),
                    lambda: lk_sphere_oracle(g, 3.0, 1.2, trials, seed=4)):
            first, *rest = self._reports(monkeypatch, run, len(g))
            assert all(r == first for r in rest)

    def test_sphere_reports_straddle_the_default_block(self, monkeypatch):
        g = [1.0, 2.0, 5.0, 3.0]
        trials = 2 * stats._block_rows(len(g)) + 5
        for run in (lambda: mse_sphere_oracle(g, 0.8, trials, seed=8),
                    lambda: lk_sphere_oracle(g, 6.0, 1.2, trials, seed=8)):
            first, *rest = self._reports(monkeypatch, run, len(g), [None, 7, 4099])
            assert all(r == first for r in rest)

    @pytest.mark.parametrize("n", [1, 2, 8, 9])
    @pytest.mark.parametrize("convention", [PRED_MINUS_GOLD, GOLD_MINUS_PRED])
    def test_permutation_reports_do_not_depend_on_the_block(self, monkeypatch, n, convention):
        rng = np.random.default_rng(n)
        g = rng.standard_normal(n) if n > 1 else np.array([1.0])
        # every value twice: equal orderings in different blocks, and the first must win
        errors = error_set(np.resize(rng.standard_normal((n + 1) // 2), n))

        def run():
            try:
                return permutation_oracle(g, errors, convention)
            except DegenerateVariance as exc:  # n = 1: a constant gold, whatever the block
                return exc

        # small blocks of 8! and 9! orderings take seconds to minutes; 1009 rows do not divide 9!
        sizes = {8: [7, None], 9: [1009, None]}.get(n, self.SIZES)
        reports, default = [], stats._BLOCK
        for rows in sizes:
            monkeypatch.setattr(stats, "_BLOCK", default if rows is None else rows * n)
            reports.append(run())
        if n == 1:
            assert all(isinstance(r, DegenerateVariance) for r in reports)
            return
        first, *rest = map(_fields, reports)
        assert all(r == first for r in rest)
        assert first[0] == math.factorial(n)

    @pytest.mark.parametrize("n", range(8))
    def test_index_table_is_the_itertools_order(self, n):
        table = _permutation_table(n)
        assert table.tolist() == [list(p) for p in itertools.permutations(range(n))]


class TestWitnessProvenance:
    def test_sphere_witness_regenerates_from_seed_and_index(self):
        g = [1.0, 2.0, 5.0, 3.0]
        seed, p, radius = 17, 3.0, 1.4
        report = lk_sphere_oracle(g, p, radius, 50_000, seed)
        for index, witness in ((report.best_index, report.witness_best),
                               (report.worst_index, report.witness_worst)):
            row = np.random.default_rng(seed).standard_normal((index + 1, len(g)))[index:]
            row *= (radius / np.sum(np.abs(row) ** p, axis=-1) ** (1 / p))[:, None]
            np.testing.assert_array_equal(row[0], witness)

    def test_permutation_witness_is_the_indexed_ordering(self):
        g = np.array([1.0, 3.0, 2.0, 0.5])
        errors = error_set([0.5, -1.0, 2.0, 0.1])
        report = permutation_oracle(g, errors, PRED_MINUS_GOLD)
        orderings = list(itertools.permutations(errors.values))
        np.testing.assert_array_equal(report.witness_best, g + orderings[report.best_index])
        np.testing.assert_array_equal(report.witness_worst, g + orderings[report.worst_index])


class TestSamplingParameters:
    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InvalidInput, match="seed"):
            mse_sphere_oracle([1.0, 2.0, 3.0], 0.5, 10, seed)
        with pytest.raises(InvalidInput, match="seed"):
            lk_sphere_oracle([1.0, 2.0, 3.0], 4.0, 1.0, 10, seed)

    @pytest.mark.parametrize("trials", [10.5, 0, -3, "10"])
    def test_bad_trials_rejected(self, trials):
        with pytest.raises(InvalidInput, match="trials"):
            mse_sphere_oracle([1.0, 2.0, 3.0], 0.5, trials, 0)
        with pytest.raises(InvalidInput, match="trials"):
            lk_sphere_oracle([1.0, 2.0, 3.0], 4.0, 1.0, trials, 0)

    def test_integer_like_trials_and_seed_accepted(self):
        a = mse_sphere_oracle([1.0, 2.0, 3.0], 0.5, np.int64(40), np.uint8(3))
        b = mse_sphere_oracle([1.0, 2.0, 3.0], 0.5, 40, 3)
        assert _fields(a)[:5] == _fields(b)[:5]


class TestExtremeP:
    def test_sampled_norm_overflow_raises(self):
        # the L_0.001 norm of four Gaussians is near 4**1000: no row can be scaled to 1
        with pytest.raises(InvalidInput, match="L_0.001 norm"):
            lk_sphere_oracle([1.0, 2.0, 4.0, 3.0], 0.001, 1.0, 10, 0)

    def test_scaled_row_underflow_raises(self):
        with pytest.raises(InvalidInput, match="L_0.01 norm"):
            lk_sphere_oracle([1.0, 2.0, 4.0, 3.0], 0.01, 1e-300, 10, 0)

    @pytest.mark.parametrize("k", [300.0, 2000.0])
    def test_large_k_samples_are_finite_and_inside_the_envelope(self, k):
        g = [1.0, 2.0, 4.0, 3.0]
        gold = center_gold(g)
        report = lk_sphere_oracle(g, k, 1.0, 2000, 0)
        env = envelope_given_lk(k, gold.n, 1.0, math.sqrt(gold.var_g), theta=1.0)
        assert env.ccc_lower <= report.worst_value <= report.best_value <= env.ccc_upper
        assert lp_norm(report.witness_best, k) == pytest.approx(1.0, rel=1e-12)


class TestFiniteDifference:
    def test_quadratic(self):
        grad = finite_difference(lambda v: float(np.sum(v * v)), [1.0, 2.0], h=1e-6)
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-9)

    def test_mse_gradient(self):
        g = np.array([1.0, 2.0, 3.0])
        p = np.array([1.5, 1.0, 2.0])
        grad = finite_difference(lambda v: mse(g, v), p, h=1e-6)
        np.testing.assert_allclose(grad, 2 * (p - g) / 3, atol=1e-9)

    def test_bad_h_rejected(self):
        for h in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidInput, match="h must"):
                finite_difference(lambda v: float(np.sum(v * v)), [1.0, 2.0], h)

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
