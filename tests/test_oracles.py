"""Tests for the brute-force verifiers themselves."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from cccmap import oracles, stats
from cccmap.oracles import OracleReport, _permutation_table
from cccmap.ordering import GOLD_MINUS_PRED, PRED_MINUS_GOLD, _adds


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

    def test_a_radius_past_float64_over_a_norm_below_one_is_sampled(self):
        # radius / norm overflows for seed 1's rows of L_2 norm below 1, though no scaled
        # entry exceeds the radius; those rows are divided by their norm first
        g, radius = [1.0, 2.0, 4.0, 3.0], 1e308
        report = lk_sphere_oracle(g, 2.0, radius, 50, 1)
        assert -1.0 <= report.worst_value <= report.best_value <= 1.0
        for witness in (report.witness_best, report.witness_worst):
            assert lp_norm(witness, 2.0) == pytest.approx(radius, rel=1e-15)
        rows = np.random.default_rng(1).standard_normal((50, 4))
        norm = np.sum(rows * rows, axis=-1) ** 0.5
        with np.errstate(over="ignore"):
            scale = radius / norm
            expected = rows * scale[:, None]  # the other rows keep these bits
        wide = scale == np.inf
        assert 0 < wide.sum() < 50
        expected[wide] = rows[wide] / norm[wide, None] * radius
        out, scratch = np.empty((2, 50, 4))
        np.testing.assert_array_equal(
            stats._sphere_rows(np.random.default_rng(1), out, 2.0, radius, scratch), expected)

    def test_an_mse_whose_n_fold_overflows_has_a_finite_radius(self):
        # 4 * 1e308 leaves float64, the radius 2e154 does not
        report = mse_sphere_oracle([1.0, 2.0, 4.0, 3.0], 1e308, 50, 0)
        assert -1.0 <= report.worst_value <= report.best_value <= 1.0
        assert lp_norm(report.witness_best, 2.0) == pytest.approx(2e154, rel=1e-15)

    @pytest.mark.parametrize("mse_", [0.0, 1e-300, 0.3, 7.0, 1e300, 4e307])
    def test_the_mse_radius_keeps_the_plain_formulas_bits(self, mse_):
        g = [1.0, 2.0, 4.0, 3.0]
        report = mse_sphere_oracle(g, mse_, 20, 2)
        out, scratch = np.empty((2, 20, 4))
        expected = stats._sphere_rows(np.random.default_rng(2), out, 2.0, np.sqrt(4 * mse_), scratch)
        np.testing.assert_array_equal(report.witness_best, expected[report.best_index])

    @pytest.mark.parametrize("k", [300.0, 2000.0])
    def test_large_k_samples_are_finite_and_inside_the_envelope(self, k):
        g = [1.0, 2.0, 4.0, 3.0]
        gold = center_gold(g)
        report = lk_sphere_oracle(g, k, 1.0, 2000, 0)
        env = envelope_given_lk(k, gold.n, 1.0, math.sqrt(gold.var_g))
        assert env.ccc_lower <= report.worst_value <= report.best_value <= env.ccc_upper
        assert lp_norm(report.witness_best, k) == pytest.approx(1.0, rel=1e-12)


def _frozen_extremes(moments, blocks, seed: int) -> OracleReport:
    """The search loop before the screen, kept as the reference: every row of every block
    of (predictions, witnesses) is scored by the kernel, and ties keep the first row."""
    ex, mu_x, var_x, a = moments
    scratch = None
    best_val, worst_val = -np.inf, np.inf
    best_wit = worst_wit = None
    best_idx = worst_idx = -1
    trials = 0
    for preds, witnesses in blocks:
        if scratch is None:
            scratch = np.empty((2, *preds.shape))
        ey, mu_y, var_y, cov = stats._row_moments(a, preds, *scratch[:, :len(preds)])
        vals = stats._ccc(ex, ey, mu_x, mu_y, var_x, var_y, cov)
        i_max = int(np.argmax(vals))
        i_min = int(np.argmin(vals))
        if vals[i_max] > best_val:
            best_val, best_wit, best_idx = float(vals[i_max]), witnesses[i_max].copy(), trials + i_max
        if vals[i_min] < worst_val:
            worst_val, worst_wit, worst_idx = float(vals[i_min]), witnesses[i_min].copy(), trials + i_min
        trials += len(vals)
    return OracleReport(trials, best_val, worst_val, best_wit, worst_wit, seed, best_idx, worst_idx)


def _frozen_permutation(gold, errors, convention) -> OracleReport:
    g, _, moments = stats._prepared_gold(gold, errors.n)
    combine = np.add if _adds(convention) else np.subtract
    table = _permutation_table(g.size)
    preds = np.empty((min(stats._block_rows(g.size), len(table)), g.size))

    def blocks():
        for lo in range(0, len(table), len(preds)):
            block = preds[:len(table) - lo]
            np.take(errors.values, table[lo:lo + len(block)], out=block, mode="clip")
            yield combine(g, block, out=block), block

    return _frozen_extremes(moments, blocks(), seed=0)


def _frozen_sphere(gold, p: float, radius: float, trials: int, seed: int) -> OracleReport:
    g, _, moments = stats._prepared_gold(gold)
    rng = np.random.default_rng(seed)
    buf, preds = np.empty((2, min(stats._block_rows(g.size), trials), g.size))

    def blocks():
        for done in range(0, trials, len(buf)):
            d = stats._sphere_rows(rng, buf[:trials - done], p, radius, preds[:trials - done])
            yield np.add(g, d, out=preds[:trials - done]), d

    return _frozen_extremes(moments, blocks(), seed)


def _oracle_and_frozen(oracle: str, gold, *args):
    """(the oracle's call, the frozen reference's call) on one case: args are (error values,
    convention), (mse, trials, seed) or (p, lk, trials, seed)."""
    g = np.asarray(gold)
    if oracle == "permutation":
        errors, convention = error_set(args[0]), args[1]
        return (lambda: permutation_oracle(g, errors, convention),
                lambda: _frozen_permutation(g, errors, convention))
    if oracle == "mse":
        mse_, trials, seed = args
        return (lambda: mse_sphere_oracle(g, mse_, trials, seed),
                lambda: _frozen_sphere(g, 2.0, float(np.sqrt(g.size * mse_)), trials, seed))
    p, lk, trials, seed = args
    return lambda: lk_sphere_oracle(g, p, lk, trials, seed), lambda: _frozen_sphere(g, p, lk, trials, seed)


@st.composite
def _frozen_cases(draw):
    """(oracle, gold, its arguments, rows per block or None for the default)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 7 if draw(st.booleans()) else 30))
    g = rng.standard_normal(n)
    kind = draw(st.sampled_from(["normal", "near-constant", "levels"]))
    if kind == "near-constant":  # the screen's bound is set up up to about 2**-30
        g = 1.0 + g * 2.0 ** -draw(st.integers(10, 45))
    elif kind == "levels":
        g = np.round(2 * g)
    assume(np.ptp(g) > 0)
    s = draw(st.sampled_from([-500, 0, 500]))
    g = np.ldexp(g, s)
    oracle = draw(st.sampled_from(["mse", "lk", "permutation"] if n <= 7 else ["mse", "lk"]))
    rows = draw(st.sampled_from([None, 7, 64, 512]))
    if oracle == "permutation":
        values = rng.standard_normal(n)
        if draw(st.booleans()):  # repeated values: orderings that tie
            values = rng.choice(values[:draw(st.integers(1, n))], n)
        values = np.ldexp(values * draw(st.sampled_from([1e-6, 1.0, 30.0])), s)
        args = (values.tolist(), draw(st.sampled_from([PRED_MINUS_GOLD, GOLD_MINUS_PRED])))
    else:
        trials, seed = draw(st.integers(1, 2500)), draw(st.integers(0, 2**31))
        if oracle == "mse":
            mse_ = draw(st.sampled_from([0.0, 1e-9, 0.01, 1.0, 40.0])) * draw(st.floats(0.5, 2.0))
            args = (math.ldexp(mse_ * float(np.var(np.ldexp(g, -s))), 2 * s), trials, seed)
        else:
            p = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0, 6.0]))
            args = (p, math.ldexp(draw(st.floats(1e-3, 30.0)), s), trials, seed)
    return oracle, g.tolist(), args, rows


class TestScreenAgainstTheFrozenLoop:
    """The screened search reports every field as the loop that scored every row did."""

    @settings(max_examples=300, deadline=None)
    @given(_frozen_cases())
    def test_reports_equal_the_score_every_row_loop(self, case):
        oracle, gold, args, rows = case
        run, frozen = _oracle_and_frozen(oracle, gold, *args)
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                mp.setattr(stats, "_BLOCK", rows * len(gold))
            assert _fields(run()) == _fields(frozen())

    @pytest.mark.parametrize("oracle, args", [
        ("mse", (0.4, 40, 3)),
        ("lk", (3.0, 1.1, 40, 3)),
        ("permutation", ([0.5, -0.5, 0.5, 2.0, -1.0], GOLD_MINUS_PRED)),
    ])
    def test_one_row_blocks(self, monkeypatch, oracle, args):
        gold = [0.3, -1.2, 2.0, 0.7, 1.1]
        run, frozen = _oracle_and_frozen(oracle, gold, *args)
        monkeypatch.setattr(stats, "_BLOCK", len(gold))
        assert _fields(run()) == _fields(frozen())

    def test_the_screen_rescores_few_rows(self, monkeypatch):
        # the shape of the benchmark's sphere searches: 20 values, 2e5 trials
        g = np.random.default_rng(6).standard_normal(20)
        scored = []

        def counting(*args):
            hit = candidates(*args)
            scored.append(len(args[0]) if hit is None else len(hit))
            return hit

        candidates = oracles._candidates
        monkeypatch.setattr(oracles, "_candidates", counting)
        for run, frozen in (_oracle_and_frozen("mse", g, 0.7, 200_000, 11),
                            _oracle_and_frozen("lk", g, 4.0, 1.3, 200_000, 12)):
            scored.clear()
            assert _fields(run()) == _fields(frozen())
            assert len(scored) == math.ceil(200_000 / stats._block_rows(20))
            assert sum(scored) < 0.01 * 200_000


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

    def test_an_h_past_half_of_float64(self):
        # 2 h and up - down overflow, their halves do not
        assert finite_difference(sum, [1, 2], 1e308).tolist() == [1.0, 1.0]
        grad = finite_difference(lambda v: float(v[0]) * 1e-10, [0.0], 1e308)
        assert grad[0] == pytest.approx(1e-10, rel=1e-15)
        with pytest.raises(InvalidInput, match="^finite difference is not finite"):
            finite_difference(lambda v: float(v[0]) * 1e300 * 1e300, [0.0], 1e-300)  # slope 1e600

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
