"""Tests for the even-exponent fixed-norm extremizer and its stationarity system."""

import numpy as np
import pytest

from cccmap import (
    InvalidInput,
    NotConverged,
    Singularity,
    bounds_given_mse,
    ccc,
    center_gold,
    lk_sphere_oracle,
    lp_norm,
    quadratic_in_gold,
    scaled_residual,
    solve,
    stationarity_residual,
    upper_envelope,
)
from cccmap.even_p import StationarityProblem, _moments


def make_problem(rng, k=4, n=None, objective="max"):
    n = n or int(rng.integers(3, 7))
    g = rng.uniform(-5, 5, n)
    while np.ptp(g) == 0:
        g = rng.uniform(-5, 5, n)
    gold = center_gold(g)
    lk = float(rng.uniform(0.3, 3.0)) * np.sqrt(gold.var_g)
    return StationarityProblem(gold=gold, k=k, lk=lk, objective=objective)


class TestProblemValidation:
    def test_odd_k_rejected(self):
        gold = center_gold([1, 2, 3])
        with pytest.raises(InvalidInput):
            StationarityProblem(gold=gold, k=3, lk=1.0, objective="max")

    def test_nonpositive_lk_rejected(self):
        gold = center_gold([1, 2, 3])
        for lk in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidInput):
                StationarityProblem(gold=gold, k=2, lk=lk, objective="max")


class TestStationarityResidual:
    def test_k2_constructive_vectors_are_stationary(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.uniform(-4, 4, int(rng.integers(3, 10)))
            gold = center_gold(g)
            target = float(rng.uniform(0.1, 4.0)) * gold.var_g
            res = bounds_given_mse(gold, target)
            prob = StationarityProblem(
                gold=gold, k=2, lk=lp_norm(res.err_max, 2), objective="max"
            )
            for d in (res.err_max, res.err_min):
                residual = stationarity_residual(prob, d)
                assert np.max(np.abs(residual)) <= 1e-10 * max(1.0, 2 * gold.var_g)

    def test_generic_point_nonzero(self):
        gold = center_gold([1.0, 2.0, 4.0, 0.5])
        prob = StationarityProblem(gold=gold, k=4, lk=1.0, objective="max")
        residual = stationarity_residual(prob, [0.9, -0.2, 0.3, 0.1])
        assert np.max(np.abs(residual)) > 1e-4

    def test_zero_vector_rejected(self):
        gold = center_gold([1.0, 2.0, 3.0])
        prob = StationarityProblem(gold=gold, k=4, lk=1.0, objective="max")
        with pytest.raises(InvalidInput):
            stationarity_residual(prob, [0.0, 0.0, 0.0])


class TestSolve:
    def test_k2_matches_closed_form(self):
        rng = np.random.default_rng(1)
        for trial in range(8):
            prob = make_problem(rng, k=2)
            state = solve(prob, seed=trial)
            target_mse = prob.lk**2 / prob.gold.n
            closed = bounds_given_mse(prob.gold, target_mse)
            cos = float(
                state.d
                @ closed.err_max
                / (np.linalg.norm(state.d) * np.linalg.norm(closed.err_max))
            )
            assert cos >= 1 - 1e-6
            assert state.ccc_value == pytest.approx(closed.ccc_max, abs=1e-6)
            assert state.sigma_gd > 0

    def test_k2_minimize_matches_closed_form(self):
        rng = np.random.default_rng(2)
        for trial in range(8):
            prob = make_problem(rng, k=2, objective="min")
            state = solve(prob, seed=trial)
            target_mse = prob.lk**2 / prob.gold.n
            closed = bounds_given_mse(prob.gold, target_mse)
            cos = float(
                state.d
                @ closed.err_min
                / (np.linalg.norm(state.d) * np.linalg.norm(closed.err_min))
            )
            assert cos >= 1 - 1e-6
            assert state.ccc_value == pytest.approx(closed.ccc_min, abs=1e-6)
            assert state.sigma_gd < 0

    def test_constraint_and_residual_at_convergence(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            prob = make_problem(rng, k=4)
            state = solve(prob, seed=trial)
            assert abs(lp_norm(state.d, prob.k) - prob.lk) / prob.lk <= 1e-8
            assert state.residual_norm <= 1e-8
            assert scaled_residual(prob, state.d) == state.residual_norm

    def test_k4_dominates_sphere_samples(self):
        rng = np.random.default_rng(4)
        for trial in range(6):
            prob = make_problem(rng, k=4)
            state = solve(prob, seed=trial)
            report = lk_sphere_oracle(
                prob.gold.gold, prob.k, prob.lk, trials=20_000, seed=trial
            )
            assert state.ccc_value >= report.best_value - 1e-9
            assert state.sigma_gd > 0

    def test_k4_minimize_dominates_sphere_samples(self):
        rng = np.random.default_rng(5)
        for trial in range(6):
            prob = make_problem(rng, k=4, objective="min")
            state = solve(prob, seed=trial)
            report = lk_sphere_oracle(
                prob.gold.gold, prob.k, prob.lk, trials=20_000, seed=trial
            )
            assert state.ccc_value <= report.worst_value + 1e-9
            assert state.sigma_gd < 0

    def test_higher_even_exponents(self):
        # k = 6 and k = 8: same contracts as k = 4
        rng = np.random.default_rng(12)
        for k in (6, 8):
            for trial in range(3):
                prob = make_problem(rng, k=k)
                state = solve(prob, seed=trial)
                assert abs(lp_norm(state.d, k) - prob.lk) / prob.lk <= 1e-8
                assert state.residual_norm <= 1e-8
                report = lk_sphere_oracle(
                    prob.gold.gold, k, prob.lk, trials=20_000, seed=trial
                )
                assert state.ccc_value >= report.best_value - 1e-9

    def test_maximize_within_outer_mse_envelope(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            prob = make_problem(rng, k=4)
            state = solve(prob, seed=trial)
            mse_val, _, _ = _moments(prob.gold.centered, prob.k, state.d)
            x = np.sqrt(mse_val / prob.gold.var_g)
            assert state.ccc_value <= float(upper_envelope(x)) + 1e-9

    def test_solution_ccc_matches_direct(self):
        rng = np.random.default_rng(7)
        prob = make_problem(rng, k=4)
        state = solve(prob, seed=0)
        direct = ccc(prob.gold.gold, prob.gold.gold + state.d)
        assert state.ccc_value == pytest.approx(direct, rel=1e-12)

    def test_not_converged_carries_state(self):
        exc = NotConverged("budget exhausted", state="sentinel")
        assert exc.state == "sentinel"


class TestQuadraticInGold:
    def test_leading_coefficient_is_one(self):
        rng = np.random.default_rng(8)
        prob = make_problem(rng, k=4)
        d = rng.standard_normal(prob.gold.n)
        d *= prob.lk / lp_norm(d, prob.k)
        a, _, _ = quadratic_in_gold(prob, d, 0)
        assert a == 1.0

    def test_vanishes_at_stationary_point(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            prob = make_problem(rng, k=4)
            state = solve(prob, seed=trial)
            yz = prob.gold.centered
            scale = float(np.max(np.abs(yz))) ** 2
            for i in range(prob.gold.n):
                a, b, c = quadratic_in_gold(prob, state.d, i)
                q_value = a * yz[i] ** 2 + b * yz[i] + c
                assert abs(q_value) <= 1e-6 * max(1.0, scale)

    def test_matches_rescaled_residual_anywhere(self):
        # algebraic identity: q(yz_i) == residual_i * N * MSE * MkE / (2 A d_i)
        rng = np.random.default_rng(10)
        for _ in range(50):
            prob = make_problem(rng, k=4)
            d = rng.standard_normal(prob.gold.n)
            d *= prob.lk / lp_norm(d, prob.k)
            residual = stationarity_residual(prob, d)
            mse_val, mke_val, _ = _moments(prob.gold.centered, prob.k, d)
            yz = prob.gold.centered
            n = prob.gold.n
            for i in range(n):
                a_den = d[i] ** (prob.k - 1) * mse_val - d[i] * mke_val
                if abs(a_den) < 1e-9 or abs(d[i]) < 1e-9:
                    continue
                a, b, c = quadratic_in_gold(prob, d, i)
                q_value = a * yz[i] ** 2 + b * yz[i] + c
                expected = residual[i] * n * mse_val * mke_val / (2 * a_den * d[i])
                assert q_value == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_k2_is_the_degenerate_case(self):
        # at k=2 MkE == MSE identically, so the reduction denominator vanishes
        gold = center_gold([1.0, 2.0, 4.0])
        prob = StationarityProblem(gold=gold, k=2, lk=1.0, objective="max")
        res = bounds_given_mse(gold, 1.0 / 3.0)
        with pytest.raises(Singularity):
            quadratic_in_gold(prob, res.err_max, 0)
