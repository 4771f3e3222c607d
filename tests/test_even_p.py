"""Tests for the even-exponent fixed-norm extremizer and its stationarity system."""

import dataclasses
import functools
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cccmap import (
    InvalidInput,
    NotConverged,
    Singularity,
    bounds_given_mse,
    ccc,
    center_gold,
    lk_sphere_oracle,
    lp_norm,
    mke,
    mse,
    quadratic_in_gold,
    scaled_residual,
    solve,
    upper_envelope,
)
from cccmap import even_p
from cccmap.even_p import StationarityProblem


def make_problem(rng, k=4, n=None, objective="max"):
    n = n or int(rng.integers(3, 7))
    g = rng.uniform(-5, 5, n)
    while np.ptp(g) == 0:
        g = rng.uniform(-5, 5, n)
    gold = center_gold(g)
    lk = float(rng.uniform(0.3, 3.0)) * np.sqrt(gold.var_g)
    return StationarityProblem(gold=gold, k=k, lk=lk, objective=objective)


def residual(prob, d):
    """r_i = d_i (P d_i^(k-1) - Q d_i + yz_i), P = (2 var_g + s_gd)/MkE, Q = 2 (var_g + s_gd)/MSE,
    in plain float64: the first-order residual, zero at every stationary point."""
    d, yz, var_g = np.asarray(d, float), prob.gold.centered, prob.gold.var_g
    s_gd, mse_d, mke_d = np.mean(yz * d), np.mean(d * d), np.mean(d**prob.k)
    p, q = (2 * var_g + s_gd) / mke_d, 2 * (var_g + s_gd) / mse_d
    return d * (p * d ** (prob.k - 1) - q * d + yz)


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
                assert np.max(np.abs(residual(prob, d))) <= 1e-10 * max(1.0, 2 * gold.var_g)

    def test_generic_point_nonzero(self):
        gold = center_gold([1.0, 2.0, 4.0, 0.5])
        prob = StationarityProblem(gold=gold, k=4, lk=1.0, objective="max")
        assert np.max(np.abs(residual(prob, [0.9, -0.2, 0.3, 0.1]))) > 1e-4

    def test_zero_vector_rejected(self):
        gold = center_gold([1.0, 2.0, 3.0])
        prob = StationarityProblem(gold=gold, k=4, lk=1.0, objective="max")
        with pytest.raises(InvalidInput, match="zero error vector"):
            scaled_residual(prob, [0.0, 0.0, 0.0])


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
            mse_val = mse(state.d, np.zeros_like(state.d))
            x = np.sqrt(mse_val / prob.gold.var_g)
            assert state.ccc_value <= float(upper_envelope(x)) + 1e-9

    def test_solution_ccc_matches_direct(self):
        rng = np.random.default_rng(7)
        prob = make_problem(rng, k=4)
        state = solve(prob, seed=0)
        direct = ccc(prob.gold.gold, prob.gold.gold + state.d)
        assert state.ccc_value == pytest.approx(direct, rel=1e-12)

    def test_not_converged_carries_state(self):
        prob = StationarityProblem(gold=center_gold([1, 2, 4, 3, 7]), k=4, lk=1.3, objective="max")
        with pytest.raises(NotConverged, match="best residual 1.804e-03") as info:
            solve(prob, seed=0, max_iters=1)
        state = info.value.state
        assert state.residual_norm == pytest.approx(1.8039e-3, rel=1e-4)
        assert state.residual_norm == scaled_residual(prob, state.d)

    @pytest.mark.parametrize("k", [4e307, 1e308, 1.7e308])
    def test_k_past_float64_times_n_converges(self, k):
        # the outer hump's limit at tau -> 0 divides by (k - 2) n, past float64 here
        gold = center_gold([1, 2, 4, 3, 7])
        prob = StationarityProblem(gold=gold, k=int(k), lk=1.0, objective="max")
        state = solve(prob, seed=0)
        assert state.residual_norm <= 1e-8
        assert np.all(np.isfinite(state.d)) and math.isfinite(state.ccc_value)

    @pytest.mark.parametrize(
        "lk, ccc_value",
        [(3.0, -0.5970886350465889), (5.0, -0.9979599232505552), (6.2967, -0.9113892101223061)],
        ids=["3.0", "5.0", "6.2967"],
    )
    def test_the_fold_gold_beats_the_sphere(self, lk, ccc_value):
        # three tied largest |g - mu_g| turn the outer hump's curve back near tau = 1; at
        # lk = 6.2967 the minimum's root is bracketed by the scan alone (without it the solve
        # ends at ccc -0.91128)
        gold = [-1, -1, 1, -2, 2, -1, 2]
        prob = StationarityProblem(gold=center_gold(gold), k=6, lk=lk, objective="min")
        state = solve(prob, seed=0)
        assert state.ccc_value == ccc_value
        assert state.residual_norm <= 1e-8
        sphere = lk_sphere_oracle(gold, 6, lk, 20_000, 0)
        assert state.ccc_value < sphere.worst_value
        assert state.ccc_value == pytest.approx(ccc(gold, gold + state.d), rel=1e-12)


def _frozen_plan_roots(a, var, k, lk, sigma, max_iters):
    """``even_p._plan_roots`` before its resample loop was deleted, loop included: the
    reference that the bracketing from fixed samples alone is held to."""
    n = a.size
    ay = np.abs(a)
    outer = int(np.argmax(ay))
    y = ay / ay[outer]
    rho = 2.0 * var / (lk * float(ay[outer]))

    def value(plan, tau):
        tau = np.asarray(tau, dtype=float)
        u = even_p._shape_roots(plan[0], k, tau[..., None] * y, outer if plan[1] else None)
        norm = even_p._lp_norm(u, k)
        b = np.where((tau < 1.0) & (plan in (("hump", True), ("dip", False))), 0.0, 1.0)
        s, w = (sigma, k - 2.0) if plan[0] == "hump" else (-sigma, 1.0)
        head = s * (norm * tau ** (-b / (k - 1))) ** (k - 1) / (w * n)
        return (head - tau ** (1.0 - b) * (sigma * (u @ y) / (n * norm) + rho)).tolist()

    near = -sigma * float(y @ y) / (n * float(even_p._lp_norm(y, k))) - rho
    y1 = y ** (1.0 / (k - 1))
    far = -2.0 * sigma * float(y @ y1) / (n * float(even_p._lp_norm(y1, k))) - rho
    one = {shape: value((shape, False), 1.0) for shape in ("hump", "mono", "dip")}
    scan = 1.0 - np.linspace(1.0, 0.0, 17)[1:-1] ** 2
    samples = {
        ("hump", False): [(0.0, near), (1.0, one["hump"])],
        ("hump", True): [(0.0, sigma * (k - 1.0) ** ((k - 1.0) / (k - 2)) / ((k - 2.0) * n))]
        + list(zip(scan.tolist(), value(("hump", True), scan))) + [(1.0, one["hump"])],
        ("mono", False): [(0.0, near), (1.0, one["mono"]), (math.inf, far)],
        ("dip", False): [(0.0, -sigma * n ** (-1.0 / k)), (1.0, one["dip"]), (math.inf, far)],
    }
    roots = []
    for plan, points in samples.items():
        for _ in range(24):  # resample the turn of the samples nearest 0 until it crosses 0
            turns = [i for i in range(1, len(points) - 1) if points[i + 1][0] < math.inf
                     and points[i - 1][1] * points[i][1] > 0.0 < points[i][1] * points[i + 1][1]
                     and abs(points[i][1]) < min(abs(points[i - 1][1]), abs(points[i + 1][1]))]
            if not turns:
                break
            i = min(turns, key=lambda i: abs(points[i][1]))
            sub = np.linspace(points[i - 1][0], points[i + 1][0], 10)[1:-1]
            points[i:i + 1] = sorted([points[i], *zip(sub.tolist(), value(plan, sub))])
        on = functools.partial(value, plan)
        for (ta, fa), (tb, fb) in zip(points, points[1:]):
            if fa * fb > 0.0:
                continue
            if tb <= 1.0:
                tau, it = even_p._bracketed_root(on, tb, fb, ta, fa, max_iters)
            else:
                x, it = even_p._bracketed_root(
                    lambda x: on(1 / x), 1 / ta, fa, 1 / tb, fb, max_iters)
                tau = 1.0 / x
            roots.append((even_p._shape_roots(plan[0], k, tau * y, outer if plan[1] else None), it))
    return roots


def _outcome(prob):
    """Every field of ``solve``'s state as bytes, or the error's type, message and state."""
    def fields(state):
        return state and tuple(np.asarray(getattr(state, f.name)).tobytes()
                               for f in dataclasses.fields(state))

    try:
        return fields(solve(prob, seed=0))
    except (InvalidInput, NotConverged) as exc:
        return type(exc), str(exc), fields(getattr(exc, "state", None))


@st.composite
def _fold_golds(draw):
    """Integer golds of mean exactly 0 whose 3 to 5 largest |g - mu_g| tie, each then
    moved by a relative 1e-14 to 1e-1 or left tied."""
    top = draw(st.integers(2, 60))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=5))
    rest = draw(st.lists(st.integers(1 - top, top - 1), max_size=8))
    values = [sign * top for sign in signs] + rest
    while total := sum(values):  # balance the sum with values below the tie
        values.append(-int(math.copysign(min(abs(total), top - 1), total)))
    gaps = draw(st.lists(st.one_of(st.just(0.0), st.floats(-14.0, -1.0).map(lambda e: 10.0**e)),
                         min_size=len(signs), max_size=len(signs)))
    gold = np.array(values, dtype=float)
    gold[: len(signs)] *= 1.0 + np.array(gaps)
    return draw(st.permutations(gold.tolist()))


class TestFrozenResampleLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        gold=_fold_golds(),
        k=st.sampled_from([4, 6, 8, 10, 14, 20]),
        objective=st.sampled_from(["max", "min"]),
        factor=st.floats(-1.5, 2.5),
    )
    def test_fixed_samples_give_the_loops_solution(self, gold, k, objective, factor):
        # golds of tied largest |yz| are where the deleted loop ran: its extra samples found
        # no root that changes any field of the solution or the error raised
        base = center_gold(gold)
        lk = math.exp(factor) * base.n ** (1.0 / k) * base.sigma_g
        prob = StationarityProblem(base, k, lk, objective)
        with mock.patch.object(even_p, "_plan_roots", _frozen_plan_roots):
            frozen = _outcome(prob)
        assert _outcome(prob) == frozen


class TestPresampleBlocks:
    @pytest.mark.parametrize("seed", [-1, 2.5, None])
    def test_bad_seed_rejected(self, seed):
        prob = make_problem(np.random.default_rng(0))
        with pytest.raises(InvalidInput, match="seed"):
            solve(prob, seed=seed)

    # the reported field that leaves float64 at each (k, lk) for gold 1..5, or None
    OUT_OF_RANGE = {
        (2000, 2.0): "multiplier",  # about lk**-k = 2**-2000
        (2000, 0.5): "multiplier",  # about 2**2000
        (2000, 1.19): None,
        (2, 1e-300): "objective_value",  # about n var_g / lk**2 = 1e601
        (2, 1e60): None,
        (4, 1e100): "multiplier",  # about lk**-(k+2) = 1e-600
        (8, 1e-100): "multiplier",  # about 1e1000
    }

    @pytest.mark.parametrize(
        "k, lk",
        [(2000, 2.0), (2000, 0.5), (2000, 1.19), (2, 1e-300), (2, 1e60), (4, 1e100), (8, 1e-100)],
    )
    def test_lk_whose_powers_leave_float64_rejected(self, k, lk):
        # these lk put a power of lk that a solver on d itself forms outside float64; the
        # structural solve forms none, so each either converges or refuses, by name, the
        # reported field that is itself outside float64
        prob = StationarityProblem(center_gold([1.0, 2.0, 3.0, 4.0, 5.0]), k, lk, "max")
        field = self.OUT_OF_RANGE[k, lk]
        if field is not None:
            with pytest.raises(InvalidInput, match=f"^{field} leaves float64"):
                solve(prob, seed=0)
            return
        state = solve(prob, seed=0)
        assert state.residual_norm <= 1e-8
        assert lp_norm(state.d, k) == pytest.approx(lk, rel=1e-12)

    @pytest.mark.parametrize("lk", [0.829, 1.1895])
    def test_lk_just_inside_the_range_solves_without_warnings(self, lk):
        # at k = 2000 the range of lk is about (0.8275, 1.1896) for n = 5; a RuntimeWarning
        # fails the test
        prob = StationarityProblem(center_gold([1.0, 2.0, 3.0, 4.0, 5.0]), 2000, lk, "max")
        state = solve(prob, seed=0)
        assert np.all(np.isfinite(state.d)) and np.isfinite(state.ccc_value)

    def test_large_k_presample_and_starts_stay_finite(self):
        # plain |d|**2000 sums overflow or underflow for most sampled rows and for the gold
        prob = StationarityProblem(center_gold([1.0, 2.0, 3.0, 4.0, 5.0]), 2000, 1.0, "max")
        state = solve(prob, seed=0)
        assert np.all(np.isfinite(state.d)) and np.isfinite(state.ccc_value)
        assert lp_norm(state.d, 2000) == pytest.approx(1.0, rel=1e-12)


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
            r = residual(prob, d)
            zeros = np.zeros_like(d)
            mse_val, mke_val = mse(d, zeros), mke(d, zeros, prob.k)
            yz = prob.gold.centered
            n = prob.gold.n
            for i in range(n):
                a_den = d[i] ** (prob.k - 1) * mse_val - d[i] * mke_val
                if abs(a_den) < 1e-9 or abs(d[i]) < 1e-9:
                    continue
                a, b, c = quadratic_in_gold(prob, d, i)
                q_value = a * yz[i] ** 2 + b * yz[i] + c
                expected = r[i] * n * mse_val * mke_val / (2 * a_den * d[i])
                assert q_value == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_k2_is_the_degenerate_case(self):
        # at k=2 MkE == MSE identically, so the reduction denominator vanishes
        gold = center_gold([1.0, 2.0, 4.0])
        prob = StationarityProblem(gold=gold, k=2, lk=1.0, objective="max")
        res = bounds_given_mse(gold, 1.0 / 3.0)
        with pytest.raises(Singularity):
            quadratic_in_gold(prob, res.err_max, 0)

    def test_an_underflowing_coordinate_names_b(self):
        # d_1 / max|d| rounds to 0 though d_1 != 0: A is nonzero and |b| lies past float64
        prob = StationarityProblem(center_gold([1.0, 2.0, 4.0]), 4, 1.0, "max")
        with pytest.raises(InvalidInput, match="^b overflows float64$"):
            quadratic_in_gold(prob, np.array([1e300, 1e-300, 3.0]), 1)

    @pytest.mark.parametrize("s", [-250, -200, 200, 250])
    def test_solve_solution_at_any_scale(self, s):
        # the quadratic of the i = 4 coordinate of solve's maximum scales as solve does;
        # in raw powers of d it was a false Singularity at 2**-250, 0.0 at 2**-200 and
        # NaN past 2**200
        gold, lk = np.array([1.0, 2.0, 4.0, 3.0, 7.0]), 1.3
        prob = StationarityProblem(center_gold(gold), 4, lk, "max")
        _, b, c = quadratic_in_gold(prob, solve(prob, seed=0).d, 4)
        assert (b, c) == pytest.approx((1.3018538616066544, -17.64667390178396), rel=1e-13)
        prob = StationarityProblem(center_gold(np.ldexp(gold, s)), 4, math.ldexp(lk, s), "max")
        assert quadratic_in_gold(prob, solve(prob, seed=0).d, 4) == (
            1.0, math.ldexp(b, s), math.ldexp(c, 2 * s))


def _leaves_float64(value: float, e: int) -> bool:
    """Whether value * 2**e is outside the normal float64 range."""
    return not -1022 <= math.frexp(value)[1] + e - 1 < 1024


class TestScale:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.integers(-(2**20), 2**20), min_size=3, max_size=12),
        s=st.integers(-400, 400),
        k=st.sampled_from([4, 6, 8]),
        factor=st.floats(0.2, 3.0),
        objective=st.sampled_from(["max", "min"]),
    )
    def test_solution_scales_with_the_gold_and_lk(self, values, s, k, factor, objective):
        gold = np.ldexp(np.array(values, dtype=float), -10)
        if np.ptp(gold) == 0.0:
            return
        base = center_gold(gold)
        lk = factor * lp_norm(base.centered, k)
        state = solve(StationarityProblem(base, k, lk, objective), seed=0)
        prob = StationarityProblem(center_gold(np.ldexp(gold, s)), k, math.ldexp(lk, s), objective)
        try:
            scaled = solve(prob, seed=0)
        except InvalidInput as exc:
            field = str(exc).split()[0]
            if field == "d":
                assert any(_leaves_float64(v, s) for v in state.d if v != 0.0)
            else:
                e = {"multiplier": -k * s, "sigma_gd": 2 * s}[field]
                assert _leaves_float64(getattr(state, field), e)
            return
        assert scaled.d.tobytes() == np.ldexp(state.d, s).tobytes()
        assert scaled.ccc_value == state.ccc_value
        assert scaled.objective_value == state.objective_value
        assert scaled.residual_norm == state.residual_norm
        assert scaled.multiplier == math.ldexp(state.multiplier, -k * s)
        assert scaled.sigma_gd == math.ldexp(state.sigma_gd, 2 * s)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(-(2**20), 2**20), st.integers(-(2**20), 2**20)),
                       min_size=3, max_size=12),
        s=st.integers(-400, 400),
        k=st.sampled_from([4, 6, 8]),
        i=st.integers(0, 11),
    )
    def test_quadratic_scales_with_the_gold_and_d(self, pairs, s, k, i):
        gold, d = np.ldexp(np.array(pairs, dtype=float).T, -10)
        if np.ptp(gold) == 0.0 or not d.any():
            return
        i %= gold.size
        base = StationarityProblem(center_gold(gold), k, 1.0, "max")
        prob = StationarityProblem(center_gold(np.ldexp(gold, s)), k, 1.0, "max")
        try:
            _, b, c = quadratic_in_gold(base, d, i)
        except Singularity:  # the degeneracy test does not move with the scale
            with pytest.raises(Singularity):
                quadratic_in_gold(prob, np.ldexp(d, s), i)
            return
        # A's degeneracy test bounds B / (2A) by about 1e14, so |b| < 2**500 and
        # |c| < 2**900: neither leaves float64 at these scales
        got = quadratic_in_gold(prob, np.ldexp(d, s), i)
        assert got == (1.0, math.ldexp(b, s), math.ldexp(c, 2 * s))

    @pytest.mark.parametrize(
        "gold, k, lk, objective, s",
        [
            # lk tiny against an n = 3 gold: the multi-start ascent leaked overflow warnings
            # and did not converge. The maximum's multiplier, about 2**1024.2, is past
            # float64, so it is refused by name, and its twin at twice the scale converges
            (np.random.default_rng(3).standard_normal(3), 4, 2**-170.3, "min", 0),
            (np.random.default_rng(3).standard_normal(3), 4, 2**-170.3, "max", 1),
            # a gold near 1e30 at k = 8: the ascent overflowed in (d^7)^2 and lk**8. At
            # lk = 1e40 the multiplier, about 2**-1098, is below float64's normal range
            (1e30 * np.array([1.0, 2.0, 3.0, 5.0]), 8, 1e30, "max", 0),
            (1e30 * np.array([1.0, 2.0, 3.0, 5.0]), 8, 1e30, "min", 0),
            (1e30 * np.array([1.0, 2.0, 3.0, 5.0]), 8, 1e40, "max", -10),
            (1e30 * np.array([1.0, 2.0, 3.0, 5.0]), 8, 1e40, "min", -10),
        ],
        ids=["tiny-lk-min", "tiny-lk-max", "1e30-max", "1e30-min", "1e40-max", "1e40-min"],
    )
    def test_scale_regressions_converge(self, gold, k, lk, objective, s):
        # a RuntimeWarning fails the test; s != 0 marks a multiplier outside float64, which
        # the twin problem scaled by 2**s brings inside
        prob = StationarityProblem(center_gold(gold), k, lk, objective)
        if s != 0:
            with pytest.raises(InvalidInput, match="^multiplier leaves float64"):
                solve(prob, seed=0)
            prob = StationarityProblem(center_gold(np.ldexp(gold, s)), k, math.ldexp(lk, s), objective)
        state = solve(prob, seed=0)
        assert state.residual_norm <= 1e-8
        assert lp_norm(state.d, k) == pytest.approx(prob.lk, rel=1e-12)
        assert (s != 0) == _leaves_float64(state.multiplier, k * s)


class TestParentSweep:
    def test_no_worse_than_the_multi_start_solver(self):
        # tests/data/make_even_p_sweep.py wrote the 96 problems and the objective values
        # that the multi-start ascent solver reached on them
        rows = json.loads((Path(__file__).parent / "data" / "even_p_sweep.json").read_text())
        assert len(rows) == 96
        for row in rows:
            prob = StationarityProblem(center_gold(row["gold"]), row["k"], row["lk"], row["objective"])
            state = solve(prob, seed=0)
            sign = 1.0 if row["objective"] == "max" else -1.0
            f = row["objective_value"]
            assert sign * (state.objective_value - f) >= -1e-15 * max(1.0, abs(f)), row
            assert state.residual_norm <= 1e-8, row
