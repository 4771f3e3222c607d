"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Tolerances are pinned here and never loosened; sampling sizes and runtime
budgets match the stated requirements.
"""

import functools
import hashlib
import subprocess
import sys
import time

import numpy as np
import pytest

from cccmap import (
    LossParams,
    bounds_given_mse,
    ccc,
    ccc_from_mse_cov,
    center_gold,
    conjugate_theta,
    covariance,
    error_set,
    finite_difference,
    lk_sphere_oracle,
    loss,
    loss_gradient,
    lower_envelope,
    mse,
    mse_sphere_oracle,
    norm_sandwich,
    optimal_permutations,
    permutation_oracle,
    population_variance,
    solve,
    theta_band,
    training_trace,
    upper_envelope,
    variance_identity_residual,
)
from cccmap.even_p import StationarityProblem
from cccmap.losses import VARIANTS
from cccmap.ordering import GOLD_MINUS_PRED, PRED_MINUS_GOLD


def criterion(num, text):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL {text}")
                raise
            print(f"[criterion {num:02d}] PASS {text}")

        return wrapper

    return decorate


@criterion(1, "mapping identity over 10,000 random pairs, 1e-12 relative, < 5 s")
def test_criterion_01_mapping_identity():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(10_000):
        n = int(rng.integers(2, 201))
        x = rng.uniform(-10, 10, n)
        y = rng.uniform(-10, 10, n)
        direct = ccc(x, y)
        mse_val, cov = mse(x, y), covariance(x, y)
        mapped = ccc_from_mse_cov(mse_val, cov)
        assert abs(mapped - direct) <= 1e-12 * max(abs(direct), abs(mapped), 1e-3)
        residual = variance_identity_residual(x, y)
        left = residual + mse_val + 2.0 * cov  # the identity's left side, by definition
        assert abs(residual) <= 1e-12 * max(1.0, left)
    assert time.monotonic() - start < 5.0


@criterion(2, "envelope anchor points exact to 1e-15")
def test_criterion_02_anchor_points():
    for x, upper, lower in ((0.0, 1.0, 1.0), (1.0, 0.8, 0.0), (2.0, 0.6, -1.0)):
        assert abs(float(upper_envelope(x)) - upper) <= 1e-15
        assert abs(float(lower_envelope(x)) - lower) <= 1e-15


@criterion(3, "constructive attainment (1e-10) and 1e5 sphere samples inside envelopes, < 60 s")
def test_criterion_03_attainment_and_dominance():
    rng = np.random.default_rng(103)
    start = time.monotonic()
    for _ in range(1_000):
        n = int(rng.integers(2, 60))
        g = rng.uniform(-10, 10, n)
        if population_variance(g) == 0.0:
            continue
        gold = center_gold(g)
        target = float(rng.uniform(0.0, 9.0)) * gold.var_g
        res = bounds_given_mse(gold, target)
        assert abs(ccc(g, g + res.err_max) - res.ccc_max) <= 1e-10
        assert abs(ccc(g, g - res.err_max) - res.ccc_min) <= 1e-10
        assert mse(g, g + res.err_max) == pytest.approx(target, rel=1e-12, abs=1e-15)
        assert mse(g, g - res.err_max) == pytest.approx(target, rel=1e-12, abs=1e-15)
    total = 0
    for chunk_seed in range(5):
        g = rng.uniform(-5, 5, int(rng.integers(4, 40)))
        gold = center_gold(g)
        target = float(rng.uniform(0.05, 8.0)) * gold.var_g
        x = np.sqrt(target / gold.var_g)
        report = mse_sphere_oracle(g, target, trials=20_000, seed=chunk_seed)
        assert report.best_value <= float(upper_envelope(x)) + 1e-9
        assert report.worst_value >= float(lower_envelope(x)) - 1e-9
        total += report.trials
    assert total == 100_000
    assert time.monotonic() - start < 60.0


@criterion(4, "explicit pair with MSE1 < MSE2 and ccc1 < ccc2, both strict")
def test_criterion_04_headline_counterexample():
    gold = center_gold([0.4, 1.1, 2.9, 3.6, 5.2])
    mse_1, mse_2 = gold.var_g, 4.0 * gold.var_g
    pred_1 = gold.gold - bounds_given_mse(gold, mse_1).err_max
    pred_2 = gold.gold + bounds_given_mse(gold, mse_2).err_max
    assert mse(gold.gold, pred_1) < mse(gold.gold, pred_2)
    assert ccc(gold.gold, pred_1) < ccc(gold.gold, pred_2)


@criterion(5, "norm sandwich: 10,000 vectors x 20 (r,p) pairs, zero violations; tight cases")
def test_criterion_05_norm_sandwich():
    rng = np.random.default_rng(105)
    for _ in range(10_000):
        n = int(rng.integers(1, 40))
        e = rng.standard_normal(n) * rng.uniform(0.1, 10)
        for _ in range(20):
            r = float(rng.uniform(0.2, 5.0))
            p = r * float(rng.uniform(1.01, 3.0))
            lo, mid, hi = norm_sandwich(e, r, p)
            assert lo <= mid * (1 + 1e-12)
            assert mid <= hi * (1 + 1e-12)
    lo, mid, hi = norm_sandwich([1.3] * 9, 1, 2)
    assert mid == pytest.approx(hi, rel=1e-12)
    lo, mid, hi = norm_sandwich([0.0, 0.0, 2.4, 0.0], 1, 2)
    assert mid == pytest.approx(lo, rel=1e-12)
    lo, mid, hi = norm_sandwich([1, 2, 3], 2, 1e308)  # p * r leaves float64, (p - r) / (p r) does not
    assert mid <= hi == pytest.approx(3**0.5 * lo, rel=1e-15)


@criterion(6, "theta machinery: theta_max(k=1,N=64)=8, conjugate {8,1.6} at x=0.75, involution")
def test_criterion_06_theta_machinery():
    assert theta_band(1, 64, 1.0).theta_max == pytest.approx(8.0, abs=1e-15)
    assert conjugate_theta(8.0, 0.75) == pytest.approx(1.6, rel=1e-12)
    assert float(lower_envelope(6.0)) == pytest.approx(-0.3846, abs=5e-5)
    rng = np.random.default_rng(106)
    for _ in range(500):
        x = float(rng.uniform(0.05, 3.0))
        theta1 = float(rng.uniform(1.0 / x + 1e-3, 12.0 / x))
        theta2 = conjugate_theta(theta1, x)
        assert conjugate_theta(theta2, x) == pytest.approx(theta1, rel=1e-12)


@criterion(7, "permutation closed forms == N! enumeration (200 instances); maxima in [0,1], < 120 s")
def test_criterion_07_permutation_optimality():
    rng = np.random.default_rng(107)
    start = time.monotonic()
    for _ in range(200):
        n = int(rng.integers(3, 9))
        g = rng.uniform(-5, 5, n)
        e = rng.uniform(-4, 4, n)
        es = error_set(e)
        ext = optimal_permutations(g, es)
        oracle_add = permutation_oracle(g, es, PRED_MINUS_GOLD)
        oracle_sub = permutation_oracle(g, es, GOLD_MINUS_PRED)
        assert abs(oracle_add.best_value - ext.max_add.ccc_value) <= 1e-10
        assert abs(oracle_add.worst_value - ext.min_add.ccc_value) <= 1e-10
        assert abs(oracle_sub.best_value - ext.max_sub.ccc_value) <= 1e-10
        assert abs(oracle_sub.worst_value - ext.min_sub.ccc_value) <= 1e-10
    for _ in range(10_000):
        n = int(rng.integers(3, 40))
        g = rng.uniform(-5, 5, n)
        e = rng.uniform(-4, 4, n)
        ext = optimal_permutations(g, error_set(e))
        assert -1e-12 <= ext.max_add.ccc_value <= 1 + 1e-12
        assert -1e-12 <= ext.max_sub.ccc_value <= 1 + 1e-12
    assert time.monotonic() - start < 120.0


@criterion(8, "even-p solver: k=2 closed form (1e-6); k=4 dominates 1e5 samples 20/20, residual <= 1e-8")
def test_criterion_08_even_p_solver():
    rng = np.random.default_rng(108)
    for trial in range(5):
        n = int(rng.integers(3, 9))
        g = rng.uniform(-5, 5, n)
        gold = center_gold(g)
        lk = float(rng.uniform(0.3, 3.0)) * np.sqrt(gold.var_g)
        prob = StationarityProblem(gold=gold, k=2, lk=lk, objective="max")
        state = solve(prob, seed=trial)
        closed = bounds_given_mse(gold, lk**2 / n)
        cos = float(
            state.d
            @ closed.err_max
            / (np.linalg.norm(state.d) * np.linalg.norm(closed.err_max))
        )
        assert cos >= 1 - 1e-6
        assert abs(state.ccc_value - closed.ccc_max) <= 1e-6
    for trial in range(20):
        n = int(rng.integers(3, 7))
        g = rng.uniform(-5, 5, n)
        gold = center_gold(g)
        lk = float(rng.uniform(0.3, 3.0)) * np.sqrt(gold.var_g)
        prob = StationarityProblem(gold=gold, k=4, lk=lk, objective="max")
        state = solve(prob, seed=200 + trial)
        report = lk_sphere_oracle(g, 4.0, lk, trials=100_000, seed=300 + trial)
        assert state.ccc_value >= report.best_value - 1e-9
        assert state.residual_norm <= 1e-8


@criterion(9, "analytic gradients match central differences (1e-5) for 7 variants x 100 instances")
def test_criterion_09_loss_gradients():
    rng = np.random.default_rng(109)
    for variant in VARIANTS:
        checked = 0
        while checked < 100:
            n = int(rng.integers(3, 15))
            g = rng.uniform(0.5, 3.0, n)
            p = g + rng.uniform(-0.4, 0.4, n)
            params = LossParams(
                variant=variant,
                gamma=float(rng.choice([0.7, 1.0, 1.8])),
                alpha=float(rng.uniform(0.2, 2.0)),
                beta=int(rng.integers(0, 3)),
                per_sample_alpha=rng.uniform(0.5, 2.0, n),
                per_sample_beta=rng.integers(0, 3, n),
                per_sample_eps=rng.uniform(0.5, 2.0, n),
            )
            value = loss(params, g, p)
            if abs(value) ** (1.0 / params.gamma) <= 1e-3:
                continue  # too close to the |.|^gamma kink for differencing
            analytic = loss_gradient(params, g, p)
            h = 1e-6 * max(1.0, float(np.max(np.abs(p))))
            numeric = finite_difference(lambda v: loss(params, g, v), p, h)
            scale = max(1.0, float(np.max(np.abs(analytic))))
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-5 * scale)
            checked += 1
    # specialization chains at 1e-12
    for _ in range(200):
        n = int(rng.integers(2, 12))
        g = rng.uniform(0.5, 3.0, n)
        p = rng.uniform(0.5, 3.0, n)
        gamma = float(rng.choice([0.5, 1.0, 2.0]))
        alpha = float(rng.uniform(0.2, 2.0))
        beta = int(rng.integers(0, 3))
        general_ratio = LossParams(
            variant="general_ratio",
            gamma=gamma,
            per_sample_eps=np.ones(n),
            per_sample_alpha=np.ones(n),
            per_sample_beta=np.zeros(n, dtype=np.int64),
        )
        assert loss(general_ratio, g, p) == pytest.approx(
            loss(LossParams(variant="ratio_pow", gamma=gamma), g, p), rel=1e-12
        )
        assert loss(LossParams(variant="ratio_pow", gamma=1.0), g, p) == pytest.approx(
            loss(LossParams(variant="ratio"), g, p), rel=1e-12
        )
        general_diff = LossParams(
            variant="general_diff",
            gamma=gamma,
            per_sample_eps=np.ones(n),
            per_sample_alpha=np.full(n, alpha),
            per_sample_beta=np.full(n, beta, dtype=np.int64),
        )
        assert loss(general_diff, g, p) == pytest.approx(
            loss(LossParams(variant="diff_pow", alpha=alpha, beta=beta, gamma=gamma), g, p),
            rel=1e-12,
        )
        assert loss(
            LossParams(variant="diff_pow", alpha=alpha, beta=0, gamma=1.0), g, p
        ) == pytest.approx(abs(loss(LossParams(variant="diff", alpha=alpha), g, p)), rel=1e-12)


@criterion(10, "abs(mse/cov) descent lifts ccc from anti-correlated starts 10/10; mse descent shows the paradox step")
def test_criterion_10_descent_demonstrations():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = rng.uniform(0.0, 1.0, 24)
        gold = center_gold(g)
        start = g - 3.0 * gold.centered * (1.0 + 0.02 * rng.standard_normal(24))
        # scale-aware step: the first accepted move crosses the zero-covariance
        # wall (the anti-correlated side has its own interior optimum at ccc=-1,
        # so small steps cannot escape it)
        step = 3.4667 * gold.n * gold.var_g
        params = LossParams(variant="abs_mse_over_cov", gamma=1.0)
        trace = training_trace(params, g, start, step=step, iters=500)
        assert covariance(g, start) < 0
        assert trace.rows[-1, 3] > trace.rows[0, 3]
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        g = rng.uniform(0.0, 1.0, 24)
        gold = center_gold(g)
        start = g - 3.0 * gold.centered
        params = LossParams(variant="diff", alpha=0.0)  # plain sum of squares
        trace = training_trace(params, g, start, step=0.05, iters=40)
        mse_col, ccc_col = trace.rows[:, 2], trace.rows[:, 3]
        assert ((np.diff(ccc_col) < 0) & (np.diff(mse_col) < 0)).any()


CLI = [sys.executable, "-m", "cccmap.cli"]

_CLI_CASES = [
    ("analyze", ["analyze", "--json", "--seed", "3"], "1,2\n2,3\n3,4\n", False),
    ("bounds-mse", ["bounds-mse", "--format", "plain", "--mse", "0.5", "--json"], "1\n2\n3\n", True),
    ("bounds-lk", ["bounds-lk", "--format", "plain", "--k", "1", "--lk", "2", "--json"], "1\n2\n3\n4\n", False),
    ("permute", ["permute", "--json", "--audit"], "1,0.5\n2,-1\n4,2\n0,0.1\n", True),
    ("solve-even-p", ["solve-even-p", "--format", "plain", "--k", "4", "--lk", "1.5", "--seed", "11", "--json"], "1\n2\n3\n5\n", False),
    ("loss", ["loss", "--variant", "abs_mse_over_cov", "--json", "--trace-iters", "5", "--trace-step", "0.01"], "1,1.5\n2,2.5\n3,3.1\n", True),
    ("region", ["region", "--kind", "lk", "--k", "1", "--n", "64", "--x-max", "2", "--steps", "9"], "", False),
    ("audit", ["audit", "mse-sphere", "--format", "plain", "--mse", "0.5", "--trials", "500", "--seed", "9", "--json"], "1\n2\n3\n4\n", False),
]


def _run_cli_case(args, stdin, wants_out, tmp_path, tag):
    full = list(args)
    out_path = None
    if wants_out:
        out_path = tmp_path / f"{tag}.csv"
        full += ["--out", str(out_path)]
    proc = subprocess.run(
        CLI + full, input=stdin, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    if out_path is not None:
        digest += hashlib.sha256(out_path.read_bytes()).hexdigest()
        out_path.unlink()
    return digest


@criterion(11, "every CLI verb byte-reproducible under a fixed seed (double-run hashes)")
def test_criterion_11_cli_determinism(tmp_path):
    for name, args, stdin, wants_out in _CLI_CASES:
        first = _run_cli_case(args, stdin, wants_out, tmp_path, name)
        second = _run_cli_case(args, stdin, wants_out, tmp_path, name)
        assert first == second, f"{name} output differs between runs"
