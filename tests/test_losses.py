"""Tests for the concordance-aware loss family, gradients, and the descent demo."""

import numpy as np
import pytest

from cccmap import (
    InvalidInput,
    LossParams,
    Singularity,
    ccc,
    ccc_from_mse_cov,
    center_gold,
    covariance,
    finite_difference,
    loss,
    loss_gradient,
    mse,
    training_trace,
)
from cccmap import losses
from cccmap.losses import VARIANTS


def random_safe_instance(rng, variant, n=9):
    """Instance away from the variant's singular set and abs-kinks."""
    while True:
        g = rng.uniform(0.5, 3.0, n)  # positive gold keeps dot products positive
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
        try:
            value = loss(params, g, p)
        except Singularity:
            continue
        inner_scale = abs(value) ** (1.0 / params.gamma) if value != 0 else 0.0
        if np.isfinite(value) and inner_scale > 1e-3:
            return params, g, p


class TestLossValues:
    def test_ratio_zero_at_identity(self):
        params = LossParams(variant="ratio")
        assert loss(params, [1, 2, 3], [1, 2, 3]) == 0.0

    def test_diff_pure_reward_at_identity(self):
        g = np.array([1.0, 2.0, 3.0])
        params = LossParams(variant="diff", alpha=0.7)
        assert loss(params, g, g) == pytest.approx(-0.7 * float(g @ g), rel=1e-14)

    def test_ratio_hand_computed(self):
        # sum sq = 3, dot = 20
        params = LossParams(variant="ratio")
        assert loss(params, [1, 2, 3], [2, 3, 4]) == pytest.approx(0.15, rel=1e-14)

    def test_ratio_signed_when_dot_negative(self):
        params = LossParams(variant="ratio")
        assert loss(params, [1.0, 2.0], [-1.0, -2.0]) < 0

    def test_singular_dot_product(self):
        params = LossParams(variant="ratio")
        with pytest.raises(Singularity):
            loss(params, [1.0, -1.0], [1.0, 1.0])

    def test_abs_variants_nonnegative(self):
        rng = np.random.default_rng(0)
        for variant in ("ratio_pow", "general_ratio", "diff_pow", "general_diff",
                        "abs_mse_over_cov"):
            for _ in range(60):
                params, g, p = random_safe_instance(rng, variant)
                assert loss(params, g, p) >= 0.0

    def test_validation(self):
        for gamma in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidInput):
                LossParams(variant="ratio", gamma=gamma)
        with pytest.raises(InvalidInput):
            LossParams(variant="nope")
        for alpha in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidInput):
                LossParams(variant="diff", alpha=alpha)
        with pytest.raises(InvalidInput):
            LossParams(variant="general_diff", per_sample_eps=[1.0, -2.0])
        with pytest.raises(InvalidInput, match="^per_sample_alpha must be real numbers"):
            LossParams(variant="general_ratio", per_sample_alpha=["a", "b", "c"])
        # a column of the right length is not a per-sample vector
        for name in ("per_sample_alpha", "per_sample_beta", "per_sample_eps"):
            params = LossParams(variant="general_ratio", **{name: np.ones((3, 1), dtype=int)})
            with pytest.raises(InvalidInput, match=r"must have shape \(3,\)"):
                loss(params, [1.0, 2.0, 3.0], [1.5, 2.5, 2.0])
        for step in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidInput, match="step"):
                training_trace(LossParams(variant="diff"), [1.0, 2.0], [1.5, 2.5], step, 5)

    @pytest.mark.parametrize("beta", [["a", "b"], [None, 1], [1.5, 2.0], [True, False]])
    def test_per_sample_beta_that_is_no_integer_names_it(self, beta):
        with pytest.raises(InvalidInput, match="^per_sample_beta"):
            LossParams(variant="general_ratio", per_sample_beta=beta)


class TestOverflow:
    # |inner| = 2994 / 212 for these rows, and its 300th power is past float64
    GOLD, PRED = [1.0, 2.0, 3.0], [2.0, 30.0, 50.0]

    def test_loss_past_float64_names_the_loss(self):
        with pytest.raises(InvalidInput, match="^loss overflows"):
            loss(LossParams(variant="ratio_pow", gamma=300.0), self.GOLD, self.PRED)

    def test_gradient_past_float64_names_the_gradient(self):
        with pytest.raises(InvalidInput, match="^loss gradient overflows"):
            loss_gradient(LossParams(variant="ratio_pow", gamma=300.0), self.GOLD, self.PRED)

    def test_mse_over_a_subnormal_cov_names_the_loss(self):
        # in the kernel's units cov is about -1e-314, so mse / cov is past float64 before
        # it is unscaled; the quotient of two Python floats is inf, not an exception
        gold, pred = [-1.0, 1.0, 2.0**-1040], [1.0, 1.0, 0.5]
        with pytest.raises(InvalidInput, match="^loss overflows"):
            loss(LossParams(variant="abs_mse_over_cov"), gold, pred)
        with pytest.raises(InvalidInput, match="^loss overflows"):
            training_trace(LossParams(variant="abs_mse_over_cov"), gold, pred, 0.1, 5)

    def test_loss_builds_no_gradient(self):
        # mse is 7e210 and cov 1/3, so the loss is finite; the gradient's
        # mse * (g - mean g) / cov**2 term is past float64
        g = np.array([1.0, 2.0, 4.0]) * 1e105
        p = np.array([1.0, 3.0, 2.0]) * 1e-105
        params = LossParams(variant="abs_mse_over_cov")
        assert loss(params, g, p) == pytest.approx(mse(g, p) / covariance(g, p), rel=1e-14)
        with pytest.raises(InvalidInput, match="gradient"):
            loss_gradient(params, g, p)

    # ratio and ratio_pow are evaluated at a power of two: see TestLossCccLink
    @pytest.mark.parametrize("variant", [v for v in VARIANTS if v not in ("abs_mse_over_cov", "ratio", "ratio_pow")])
    def test_raw_sums_past_float64_name_the_loss(self, variant):
        g, p = [1e154, 2e154, 3e154], [2e154, 1e154, 4e154]
        for fn in (loss, loss_gradient):
            with pytest.raises(InvalidInput, match="^loss overflows float64$"):
                fn(LossParams(variant=variant), g, p)

    @pytest.mark.parametrize(
        "params, g, p",
        [
            # the loss is 1e300, but sum(g p)**2 in the gradient's denominator underflows
            (LossParams(variant="ratio"), [1e-300, -1e-300, 1.0], [1e-300, 1e-300, 1e-300]),
            (LossParams(variant="diff", alpha=1e300), [1e10, 2e10], [1e-300, 1e-300]),
        ],
        ids=["ratio", "diff"],
    )
    def test_unwrapped_gradient_past_float64(self, params, g, p):
        assert np.isfinite(loss(params, g, p))
        with pytest.raises(InvalidInput, match="^loss gradient overflows"):
            loss_gradient(params, g, p)


class TestLossCccLink:
    def test_ratio_equals_n_mse_over_dot(self):
        rng = np.random.default_rng(1)
        params = LossParams(variant="ratio")
        for _ in range(100):
            n = int(rng.integers(2, 20))
            g = rng.uniform(0.5, 3, n)
            p = rng.uniform(0.5, 3, n)
            expected = n * mse(g, p) / float(g @ p)
            assert loss(params, g, p) == pytest.approx(expected, rel=1e-12)

    def test_abs_mse_over_cov_reconstructs_ccc(self):
        rng = np.random.default_rng(2)
        params = LossParams(variant="abs_mse_over_cov", gamma=1.0)
        for _ in range(100):
            n = int(rng.integers(3, 20))
            g = rng.uniform(-2, 2, n)
            p = g + rng.uniform(-0.3, 0.3, n)  # keeps covariance positive
            cov = covariance(g, p)
            if cov <= 0:
                continue
            signed = loss(params, g, p)
            assert (1 + signed / 2) ** -1 == pytest.approx(ccc(g, p), rel=1e-12)
            assert ccc_from_mse_cov(mse(g, p), cov) == pytest.approx(
                ccc(g, p), rel=1e-12
            )

    @pytest.mark.parametrize("variant", ["ratio", "ratio_pow"])
    @pytest.mark.parametrize("exponent", [-400, 0, 510])
    def test_unit_weight_ratios_exact_under_power_of_two_scaling(self, variant, exponent):
        # N and R are past float64 at 2**510; 1e154 is the CLI's case
        rng = np.random.default_rng(4)
        params = LossParams(variant=variant, gamma=1.5)
        for _ in range(20):
            g = rng.uniform(0.5, 3, 6)
            p = g + rng.uniform(-0.5, 0.5, 6)
            gs, ps = np.ldexp(g, exponent), np.ldexp(p, exponent)
            assert loss(params, gs, ps) == loss(params, g, p)
            np.testing.assert_array_equal(
                np.ldexp(loss_gradient(params, gs, ps), exponent), loss_gradient(params, g, p)
            )
        g, p = np.array([1.0, 2.0, 3.0, 4.0]), np.array([2.0, 1.0, 3.5, 4.0])
        assert loss(LossParams(variant=variant), g * 1e154, p * 1e154) == pytest.approx(2.25 / 30.5, rel=1e-15)

    @pytest.mark.parametrize("exponent", [-500, 500])
    def test_abs_mse_over_cov_exact_under_power_of_two_scaling(self, exponent):
        # cov * cov is past float64 at 2**500 and below it at 2**-500 in raw units
        rng = np.random.default_rng(3)
        params = LossParams(variant="abs_mse_over_cov", gamma=1.5)
        for _ in range(20):
            g = rng.uniform(-2, 2, 7)
            p = g + rng.uniform(-0.5, 0.5, 7)
            gs, ps = np.ldexp(g, exponent), np.ldexp(p, exponent)
            assert loss(params, gs, ps) == loss(params, g, p)
            np.testing.assert_array_equal(
                np.ldexp(loss_gradient(params, gs, ps), exponent), loss_gradient(params, g, p)
            )


class TestGradients:
    def test_diff_gradient_closed_form(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(-2, 2, 7)
        p = rng.uniform(-2, 2, 7)
        params = LossParams(variant="diff", alpha=0.9)
        np.testing.assert_allclose(
            loss_gradient(params, g, p), 2 * (p - g) - 0.9 * g, rtol=1e-14
        )

    def test_ratio_gradient_vanishes_at_identity(self):
        g = np.array([1.0, 2.0, 3.0])
        params = LossParams(variant="ratio")
        np.testing.assert_allclose(loss_gradient(params, g, g), np.zeros(3), atol=1e-15)

    @pytest.mark.parametrize("scale", [1e-80, 1e-82, 1e80])
    def test_ratio_gradient_scales_with_the_rows(self, scale):
        # the gradient divides by R once: R * R is subnormal at 1e-80, zero at 1e-82 and
        # past float64 at 1e80
        g, p = np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 4.0])
        params = LossParams(variant="ratio")
        np.testing.assert_allclose(
            loss_gradient(params, g * scale, p * scale) * scale, loss_gradient(params, g, p),
            rtol=1e-15,
        )

    def test_all_variants_match_finite_differences(self):
        rng = np.random.default_rng(4)
        for variant in VARIANTS:
            for _ in range(25):
                params, g, p = random_safe_instance(rng, variant)
                analytic = loss_gradient(params, g, p)
                h = 1e-6 * max(1.0, float(np.max(np.abs(p))))
                numeric = finite_difference(lambda v: loss(params, g, v), p, h)
                scale = max(1.0, float(np.max(np.abs(analytic))))
                np.testing.assert_allclose(
                    analytic, numeric, rtol=1e-5, atol=1e-5 * scale
                )

    def test_abs_mse_over_cov_sign_matches_numeric_slope(self):
        rng = np.random.default_rng(5)
        params = LossParams(variant="abs_mse_over_cov", gamma=1.0)
        g = rng.uniform(-2, 2, 10)
        p = g + rng.uniform(-0.2, 0.2, 10)
        grad = loss_gradient(params, g, p)
        for _ in range(20):
            direction = rng.standard_normal(10)
            slope = float(grad @ direction)
            eps = 1e-7
            numeric = (
                loss(params, g, p + eps * direction) - loss(params, g, p - eps * direction)
            ) / (2 * eps)
            assert np.sign(slope) == np.sign(numeric)

    def test_subgradient_zero_at_kink(self):
        # inner value exactly zero for diff_pow
        g = np.array([1.0, 1.0])
        p = np.array([1.0, 1.0])  # sq = 0, reward = 2 -> inner = -2*alpha ... pick alpha 0
        params = LossParams(variant="diff_pow", alpha=0.0, gamma=0.5)
        assert loss(params, g, p) == 0.0
        np.testing.assert_array_equal(loss_gradient(params, g, p), np.zeros(2))


class TestSpecializationChain:
    def test_general_ratio_to_ratio_pow(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            g = rng.uniform(0.5, 3, n)
            p = rng.uniform(0.5, 3, n)
            gamma = float(rng.choice([0.5, 1.0, 2.3]))
            general = LossParams(
                variant="general_ratio",
                gamma=gamma,
                per_sample_eps=np.ones(n),
                per_sample_alpha=np.ones(n),
                per_sample_beta=np.zeros(n, dtype=np.int64),
            )
            power = LossParams(variant="ratio_pow", gamma=gamma)
            assert loss(general, g, p) == loss(power, g, p)  # unit weights are exact
            np.testing.assert_array_equal(loss_gradient(general, g, p), loss_gradient(power, g, p))

    def test_ratio_pow_gamma_one_to_ratio(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            g = rng.uniform(0.5, 3, n)
            p = rng.uniform(0.5, 3, n)  # positive dot product: ratio is nonnegative
            a = loss(LossParams(variant="ratio_pow", gamma=1.0), g, p)
            b = loss(LossParams(variant="ratio"), g, p)
            assert a == pytest.approx(b, rel=1e-12)

    def test_general_diff_to_diff_pow_to_diff(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            g = rng.uniform(0.5, 3, n)
            p = rng.uniform(0.5, 3, n)
            alpha = float(rng.uniform(0.2, 2.0))
            beta = int(rng.integers(0, 3))
            gamma = float(rng.choice([0.5, 1.0, 2.0]))
            general = LossParams(
                variant="general_diff",
                gamma=gamma,
                per_sample_eps=np.ones(n),
                per_sample_alpha=np.full(n, alpha),
                per_sample_beta=np.full(n, beta, dtype=np.int64),
            )
            power = LossParams(variant="diff_pow", alpha=alpha, beta=beta, gamma=gamma)
            assert loss(general, g, p) == pytest.approx(loss(power, g, p), rel=1e-12)
            plain = loss(LossParams(variant="diff", alpha=alpha), g, p)
            gamma_one = loss(
                LossParams(variant="diff_pow", alpha=alpha, beta=0, gamma=1.0), g, p
            )
            assert gamma_one == pytest.approx(abs(plain), rel=1e-12)


class TestTrainingTrace:
    def test_a_step_past_float64_is_halved_without_a_warning(self):
        # step * grad overflows; the inf candidate is refused and the step halved, 60
        # times, which leaves it far too large, so the trace ends at its start
        g, p = [1.0, 2.0, 4.0, 3.0, 7.0], [1.5, 1.7, 3.9, 3.2, 6.1]
        params = LossParams(variant="diff")
        trace = training_trace(params, g, p, step=1e308, iters=5)
        assert trace.rows.shape == (1, 4)
        assert trace.rows[0, 1] == loss(params, g, p)
        np.testing.assert_array_equal(trace.final_pred, p)

    def test_fixed_point_at_identity(self):
        g = np.array([1.0, 2.0, 3.0])
        params = LossParams(variant="diff", alpha=0.0)  # plain sum of squares
        trace = training_trace(params, g, g, step=0.05, iters=20)
        assert trace.rows.shape[0] == 21
        assert np.all(trace.rows[:, 1] == 0.0)
        assert np.all(trace.rows[:, 3] == pytest.approx(1.0, abs=1e-15))
        assert not trace.diverged

    def test_loss_column_nonincreasing(self):
        rng = np.random.default_rng(9)
        g = rng.uniform(0.5, 3, 12)
        p = g + rng.uniform(-0.5, 0.5, 12)
        params = LossParams(variant="ratio")
        trace = training_trace(params, g, p, step=0.05, iters=100)
        assert np.all(np.diff(trace.rows[:, 1]) <= 1e-15)

    def test_abs_ratio_escapes_anticorrelated_start(self):
        rng = np.random.default_rng(10)
        g = rng.uniform(0.0, 1.0, 24)
        gold = center_gold(g)
        start = g - 3.0 * gold.centered * (1.0 + 0.02 * rng.standard_normal(24))
        step = 3.4667 * gold.n * gold.var_g  # first step jumps the covariance wall
        params = LossParams(variant="abs_mse_over_cov", gamma=1.0)
        trace = training_trace(params, g, start, step=step, iters=500)
        assert trace.rows[0, 3] < 0 < trace.rows[-1, 3]

    def test_one_gradient_per_step(self, monkeypatch):
        # each candidate is evaluated once, and the gradient at p is built once, from the
        # accepted candidate's evaluation, not once per halving of the step
        calls = {"_inner_and_grad": 0, "_wrapped_gradient": 0, "loss": 0, "loss_gradient": 0}

        def counted(name):
            real = getattr(losses, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(losses, name, counted(name))
        rng = np.random.default_rng(12)
        g = rng.uniform(0.5, 3, 12)
        p = g + rng.uniform(-0.5, 0.5, 12)
        params = LossParams(variant="abs_mse_over_cov")
        trace = training_trace(params, g, p, step=50.0, iters=30)
        assert calls["_inner_and_grad"] > trace.rows.shape[0]  # the step was halved
        assert calls["_wrapped_gradient"] == trace.rows.shape[0]
        assert calls["loss"] == calls["loss_gradient"] == 0

    def test_mse_descent_can_reduce_ccc_while_reducing_mse(self):
        rng = np.random.default_rng(11)
        g = rng.uniform(0.0, 1.0, 24)
        gold = center_gold(g)
        start = g - 3.0 * gold.centered  # lower-branch point beyond its minimum
        params = LossParams(variant="diff", alpha=0.0)
        trace = training_trace(params, g, start, step=0.05, iters=40)
        mse_col, ccc_col = trace.rows[:, 2], trace.rows[:, 3]
        paradox = (np.diff(ccc_col) < 0) & (np.diff(mse_col) < 0)
        assert paradox.any()
        assert np.all(np.diff(mse_col) < 0)
