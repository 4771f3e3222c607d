"""Tests for ccc-extreme error orderings and the error-form ccc expressions."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cccmap import (
    DegenerateVariance,
    InvalidInput,
    Singularity,
    ccc,
    covariance,
    error_set,
    mean,
    optimal_permutations,
)
from cccmap.ordering import (
    GOLD_MINUS_PRED,
    PRED_MINUS_GOLD,
    ErrorSet,
    PermutationResult,
    _gold_order,
    _mapped_ccc,
)
from cccmap.stats import _error_mean, _moments


def error_form(g, e, add):
    """ccc of (g, g + e) if ``add``, else of (g, g - e): the exact mapping at the error form's
    covariance var_g +- cov(g, e) and mse = mean(e**2)."""
    g, e = np.asarray(g, float), np.asarray(e, float)
    eg, ee, _, _, var_g, _, cov = _moments(g, e)
    return _mapped_ccc(eg, ee, var_g, cov, _error_mean(np.ldexp(e, -ee), 0, 2, "mse"), add)


def random_instance(rng, n_min=3, n_max=10):
    n = int(rng.integers(n_min, n_max + 1))
    g = rng.uniform(-5, 5, n)
    while np.ptp(g) == 0:
        g = rng.uniform(-5, 5, n)
    e = rng.uniform(-4, 4, n)
    return g, e


class TestErrorSet:
    def test_canonical_sorted(self):
        es = error_set([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(es.values, [-1.0, 2.0, 3.0])
        assert es.mse == pytest.approx(14.0 / 3.0, rel=1e-15)

    def test_power_mean_inequality(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            es = error_set(rng.standard_normal(int(rng.integers(1, 20))))
            assert es.mse >= mean(es.values) ** 2 - 1e-15


class TestErrorFormCcc:
    def test_zero_errors(self):
        assert error_form([1, 2, 3], [0, 0, 0], True) == pytest.approx(1.0, abs=1e-15)
        assert error_form([1, 2, 3], [0, 0, 0], False) == pytest.approx(1.0, abs=1e-15)

    def test_constant_shift(self):
        g = [1.0, 2.0, 3.0]
        e = [0.1, 0.1, 0.1]
        assert error_form(g, e, True) == pytest.approx(
            ccc(g, [1.1, 2.1, 3.1]), rel=1e-12
        )

    def test_constant_prediction_gives_zero(self):
        assert error_form([1, 2, 3], [1, 0, -1], True) == pytest.approx(0.0, abs=1e-15)
        assert ccc([1, 2, 3], [2, 2, 2]) == 0.0

    def test_matches_direct_ccc_random(self):
        rng = np.random.default_rng(1)
        for _ in range(400):
            g, e = random_instance(rng)
            assert error_form(g, e, True) == pytest.approx(ccc(g, g + e), rel=1e-11, abs=1e-12)
            assert error_form(g, e, False) == pytest.approx(ccc(g, g - e), rel=1e-11, abs=1e-12)

    def test_sign_convention_duality(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            g, e = random_instance(rng)
            assert error_form(g, e, True) == pytest.approx(
                error_form(g, -e, False), rel=1e-14, abs=1e-15
            )

    @pytest.mark.parametrize("exponent", [-500, 500, 511])
    def test_exact_under_power_of_two_scaling(self, exponent):
        # at 2**511, var_g + cov(g, e) is past float64; the mapping is taken in scaled units
        g, e = np.array([-1.5, 2.0, -1.75, 1.5]), np.array([-1.0, 1.0, -0.5, 1.25])
        gs, es = np.ldexp(g, exponent), np.ldexp(e, exponent)
        assert error_form(gs, es, True) == error_form(g, e, True)
        assert error_form(gs, es, False) == error_form(g, e, False)

    def test_zero_denominator_raises(self):
        # constant gold with zero errors: the prediction collapses onto it
        with pytest.raises(Singularity):
            error_form([2.0, 2.0, 2.0], [0.0, 0.0, 0.0], True)


class TestChebyshevCheck:
    """Chebyshev's sum inequality: (1/n) sum a_k b_k - mean(a) mean(b) is nonnegative when a
    and b are sorted in the same direction, nonpositive when sorted opposite."""

    def test_self_product_is_variance(self):
        assert covariance([1, 2, 3], [1, 2, 3]) == pytest.approx(
            2.0 / 3.0, rel=1e-12
        )

    def test_large_offset_and_range(self):
        a = [1e9, 1e9 + 1, 1e9 + 2]
        assert covariance(a, a) == 2.0 / 3.0
        with pytest.raises(InvalidInput, match="covariance"):
            covariance([1e160, 2e160, 3e160], [1e160, 2e160, 3e160])

    def test_same_direction_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            a = np.sort(rng.standard_normal(n))
            b = np.sort(rng.standard_normal(n))
            assert covariance(a, b) >= -1e-12
            assert covariance(a, b[::-1]) <= 1e-12


class TestOptimalPermutations:
    def test_constant_errors_order_irrelevant(self):
        g = np.array([0.0, 1.0, 4.0, 2.0])
        ext = optimal_permutations(g, error_set([0.7] * 4))
        values = {
            round(r.ccc_value, 13)
            for r in (ext.max_add, ext.min_add)
        }
        assert len(values) == 1
        values_sub = {round(r.ccc_value, 13) for r in (ext.max_sub, ext.min_sub)}
        assert len(values_sub) == 1
        np.testing.assert_allclose(ext.max_add.prediction, g + 0.7, atol=1e-15)
        np.testing.assert_allclose(ext.max_sub.prediction, g - 0.7, atol=1e-15)

    def test_constant_gold_rejected(self):
        with pytest.raises(DegenerateVariance):
            optimal_permutations([2, 2, 2], error_set([1, 2, 3]))

    def test_overflowing_prediction_rejected(self):
        # error_set refuses errors this large (their mse overflows); a hand-built set does not
        es = ErrorSet(values=np.array([0.0, 0.5, 1e308]), mse=0.0)
        with np.errstate(over="ignore"), pytest.raises(InvalidInput, match="sequence contains NaN or Inf"):
            optimal_permutations([0.0, 1.0, 1.7e308], es)

    def test_closed_form_matches_direct_ccc(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            g, e = random_instance(rng)
            ext = optimal_permutations(g, error_set(e))
            for res in (ext.max_add, ext.max_sub, ext.min_add, ext.min_sub):
                assert res.formula_value == pytest.approx(res.ccc_value, abs=1e-10)

    def test_closed_form_with_errors_below_the_normal_range(self):
        # mean(e**2) is subnormal here; the mapping takes it in the moment kernel's units
        ext = optimal_permutations([1e-160, 2e-160, 4e-160], error_set([1e-161, -3e-161, 2e-161]))
        for res in (ext.max_add, ext.max_sub, ext.min_add, ext.min_sub):
            assert res.formula_value == pytest.approx(res.ccc_value, rel=1e-12, abs=0)

    def test_closed_forms_are_shift_invariant(self):
        g = np.array([1.0, 2.0, 4.0, 0.0])
        es = error_set([0.5, -1.0, 2.0, 0.1])
        keys = ("max_add", "max_sub", "min_add", "min_sub")
        base = optimal_permutations(g, es)
        shifted = optimal_permutations(g + 1e8, es)
        for key in keys:
            assert getattr(shifted, key).formula_value == getattr(base, key).formula_value

    def test_exhaustive_agreement_small_n(self):
        # oracle: direct ccc over every ordering, computed independently here
        import itertools

        rng = np.random.default_rng(5)
        for _ in range(25):
            g, e = random_instance(rng, n_min=3, n_max=6)
            ext = optimal_permutations(g, error_set(e))
            add_vals = [ccc(g, g + np.array(p)) for p in itertools.permutations(e)]
            sub_vals = [ccc(g, g - np.array(p)) for p in itertools.permutations(e)]
            assert ext.max_add.ccc_value == pytest.approx(max(add_vals), abs=1e-10)
            assert ext.min_add.ccc_value == pytest.approx(min(add_vals), abs=1e-10)
            assert ext.max_sub.ccc_value == pytest.approx(max(sub_vals), abs=1e-10)
            assert ext.min_sub.ccc_value == pytest.approx(min(sub_vals), abs=1e-10)

    def test_maxima_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            g, e = random_instance(rng)
            ext = optimal_permutations(g, error_set(e))
            assert 0.0 - 1e-12 <= ext.max_add.ccc_value <= 1.0 + 1e-12
            assert 0.0 - 1e-12 <= ext.max_sub.ccc_value <= 1.0 + 1e-12

    def test_maximum_decays_toward_zero_with_error_scale(self):
        g = np.array([0.2, 1.5, -0.7, 2.8, 0.4])
        e = np.array([0.3, -0.9, 1.1, 0.2, -0.5])
        previous = None
        for power in range(7):
            ext = optimal_permutations(g, error_set(e * 10.0**power))
            value = ext.max_add.ccc_value
            assert value >= 0
            if previous is not None:
                assert value < previous
            previous = value
        assert previous < 1e-4

    def test_multiset_conservation_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            g, e = random_instance(rng)
            es = error_set(e)
            ext = optimal_permutations(g, es)
            for res, sign in (
                (ext.max_add, +1),
                (ext.min_add, +1),
                (ext.max_sub, -1),
                (ext.min_sub, -1),
            ):
                # carried errors: bitwise multiset equality after canonical sort
                np.testing.assert_array_equal(np.sort(res.errors), es.values)
                # through the prediction arithmetic: exact up to one rounding
                recovered = np.sort(sign * (res.prediction - np.asarray(g)))
                scale = max(1.0, float(np.max(np.abs(g))))
                np.testing.assert_allclose(recovered, es.values, atol=4e-16 * scale)

    def test_sign_duality_maps_results(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            g, e = random_instance(rng)
            ext = optimal_permutations(g, error_set(e))
            ext_neg = optimal_permutations(g, error_set(-e))
            np.testing.assert_allclose(
                ext.max_add.prediction, ext_neg.max_sub.prediction, atol=1e-14
            )
            np.testing.assert_allclose(
                ext.min_add.prediction, ext_neg.min_sub.prediction, atol=1e-14
            )

    def test_assignment_pairs_extremes(self):
        # largest error with the largest gold (max_add), with the smallest (max_sub)
        rng = np.random.default_rng(9)
        g, e = random_instance(rng, n_min=5, n_max=8)
        ext = optimal_permutations(g, error_set(e))
        i_gmax = int(np.argmax(g))
        i_gmin = int(np.argmin(g))
        assert ext.max_add.prediction[i_gmax] - g[i_gmax] == pytest.approx(max(e))
        assert g[i_gmin] - ext.max_sub.prediction[i_gmin] == pytest.approx(max(e))

    def test_positive_errors_make_predictions_track_opposite_extremes(self):
        # strictly positive errors with a near-zero minimum: the additive
        # optimum hugs the gold minimum, the subtractive one hugs the maximum
        rng = np.random.default_rng(12)
        g = rng.uniform(-1, 1, 10)
        e = rng.uniform(0.2, 0.8, 10)
        e[0] = 1e-9
        ext = optimal_permutations(g, error_set(e))
        i_gmin = int(np.argmin(g))
        i_gmax = int(np.argmax(g))
        assert abs(ext.max_add.prediction[i_gmin] - g[i_gmin]) == pytest.approx(1e-9)
        assert abs(ext.max_sub.prediction[i_gmax] - g[i_gmax]) == pytest.approx(1e-9)
        assert np.all(ext.max_add.prediction >= g)  # P = G + E with E > 0
        assert np.all(ext.max_sub.prediction <= g)


class TestResultArrays:
    def test_arrays_are_read_only_and_shared_between_equal_extremes(self):
        ext = optimal_permutations([1.0, 3.0, 2.0, 0.5], error_set([0.2, -1.0, 0.7, 0.1]))
        results = (ext.max_add, ext.max_sub, ext.min_add, ext.min_sub)
        for res in results:
            for arr in (res.errors, res.prediction):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0
        assert np.shares_memory(ext.max_add.errors, ext.min_sub.errors)
        assert np.shares_memory(ext.max_sub.errors, ext.min_add.errors)
        for i, a in enumerate(results):
            for b in results[i + 1:]:
                assert not np.shares_memory(a.prediction, b.prediction)

    def test_retained_and_peak_memory_at_2e5_rows(self):
        n = 200_000
        rng = np.random.default_rng(14)
        g, es = rng.standard_normal(n), error_set(rng.standard_normal(n))
        optimal_permutations(g[:100], error_set(es.values[:100]))  # lazy set-up outside the count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ext = optimal_permutations(g, es)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        column, slack = 8 * n, 1 << 16  # an n-length float64 array; the small objects
        assert after - before <= 6 * column + slack  # two error rows, four predictions
        assert peak - before <= 10 * column + slack
        assert ext.max_add.prediction.size == n


class TestCompareConventions:
    @staticmethod
    def winner(g, e):
        """Which convention attains the higher maximum ccc, ties within 1e-12 relative."""
        ext = optimal_permutations(g, error_set(e))
        v1, v2 = ext.max_add.formula_value, ext.max_sub.formula_value
        if abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1), abs(v2)):
            return "tie"
        return "add_better" if v1 > v2 else "sub_better"

    def test_symmetric_instance_ties(self):
        assert self.winner([-2, 0, 2], [-1, 0, 1]) == "tie"

    def test_zero_errors_tie_at_one(self):
        g = [1.0, 2.0, 5.0]
        ext = optimal_permutations(g, error_set([0, 0, 0]))
        assert ext.max_add.ccc_value == pytest.approx(1.0, abs=1e-15)
        assert self.winner(g, [0, 0, 0]) == "tie"

    def test_both_outcomes_exist(self):
        rng = np.random.default_rng(10)
        seen = set()
        for _ in range(2000):
            g, e = random_instance(rng)
            seen.add(self.winner(g, e))
            if {"add_better", "sub_better"} <= seen:
                break
        assert {"add_better", "sub_better"} <= seen


# ---------------------------------------------------------------------------
# the extremes against a frozen stable-argsort reference


def _stable_reference(g, es):
    """The four extremes as built from a stable argsort of the gold (ties in gold in
    index order), frozen here as the reference for every field's bits."""
    order = np.argsort(g, kind="stable")
    out = {}
    for name, convention, objective, paired in (
        ("max_add", PRED_MINUS_GOLD, "max", es.values),
        ("max_sub", GOLD_MINUS_PRED, "max", es.values[::-1]),
        ("min_add", PRED_MINUS_GOLD, "min", es.values[::-1]),
        ("min_sub", GOLD_MINUS_PRED, "min", es.values),
    ):
        errors = np.empty(g.size)
        errors[order] = paired  # paired[j] goes with the j-th smallest gold
        add = convention == PRED_MINUS_GOLD
        pred = g + errors if add else g - errors
        eg, ee, _, _, var_g, _, cov = _moments(g, errors)
        mse = _error_mean(np.ldexp(es.values, -ee), 0, 2, "mse")
        out[name] = PermutationResult(
            convention=convention,
            objective=objective,
            errors=errors,
            prediction=pred,
            ccc_value=ccc(g, pred),
            formula_value=_mapped_ccc(eg, ee, var_g, cov, mse, add),
        )
    return out


def _gold(kind, n, rng):
    if kind == "few_levels":  # two to five levels, at least two of them present
        levels = rng.uniform(-3, 3, int(rng.integers(2, 6)))
        g = rng.choice(levels, n)
        g[:2] = levels[:2]
        return rng.permutation(g)
    if kind == "signed_zeros":  # -0.0 == 0.0: one tie run that mixes the two
        return rng.choice([-0.0, 0.0, 0.0, 1.0, -2.5], n)
    if kind == "clash_cluster":
        # values 2**-45 apart near 1, with ties, and a -1 that stretches the key range
        # to 2**63: the packed sort cuts keys that agree in all but their last bits
        g = 1.0 + rng.integers(0, n, n) * 2.0**-45
        g[rng.integers(n)] = -1.0
        return g
    if kind == "cluster_outlier":  # a dense cluster far from one outlier at 0
        g = 1.7e9 + rng.permutation(n) * 2.0**-20  # 4 ulps apart
        g[rng.integers(n)] = 0.0
        return g
    return rng.permutation(np.arange(n) + rng.uniform(0, 0.5, n))  # all distinct


def _assert_matches_stable_reference(g, errors):
    es = error_set(errors)
    if np.ptp(g) == 0:
        with pytest.raises(DegenerateVariance):
            optimal_permutations(g, es)
        return
    ext = optimal_permutations(g, es)
    for name, ref in _stable_reference(g, es).items():
        got = getattr(ext, name)
        for field in ("convention", "objective"):
            assert getattr(got, field) == getattr(ref, field)
        for field in ("errors", "prediction"):
            assert getattr(got, field).dtype == np.float64
            assert getattr(got, field).tobytes() == getattr(ref, field).tobytes(), (name, field)
        for field in ("ccc_value", "formula_value"):
            assert np.float64(getattr(got, field)).tobytes() == np.float64(getattr(ref, field)).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["few_levels", "signed_zeros", "clash_cluster", "cluster_outlier", "distinct"]),
    errors_kind=st.sampled_from(["normal", "rounded", "constant_prediction"]),
    n=st.integers(2, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_extremes_match_the_stable_argsort_reference(kind, errors_kind, n, seed):
    rng = np.random.default_rng(seed)
    g = _gold(kind, n, rng)
    errors = rng.standard_normal(n)
    if errors_kind == "rounded":
        errors = np.round(errors, 1)  # ties in the errors as well
    elif errors_kind == "constant_prediction":
        errors = np.round(errors[0], 2) - g  # min_add predicts (about) this constant everywhere
    _assert_matches_stable_reference(g, errors)


@pytest.mark.parametrize(
    "kind", ["few_levels", "signed_zeros", "clash_cluster", "cluster_outlier", "distinct"]
)
def test_large_gold_matches_the_stable_argsort_reference(kind):
    rng = np.random.default_rng(13)
    n = 200_000
    _assert_matches_stable_reference(_gold(kind, n, rng), rng.standard_normal(n))


# ---------------------------------------------------------------------------
# the packed-key gold order against numpy's stable argsort


def _order_gold(kind, n, rng):
    if kind in ("sorted", "reversed"):
        g = np.sort(rng.standard_normal(n))
        return g if kind == "sorted" else g[::-1].copy()
    if kind == "heavy_ties":
        return rng.integers(0, 3, n).astype(float)
    if kind == "extremes":  # subnormals, the ends of the range, both zeros
        return rng.choice([5e-324, -5e-324, 1e-310, -2.2e-308, 1e308, -1e308, 1.7976931348623157e308,
                           -1.7976931348623157e308, 0.0, -0.0, 1.0], n)
    if kind == "signed_zeros":
        return rng.choice([-0.0, 0.0], n)
    return _gold(kind, n, rng)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["signed_zeros", "heavy_ties", "clash_cluster", "cluster_outlier",
                          "sorted", "reversed", "extremes", "distinct"]),
    n=st.integers(2, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_gold_order_is_the_stable_argsort(kind, n, seed):
    g = _order_gold(kind, n, np.random.default_rng(seed))
    assert np.array_equal(_gold_order(g, np.empty((2, n))), np.argsort(g, kind="stable"))


def _spy_on_argsort(monkeypatch):
    """The orders np.argsort returns from now on, one list entry per call."""
    calls = []
    real = np.argsort

    def spy(a, *args, **kwargs):
        calls.append(real(a, *args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(np, "argsort", spy)
    return calls


@pytest.mark.parametrize("kind", ["clash_cluster", "cluster_outlier"])
def test_clashing_keys_are_repaired(kind, monkeypatch):
    # these golds do make distinct values share a cut key out of order, so the runs of
    # equal cut keys are sorted again by value, and that moves some of them
    n = 5000
    g = _gold(kind, n, np.random.default_rng(3))
    expected = np.argsort(g, kind="stable")
    resorts = _spy_on_argsort(monkeypatch)
    assert np.array_equal(_gold_order(g, np.empty((2, n))), expected)
    assert len(resorts) == 1
    assert not np.array_equal(resorts[0], np.arange(resorts[0].size))


def test_runs_of_cut_keys_are_sorted_by_value():
    # n = 2**21 + 2 values whose images are the keys below: the largest finite double cuts
    # 23 bits from every image, so each pair (p << 23 | 3, p << 23 | 2), subnormal as
    # doubles, shares a cut key out of order; the last pair's run holds a third value
    pairs = 1 << 20
    n = 2 * pairs + 2
    key = np.empty(n, dtype=np.int64)
    high = np.arange(pairs, dtype=np.int64) << 23
    key[0:2 * pairs:2] = high | 3
    key[1:2 * pairs:2] = high | 2
    key[-2] = high[-1] | 1
    key[-1] = np.float64(np.finfo(np.float64).max).view(np.int64)
    g = key.view(np.float64)
    expected = np.arange(n)
    expected[:2 * pairs] ^= 1  # each pair swapped
    expected[-4:-1] = [n - 2, n - 3, n - 4]  # the run of three reversed
    order = _gold_order(g, np.empty((2, n)))
    assert np.array_equal(order, expected)
    assert np.array_equal(order, np.argsort(g, kind="stable"))


def test_signed_zeros_in_a_run_keep_index_order(monkeypatch):
    # +-1e308 cut every image near zero to one key per sign: -0.0 and 0.0 share a run with
    # positive subnormals placed out of order, so the run is sorted again by value, and the
    # zeros, equal as values, stay in index order
    g = np.array([1e308, 5e-324, 0.0, -0.0, -5e-324, 1e-320, -0.0, -1e-320, 0.0, -1e308])
    resorts = _spy_on_argsort(monkeypatch)
    order = _gold_order(g, np.empty((2, g.size)))
    assert len(resorts) == 1
    monkeypatch.undo()
    assert order.tolist() == [9, 7, 4, 2, 3, 6, 8, 1, 5, 0]
    assert np.array_equal(order, np.argsort(g, kind="stable"))
