"""One check per input rule: every scalar, count and array parameter of the public
functions ends in a result or a typed CccmapError, no module writes its own finite-range
check, and only ``stats`` reads a dtype's kind.

The array gate probes each array parameter with values of every kind. Bool, integer and
float arrays, and lists of real numbers (a Python int past int64 among them), give what
their float64 conversion gives, bit for bit. Text, complex, masked, ragged, ``None``,
NaN, Inf and values past float64 are refused with an InvalidInput whose message opens with
the parameter's name (a value past float64 as that), and so are an empty or 2-D sequence
and a length that does not match the other arguments. ``per_sample_beta`` takes integer
arrays only, within int64. numpy's bool scalar is taken wherever Python's ``bool`` is.
"""

import dataclasses
import math
import numbers
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cccmap
from cccmap import (
    CccmapError,
    InvalidInput,
    LossParams,
    StationarityProblem,
    bounds_given_mse,
    ccc,
    ccc_from_mse_cov,
    center_gold,
    conjugate_theta,
    covariance,
    envelope_given_lk,
    envelope_kernel,
    error_set,
    finite_difference,
    lk_region_table,
    lk_sphere_oracle,
    loss,
    loss_gradient,
    lower_envelope,
    lp_norm,
    mae,
    mean,
    mke,
    mse,
    mse_region_table,
    mse_sphere_oracle,
    norm_sandwich,
    optimal_permutations,
    pair_stats,
    pearson,
    permutation_oracle,
    population_variance,
    quadratic_in_gold,
    scaled_residual,
    solve,
    theta_band,
    training_trace,
    upper_envelope,
    variance_identity_residual,
)
from cccmap.lk_bounds import lower_family, theta_grid

PACKAGE = Path(cccmap.__file__).parent
# a chained comparison from 0 or -inf up to inf: `0.0 < x < inf`, `-np.inf < x < np.inf`
CHAINED_RANGE = re.compile(
    r"(-\s*(np\.|math\.)?inf|\b0(\.0)?)\s*<=?\s*[^<>=]+?<=?\s*(np\.|math\.)?inf\b"
)


def test_no_module_writes_a_finite_range_check():
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if CHAINED_RANGE.search(line)
    ]
    assert offenders == [], "a range check outside stats._real:\n" + "\n".join(offenders)


def test_the_guard_sees_the_checks_it_forbids():
    for line in ("if not 0.0 < p < math.inf:", "if not 0 <= beta < np.inf", "-np.inf < c < np.inf"):
        assert CHAINED_RANGE.search(line), line
    for line in ("sys.float_info.min <= abs(out) < math.inf", "if not r < p:", "1.0 <= t <= top"):
        assert not CHAINED_RANGE.search(line), line


# reading a dtype's kind decides which arrays count as real numbers: stats._reals' rule
DTYPE_KIND = re.compile(r"\.dtype\.kind\b")


def test_no_module_but_stats_reads_a_dtype_kind():
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "stats.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if DTYPE_KIND.search(line)
    ]
    assert offenders == [], "a dtype rule outside stats:\n" + "\n".join(offenders)


def test_the_dtype_guard_sees_the_checks_it_forbids():
    for line in ('if vec.dtype.kind not in "iu":', "kind = np.asarray(v).dtype.kind", "a.dtype.kind"):
        assert DTYPE_KIND.search(line), line
    for line in ("np.zeros(n, dtype=bool)", "arr.dtype == np.float64", "x.dtype.kinds", "dtype.kind"):
        assert not DTYPE_KIND.search(line), line


GOLD = np.array([1.0, 2.0, 4.0, 3.0, 7.0])
CG = center_gold(GOLD)
PROB = StationarityProblem(CG, 4, 1.0, "max")
ERRORS = np.array([0.5, -0.25, 0.75, 0.1, -0.6])
PARAMS = LossParams("diff_pow", gamma=2.0)

# name: (function, positional arguments, valid scalar and count keywords, the counts)
CASES = {
    "lp_norm": (lp_norm, (ERRORS,), {"p": 3.0}, ()),
    "mke": (mke, (GOLD, GOLD + ERRORS), {"k": 3.0}, ()),
    "ccc_from_mse_cov": (ccc_from_mse_cov, (), {"mse_value": 1.0, "cov": 0.5}, ()),
    "envelope_kernel": (envelope_kernel, (), {"t": 0.5}, ()),
    "upper_envelope": (upper_envelope, (), {"x": 0.5}, ()),
    "lower_envelope": (lower_envelope, (), {"x": 0.5}, ()),
    "bounds_given_mse": (bounds_given_mse, (CG,), {"mse_value": 1.0}, ()),
    "mse_region_table": (mse_region_table, (), {"x_max": 4.0, "steps": 5}, ("steps",)),
    "norm_sandwich": (norm_sandwich, (ERRORS,), {"r": 1.0, "p": 3.0}, ()),
    "theta_band": (theta_band, (), {"k": 4.0, "n": 5, "lk": 1.0}, ("n",)),
    "envelope_given_lk": (
        envelope_given_lk, (), {"k": 4.0, "n": 5, "lk": 1.0, "sigma_g": 1.0}, ("n",)
    ),
    "conjugate_theta": (conjugate_theta, (), {"theta1": 2.0, "x": 1.0}, ()),
    "theta_grid": (theta_grid, (), {"theta_max": 2.0, "theta_steps": 3}, ("theta_steps",)),
    "lk_region_table": (
        lk_region_table, (), {"k": 4.0, "n": 5, "x_max": 4.0, "steps": 5, "theta_steps": 3},
        ("n", "steps", "theta_steps"),
    ),
    "StationarityProblem": (
        lambda **kw: solve(StationarityProblem(CG, objective="max", **kw), seed=0),
        (), {"k": 4, "lk": 1.0}, ("k",),
    ),
    "solve": (solve, (PROB,), {"seed": 0, "max_iters": 50}, ("seed", "max_iters")),
    "quadratic_in_gold": (quadratic_in_gold, (PROB, ERRORS), {"i": 1}, ("i",)),
    "LossParams": (
        lambda **kw: LossParams("diff_pow", **kw), (), {"gamma": 2.0, "alpha": 1.0, "beta": 0},
        ("beta",),
    ),
    "training_trace": (
        training_trace, (PARAMS, GOLD, GOLD + ERRORS), {"step": 0.1, "iters": 3}, ("iters",)
    ),
    "mse_sphere_oracle": (
        mse_sphere_oracle, (GOLD,), {"mse": 1.0, "trials": 10, "seed": 0}, ("trials", "seed")
    ),
    "lk_sphere_oracle": (
        lk_sphere_oracle, (GOLD,), {"k": 4.0, "lk": 1.0, "trials": 10, "seed": 0},
        ("trials", "seed"),
    ),
    "finite_difference": (finite_difference, (lambda v: float(v @ v), GOLD), {"h": 1e-3}, ()),
}

#: Values drawn for one parameter at a time; 4.0 and 2.5 are not counts.
VALUES = ["2", None, 1j, math.nan, math.inf, -math.inf, 0, 0.0, -1, -2.5, 2.5, 4.0, 3]

PARAMETERS = [(name, param) for name, (_, _, valid, _) in CASES.items() for param in valid]


def _refused(value, count: bool) -> bool:
    """Whether ``value`` must be refused: it is not a finite real number, or not an integer
    where a count is expected."""
    if not isinstance(value, numbers.Real) or not math.isfinite(value):
        return True
    return count and not isinstance(value, int)


@pytest.mark.parametrize("name, param", PARAMETERS, ids=[f"{n}-{p}" for n, p in PARAMETERS])
@settings(max_examples=2 * len(VALUES), deadline=None, derandomize=True)
@given(value=st.sampled_from(VALUES))
def test_every_parameter_ends_in_a_result_or_a_typed_error(name, param, value):
    fn, args, valid, counts = CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if _refused(value, param in counts):
            with pytest.raises(InvalidInput, match=param.removesuffix("_value")):  # mse_value: mse
                fn(*args, **{**valid, param: value})
        else:
            try:
                fn(*args, **{**valid, param: value})
            except CccmapError:
                pass


G3, P3 = np.array([1.0, 2.0, 4.0]), np.array([1.5, 1.75, 4.5])
E3 = error_set([0.5, -0.25, 0.75])
PROB3 = StationarityProblem(center_gold(G3), 4, 1.0, "max")
GENERAL = "general_ratio"

# (function, parameter, call with the parameter set to v, rule, length bound to the others):
# rule "sequence" is as_sequence's, "array" _reals' at any shape, "counts" _counts'
ARRAY_PARAMETERS = [
    ("mean", "s", mean, "sequence", False),
    ("population_variance", "s", population_variance, "sequence", False),
    *(
        (fn.__name__, param, call, "sequence", True)
        for fn in (covariance, pearson, ccc, variance_identity_residual, mse, mae, pair_stats)
        for param, call in (("x", lambda v, fn=fn: fn(v, P3)), ("y", lambda v, fn=fn: fn(G3, v)))
    ),
    ("mke", "x", lambda v: mke(v, P3, 3.0), "sequence", True),
    ("mke", "y", lambda v: mke(G3, v, 3.0), "sequence", True),
    ("lp_norm", "e", lambda v: lp_norm(v, 3.0), "sequence", False),
    ("center_gold", "gold", center_gold, "sequence", False),
    ("envelope_kernel", "t", envelope_kernel, "array", False),
    ("upper_envelope", "x", upper_envelope, "array", False),
    ("lower_envelope", "x", lower_envelope, "array", False),
    ("lower_family", "x", lambda v: lower_family(v, theta_grid(2.0, 3)), "array", False),
    ("lower_family", "thetas", lambda v: lower_family([0.5, 1.0], v), "array", False),
    ("norm_sandwich", "e", lambda v: norm_sandwich(v, 1.0, 3.0), "sequence", False),
    ("error_set", "values", error_set, "sequence", False),
    ("optimal_permutations", "gold", lambda v: optimal_permutations(v, E3), "sequence", True),
    ("permutation_oracle", "gold", lambda v: permutation_oracle(v, E3, "gold_minus_pred"),
     "sequence", True),
    ("mse_sphere_oracle", "gold", lambda v: mse_sphere_oracle(v, 1.0, 10, 0), "sequence", False),
    ("lk_sphere_oracle", "gold", lambda v: lk_sphere_oracle(v, 4.0, 1.0, 10, 0), "sequence", False),
    ("finite_difference", "at", lambda v: finite_difference(lambda w: float(w @ w), v, 1e-3),
     "sequence", False),
    ("scaled_residual", "d", lambda v: scaled_residual(PROB3, v), "sequence", True),
    ("quadratic_in_gold", "d", lambda v: quadratic_in_gold(PROB3, v, 0), "sequence", True),
    *(
        (fn.__name__, param, call, "sequence", True)
        for fn in (loss, loss_gradient)
        for param, call in (
            ("gold", lambda v, fn=fn: fn(LossParams("ratio"), v, P3)),
            ("pred", lambda v, fn=fn: fn(LossParams("ratio"), G3, v)),
        )
    ),
    ("training_trace", "gold",
     lambda v: training_trace(LossParams("diff"), v, P3, 0.1, 3), "sequence", True),
    ("training_trace", "init_pred",
     lambda v: training_trace(LossParams("diff"), G3, v, 0.1, 3), "sequence", True),
    *(
        ("LossParams", f"per_sample_{w}",
         lambda v, w=w: loss(LossParams(GENERAL, **{f"per_sample_{w}": v}), G3, P3),
         "counts" if w == "beta" else "array", True)
        for w in ("alpha", "beta", "eps")
    ),
]

_LONGDOUBLE_WIDER = np.finfo(np.longdouble).max > sys.float_info.max
#: (id, value, rules that accept it); a value refused names the parameter in its message
ARRAY_VALUES = [
    ("int-past-int64", [2**70, 1, 2], {"sequence", "array"}),
    ("bool", np.array([True, False, True]), {"sequence", "array"}),
    ("float16", np.array([1, 2, 4], dtype=np.float16), {"sequence", "array"}),
    ("float32", np.array([1.5, 2, 4], dtype=np.float32), {"sequence", "array"}),
    ("int-list", [1, 0, 2], {"sequence", "array", "counts"}),
    ("uint8", np.array([1, 0, 2], dtype=np.uint8), {"sequence", "array", "counts"}),
    ("uint64-past-int64", np.array([2**63, 0, 1], dtype=np.uint64), {"sequence", "array"}),
    ("empty", [], {"array"}),
    ("2-D", [[1.0, 2.0, 4.0], [1.0, 2.0, 4.0]], {"array"}),
    ("digit-strings", ["1", "2", "4.5"], set()),
    ("strings", ["a", "b", "c"], set()),
    ("number-and-string", [1, "x", 3], set()),
    ("complex-list", [1 + 5j, 2, 3], set()),
    ("complex-array", np.array([1 + 5j, 2, 3]), set()),
    ("none", [None, 1, 2], set()),
    ("masked", np.ma.array([1.0, 2.0, 3.0], mask=[0, 1, 0]), set()),
    ("ragged", [[1.0, 2.0], [3.0]], set()),
    ("nan", [1.0, math.nan, 2.0], set()),
    ("inf", [1.0, -math.inf, 2.0], set()),
    ("int-past-float64", [1, 2**1100, 3], set()),
    *([("longdouble-past-float64", np.array(["1e400", "1", "2"]).astype(np.longdouble), set())]
      if _LONGDOUBLE_WIDER else []),
]
PAST_FLOAT64 = {"int-past-float64", "longdouble-past-float64"}


def _bits(result):
    """A comparable form of a result: floats and arrays by their bytes, containers by part."""
    if dataclasses.is_dataclass(result):
        return _bits(dataclasses.astuple(result))
    if isinstance(result, (tuple, list)):
        return tuple(_bits(v) for v in result)
    if isinstance(result, (float, np.ndarray, np.floating)):
        arr = np.asarray(result, dtype=np.float64)
        return arr.shape, arr.tobytes()
    return result


def _outcome(call, value):
    """The bits of call(value), or the type of the CccmapError it raises."""
    try:
        return _bits(call(value))
    except CccmapError as exc:
        return type(exc)


@pytest.mark.parametrize("function, param, call, rule, bound", ARRAY_PARAMETERS,
                         ids=[f"{f}-{p}" for f, p, *_ in ARRAY_PARAMETERS])
@pytest.mark.parametrize("kind, value, accepted", ARRAY_VALUES, ids=[v[0] for v in ARRAY_VALUES])
def test_every_array_parameter_ends_in_a_result_or_a_typed_error(
    function, param, call, rule, bound, kind, value, accepted
):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if rule in accepted:
            # the value's float64 conversion, for the counts the int64 one
            converted = np.array(value, dtype=np.int64 if rule == "counts" else np.float64)
            assert _outcome(call, value) == _outcome(call, converted)
            return
        why = "has a value beyond float64$" if kind in PAST_FLOAT64 else ""
        with pytest.raises(InvalidInput, match=f"^{param} {why}"):
            call(value)


@pytest.mark.parametrize("function, param, call, rule, bound",
                         [case for case in ARRAY_PARAMETERS if case[-1]],
                         ids=[f"{f}-{p}" for f, p, *_, bound in ARRAY_PARAMETERS if bound])
def test_a_length_mismatch_names_the_array(function, param, call, rule, bound):
    with warnings.catch_warnings(), pytest.raises(InvalidInput, match=rf"\b{param}\b"):
        warnings.simplefilter("error")
        call([1, 2, 4, 8])


@pytest.mark.parametrize("name, param", PARAMETERS, ids=[f"{n}-{p}" for n, p in PARAMETERS])
def test_numpys_bool_scalar_is_taken_as_pythons_bool(name, param):
    fn, args, valid, _ = CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for flag in (False, True):
            outcomes = [_outcome(lambda v: fn(*args, **{**valid, param: v}), value)
                        for value in (flag, np.bool_(flag))]
            assert outcomes[0] == outcomes[1]
