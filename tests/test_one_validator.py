"""One check per input rule: every scalar and count parameter of the public functions ends
in a result or a typed CccmapError, and no module writes its own finite-range check."""

import math
import numbers
import re
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
    ccc_from_mse_cov,
    center_gold,
    conjugate_theta,
    envelope_given_lk,
    envelope_kernel,
    finite_difference,
    lk_region_table,
    lk_sphere_oracle,
    lower_envelope,
    lp_norm,
    mke,
    mse_region_table,
    mse_sphere_oracle,
    norm_sandwich,
    quadratic_in_gold,
    solve,
    theta_band,
    training_trace,
    upper_envelope,
)
from cccmap.lk_bounds import theta_grid

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
        envelope_given_lk, (), {"k": 4.0, "n": 5, "lk": 1.0, "sigma_g": 1.0, "theta": 1.0}, ("n",)
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
