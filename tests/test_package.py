"""Contract of the package namespace: its public names, and that it caches none.

``import cccmap`` binds the errors and the tolerance table and resolves every
other public name in its submodule on each access. The names are pinned to the
list that the package exported when it imported every submodule eagerly.
"""

import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cccmap

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PUBLIC = [
    "CccmapError", "CenteredGold", "DegenerateVariance", "ErrorSet", "InvalidInput",
    "LkEnvelope", "LossParams", "MseBoundsResult", "NoConjugate", "NotConverged",
    "OracleReport", "OrderingExtremes", "PairStats", "PermutationResult", "RmseBand",
    "Singularity", "SolverState", "StationarityProblem", "TOL", "Tolerances", "TooLarge",
    "TrainingTrace", "bounds_given_mse", "ccc", "ccc_from_mse_cov", "center_gold",
    "conjugate_theta", "covariance", "envelope_given_lk", "envelope_kernel", "error_set",
    "errors", "even_p", "finite_difference", "lk_bounds", "lk_region_table",
    "lk_sphere_oracle", "loss", "loss_gradient", "losses", "lower_envelope", "lp_norm",
    "mae", "mean", "mke", "mse", "mse_bounds", "mse_region_table", "mse_sphere_oracle",
    "norm_sandwich", "optimal_permutations", "oracles", "ordering", "pair_stats", "pearson",
    "permutation_oracle", "population_variance", "quadratic_in_gold", "scaled_residual",
    "solve", "stats", "theta_band", "tolerances", "training_trace", "upper_envelope",
    "variance_identity_residual",
]

PROBE = r"""
import json, sys
import cccmap
after_import = sorted(m for m in sys.modules if m == "numpy" or m.split(".")[0] == "cccmap")
public = [n for n in dir(cccmap) if not n.startswith("_")]
star = {}
exec("from cccmap import *", star)
print(json.dumps([after_import, public, sorted(n for n in star if n != "__builtins__")]))
"""


def test_fresh_import_loads_no_numpy_and_lists_the_public_names():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    after_import, public, star = json.loads(proc.stdout)
    assert after_import == ["cccmap", "cccmap.errors", "cccmap.tolerances"]
    assert public == PUBLIC
    assert star == PUBLIC


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        cccmap.nope  # noqa: B018


# bound at import; every other public name but the submodules resolves lazily
EAGER = {
    "CccmapError", "DegenerateVariance", "InvalidInput", "NoConjugate", "NotConverged",
    "Singularity", "TooLarge", "TOL", "Tolerances",
}
SUBMODULES = {
    "errors", "even_p", "lk_bounds", "losses", "mse_bounds", "oracles", "ordering", "stats",
    "tolerances",
}


@pytest.mark.parametrize("name", sorted(set(PUBLIC) - EAGER - SUBMODULES))
def test_a_name_rebound_in_its_submodule_is_seen_through_the_package(name, monkeypatch):
    """The tracer rebinds a function in its defining module and toggles it back and
    forth; the package must return whichever binding is live, so it caches nothing."""
    original = getattr(cccmap, name)
    home = sys.modules[original.__module__]
    assert getattr(home, name) is original

    def f():
        pass

    monkeypatch.setattr(home, name, f)
    assert getattr(cccmap, name) is f
    monkeypatch.undo()
    assert getattr(cccmap, name) is original


def test_the_tolerance_table_keeps_its_fields_and_refuses_assignment():
    assert cccmap.TOL._asdict() == {
        "algebraic_rtol": 1e-12, "iterative_rtol": 1e-9, "attainment_rtol": 1e-10,
        "constraint_rtol": 1e-8, "residual_tol": 1e-8, "oracle_slack": 1e-9,
    }
    assert cccmap.Tolerances(residual_tol=1e-6) == cccmap.TOL._replace(residual_tol=1e-6)
    with pytest.raises(AttributeError):
        cccmap.TOL.residual_tol = 1.0


# Types a caller builds and passes in; their fields are read by the module that takes them.
PARAMETER_TYPES = {"LossParams", "StationarityProblem"}
# Result fields and properties that neither the CLI, another module nor the benchmark reads.
UNREAD_BY_DESIGN = {
    "CenteredGold.mu": "the kernel-unit mean that the mu_g property unscales",
    "CenteredGold.centered": "the tests' reference computations; no module may read it "
    "(test_no_module_reads_the_unscaled_centred_gold)",
    "OracleReport.best_index": "witness provenance that the README documents",
    "OracleReport.worst_index": "witness provenance that the README documents",
    "PermutationResult.errors": "the extreme ordering itself, whose prediction is gold +- it",
}


def _attributes_read(paths) -> set[str]:
    """Every attribute name read as ``value.name`` or ``getattr(value, "name")`` in the files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                names.add(node.args[1].value)
    return names


def test_every_result_field_is_read_outside_its_module():
    """A field or property of a public result type is read by the CLI, by another module or
    by the benchmark, or it is listed above with its reason. The check goes by name, as the
    moment-kernel guards go by pattern: a field counts as read where any attribute of its
    name is, so it finds a field whose name nothing reads at all."""
    modules = sorted((SRC / "cccmap").glob("*.py"))
    benchmark = _attributes_read(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))
    unread = set()
    for module, names in cccmap._EXPORTS.items():
        read = benchmark | _attributes_read(p for p in modules if p.stem != module)
        for name in sorted(set(names) - PARAMETER_TYPES):
            cls = getattr(cccmap, name)
            if not dataclasses.is_dataclass(cls):
                continue
            members = [f.name for f in dataclasses.fields(cls)] + [
                member for member, _ in inspect.getmembers(cls, lambda m: isinstance(m, property))
                if not member.startswith("_")
            ]
            unread |= {f"{name}.{member}" for member in members if member not in read}
    assert unread == set(UNREAD_BY_DESIGN)
