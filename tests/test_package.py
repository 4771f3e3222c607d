"""Contract of the package namespace: its public names, that it caches none, and that each
is used outside its module.

``import cccmap`` binds the errors and the tolerance table and resolves every
other public name in its submodule on each access. The names are pinned to the
list that the package exported when it imported every submodule eagerly.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cccmap
from cccmap import (
    LossParams, StationarityProblem, bounds_given_mse, center_gold, error_set, optimal_permutations,
    permutation_oracle, solve, training_trace,
)

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
    "permutation_oracle", "population_variance", "scaled_residual", "solve", "stats",
    "theta_band", "tolerances", "training_trace", "upper_envelope", "variance_identity_residual",
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
    "CenteredGold.centered": "the tests' reference computations; no module may read it "
    "(test_no_module_reads_the_unscaled_centred_gold)",
    "OracleReport.best_index": "witness provenance that the README documents",
    "OracleReport.worst_index": "witness provenance that the README documents",
    "PermutationResult.errors": "the extreme ordering itself, whose prediction is gold +- it",
}


def _is_args(node) -> bool:
    """Whether ``node`` is ``args``, the name every parser result is bound to: an option is
    no read of a result field of the same name."""
    return isinstance(node, ast.Name) and node.id == "args"


def _attributes_read(paths) -> set[str]:
    """Every attribute name read as ``value.name`` or ``getattr(value, "name")`` in the files,
    save those read off the parsed command line."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and not _is_args(node.value):
                names.add(node.attr)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                  and not _is_args(node.args[0])):
                names.add(node.args[1].value)
    return names


def test_the_field_guard_skips_reads_off_the_command_line(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text('args.seed\ngetattr(args, "trials", 0)\nreport.best_index\ngetattr(r, "worst_index")\n')
    assert _attributes_read([probe]) == {"best_index", "worst_index"}


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


# Public functions that neither the CLI, another module, the benchmark nor a numbered criterion
# calls, each with its reason.
UNCALLED_BY_DESIGN = {
    "stats.mke": "the paper's L_k-power error, the quantity its even-k results are stated in",
    "mse_bounds.envelope_kernel": "the kernel 2t / (1 + t^2) that both envelopes evaluate",
}


def _names_used(paths) -> set[str]:
    """Every name the files load, import or read as an attribute, and ``name`` of every
    string ``"module.name"`` of a cccmap submodule, as the benchmark's tracer names the
    entry points it wraps."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                module, _, name = node.value.partition(".")
                if module in cccmap._EXPORTS and name.isidentifier():
                    names.add(name)
    return names


def test_the_call_guard_counts_names_imports_and_span_keys(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text('from cccmap.stats import mke\nstats.ccc(g)\n'
                     'SPANS = {"even_p.solve": 1, "plots.draw": 2, "stats.not a name": 3}\n')
    assert _names_used([probe]) == {"mke", "stats", "ccc", "g", "SPANS", "solve"}


def test_every_public_function_is_called_outside_its_module():
    """A public function is used by the CLI, by another module, by the benchmark or by a
    numbered criterion (tests/test_acceptance.py), or it is listed above with its reason.
    Like the field guard, it goes by name."""
    modules = sorted((SRC / "cccmap").glob("*.py"))
    outside = [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    outside.append(ROOT / "tests" / "test_acceptance.py")
    benchmark_and_criteria = _names_used(outside)
    uncalled = set()
    for module, names in cccmap._EXPORTS.items():
        used = benchmark_and_criteria | _names_used(p for p in modules if p.stem != module)
        uncalled |= {f"{module}.{name}" for name in names
                     if inspect.isfunction(getattr(cccmap, name)) and name not in used}
    assert uncalled == set(UNCALLED_BY_DESIGN)


# The benchmark's tracer (perfbench/spans.py) wraps each public function defined in one of its
# modules, and the three CLI stage helpers it names; it finds them by name, so a rename or a merge
# must reach the benchmark first. The set is frozen here, so that one fails this test until it does.
TRACED_MODULES = ("cli", "stats", "mse_bounds", "lk_bounds", "ordering", "losses", "even_p", "oracles")
TRACED_STAGES = {"cli._load_columns", "cli._emit_report", "cli._write_csv"}
TRACED = TRACED_STAGES | {
    "cli.build_parser", "cli.cmd_analyze", "cli.cmd_audit", "cli.cmd_bounds_lk", "cli.cmd_bounds_mse",
    "cli.cmd_loss", "cli.cmd_permute", "cli.cmd_region", "cli.cmd_solve_even_p", "cli.main",
    "even_p.scaled_residual", "even_p.solve", "lk_bounds.conjugate_theta",
    "lk_bounds.envelope_given_lk", "lk_bounds.lk_region_columns", "lk_bounds.lk_region_table",
    "lk_bounds.lower_family", "lk_bounds.norm_sandwich", "lk_bounds.theta_band",
    "lk_bounds.theta_grid", "losses.loss", "losses.loss_gradient", "losses.training_trace",
    "mse_bounds.bounds_given_mse", "mse_bounds.ccc_from_mse_cov", "mse_bounds.center_gold",
    "mse_bounds.envelope_kernel", "mse_bounds.lower_envelope", "mse_bounds.mse_region_table",
    "mse_bounds.upper_envelope", "oracles.finite_difference", "oracles.lk_sphere_oracle",
    "oracles.mse_sphere_oracle", "oracles.permutation_oracle", "ordering.error_set",
    "ordering.optimal_permutations", "stats.as_sequence", "stats.ccc", "stats.covariance",
    "stats.lp_norm", "stats.mae", "stats.mean", "stats.mke", "stats.mse", "stats.pair_stats",
    "stats.pearson", "stats.population_variance", "stats.variance_identity_residual",
}


def test_the_traced_surface_is_frozen():
    traced = set()
    for short in TRACED_MODULES:
        module = importlib.import_module(f"cccmap.{short}")
        for attr, fn in vars(module).items():
            if not inspect.isfunction(fn):
                continue
            public = not attr.startswith("_") and fn.__module__ == module.__name__
            if public or f"{short}.{attr}" in TRACED_STAGES:
                traced.add(f"{short}.{attr}")
    assert traced == TRACED


_G, _P = [1.0, 2.0, 4.0], [1.5, 1.75, 4.5]
_E = [0.5, -0.25, 0.75]
#: each record that holds an array, built twice with equal values
RECORDS = {
    "ErrorSet": lambda: error_set(_E),
    "CenteredGold": lambda: center_gold(_G),
    "PermutationResult": lambda: optimal_permutations(_G, error_set(_E)).max_add,
    "OrderingExtremes": lambda: optimal_permutations(_G, error_set(_E)),
    "OracleReport": lambda: permutation_oracle(_G, error_set(_E), "pred_minus_gold"),
    "SolverState": lambda: solve(StationarityProblem(center_gold(_G), 4, 1.0, "max"), 0),
    "MseBoundsResult": lambda: bounds_given_mse(center_gold(_G), 1.0),
    "TrainingTrace": lambda: training_trace(LossParams("diff"), _G, _P, 0.1, 3),
    "LossParams": lambda: LossParams("general_ratio", per_sample_alpha=[1.0, 2.0, 3.0]),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_holding_arrays_compare_and_hash_by_identity(name):
    first, second = RECORDS[name](), RECORDS[name]()
    assert type(first).__name__ == name
    assert (first == second) is False and (first == first) is True
    assert isinstance(hash(first), int) and hash(first) == hash(first)
