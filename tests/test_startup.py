"""Start-up contract of the CLI: what each path loads, checked in fresh interpreters.

The parser path (building the parser, ``--help``, ``--version`` and every usage
error) loads no numpy and no library module. Each verb loads numpy and only the
library modules it calls. Every case runs ``cccmap.cli`` in its own interpreter
with ``PYTHONPATH=src`` and reports ``numpy`` and every ``cccmap`` module in
``sys.modules`` once the call returns.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = r"""
import contextlib, io, json, sys
import cccmap.cli
argv = json.loads(sys.argv[1])
code = None
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    if argv is None:
        cccmap.cli.build_parser()
    else:
        try:
            code = cccmap.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
loaded = sorted(m for m in sys.modules if m == "numpy" or m.split(".")[0] == "cccmap")
print(json.dumps([code, loaded]))
"""

PARSER = {"cccmap", "cccmap.cli", "cccmap.errors", "cccmap.tolerances", "cccmap.variants"}


def _lib(*modules: str) -> set[str]:
    return PARSER | {"numpy", "cccmap.stats", *(f"cccmap.{m}" for m in modules)}


TABLE = "table.csv"  # written into the case's working directory
TABLE_ROWS = "1,0.5\n2,-1\n4,2\n0,0.1\n"

# case -> (argv or None for build_parser() alone, exit code, modules loaded)
PARSE_CASES = {
    "build_parser": (None, None, PARSER),
    "help": (["--help"], 0, PARSER),
    "verb_help": (["solve-even-p", "--help"], 0, PARSER),
    "version": (["--version"], 0, PARSER),
    "unknown_verb": (["nope"], 2, PARSER),
    "bad_variant": (["loss", "--variant", "nope"], 2, PARSER),
    "bad_float": (["bounds-mse", "--mse", "x"], 2, PARSER),
}

VERB_CASES = {
    "analyze": (["analyze", "--json"], _lib("mse_bounds")),
    "bounds-mse": (["bounds-mse", "--mse", "1", "--out", "o.csv"], _lib("mse_bounds")),
    "bounds-lk": (["bounds-lk", "--k", "4", "--lk", "3"], _lib("mse_bounds", "lk_bounds")),
    "permute": (["permute", "--out", "o.csv"], _lib("mse_bounds", "ordering")),
    "permute_audit": (["permute", "--audit"], _lib("mse_bounds", "ordering", "oracles")),
    "solve-even-p": (
        ["solve-even-p", "--k", "4", "--lk", "1.5"], _lib("mse_bounds", "even_p"),
    ),
    "loss": (
        ["loss", "--variant", "abs_mse_over_cov", "--trace-iters", "3", "--trace-step",
         "0.01", "--out", "o.csv"],
        _lib("losses"),
    ),
    "region_mse": (
        ["region", "--kind", "mse", "--steps", "5", "--out", "o.csv"], _lib("mse_bounds"),
    ),
    "region_lk": (
        ["region", "--kind", "lk", "--k", "1", "--n", "4", "--steps", "5", "--out", "o.csv"],
        _lib("mse_bounds", "lk_bounds"),
    ),
    "audit_permutation": (
        ["audit", "permutation"], _lib("mse_bounds", "ordering", "oracles"),
    ),
    "audit_mse_sphere": (
        ["audit", "mse-sphere", "--mse", "0.5", "--trials", "100"],
        _lib("mse_bounds", "ordering", "oracles"),
    ),
    "audit_lk_sphere": (
        ["audit", "lk-sphere", "--k", "4", "--lk", "1.5", "--trials", "100"],
        _lib("mse_bounds", "lk_bounds", "ordering", "oracles"),
    ),
}


def _probe(argv, cwd: Path) -> tuple:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    return code, set(loaded)


@pytest.mark.parametrize("name", sorted(PARSE_CASES))
def test_parser_path_loads_no_numpy(name, tmp_path):
    argv, code, modules = PARSE_CASES[name]
    assert _probe(argv, tmp_path) == (code, modules)


@pytest.mark.parametrize("name", sorted(VERB_CASES))
def test_verb_loads_only_its_modules(name, tmp_path):
    argv, modules = VERB_CASES[name]
    (tmp_path / TABLE).write_text(TABLE_ROWS)
    if argv[0] != "region":  # the one verb that reads no table
        argv = [*argv, "--input", TABLE]
    assert _probe(argv, tmp_path) == (0, modules)

