"""Start-up contract of the CLI: what each path loads, checked in fresh interpreters.

The parser path (building the parser, ``--help``, ``--version`` and every usage
error) loads no numpy and no library module. Each verb loads numpy and only the
library modules it calls. Every case runs ``cccmap.cli`` in its own interpreter
with ``PYTHONPATH=src`` and reports ``numpy`` and every ``cccmap`` module in
``sys.modules`` once the call returns. The parser path also loads no
``dataclasses``, nor the ``inspect``, ``ast``, ``dis`` and ``tokenize`` it imports.

Thread contract: with none of the variables OpenBLAS reads for its thread count
set, a verb leaves ``OPENBLAS_NUM_THREADS=1`` behind and runs on one thread; with
one of them set, or with numpy already loaded, ``main`` changes no variable. Every
probe starts with the three variables removed, so the results do not depend on
the environment the tests run in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cccmap.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = r"""
import contextlib, io, json, os, sys
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
heavy = sorted(m for m in ("dataclasses", "inspect", "ast", "dis", "tokenize") if m in sys.modules)
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
env = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
print(json.dumps([code, loaded, heavy, env, threads]))
"""

PARSER = {"cccmap", "cccmap.cli", "cccmap.errors", "cccmap.tolerances", "cccmap.variants"}

#: The variables OpenBLAS reads for its thread count, removed from every probe's env.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None}


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


def _env(**extra: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return {**env, **extra}


def _probe(argv, cwd: Path, **extra: str) -> tuple:
    """(exit code, modules loaded, heavy stdlib modules loaded, the three thread
    variables, thread count or None) of one call in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        capture_output=True, text=True, cwd=cwd, env=_env(**extra), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded, heavy, env, threads = json.loads(proc.stdout)
    return code, set(loaded), heavy, env, threads


@pytest.mark.parametrize("name", sorted(PARSE_CASES))
def test_parser_path_loads_no_numpy(name, tmp_path):
    argv, code, modules = PARSE_CASES[name]
    assert _probe(argv, tmp_path)[:3] == (code, modules, [])


def _verb_argv(name: str, cwd: Path) -> list[str]:
    argv = VERB_CASES[name][0]
    (cwd / TABLE).write_text(TABLE_ROWS)
    return argv if argv[0] == "region" else [*argv, "--input", TABLE]  # region reads no table


@pytest.mark.parametrize("name", sorted(VERB_CASES))
def test_verb_loads_only_its_modules(name, tmp_path):
    code, loaded, _, env, threads = _probe(_verb_argv(name, tmp_path), tmp_path)
    assert (code, loaded) == (0, VERB_CASES[name][1])
    assert env == ONE_THREAD
    assert threads in (None, 1)


def test_a_thread_variable_the_caller_set_is_left_alone(tmp_path):
    code, _, _, env, _ = _probe(_verb_argv("analyze", tmp_path), tmp_path, OMP_NUM_THREADS="2")
    assert code == 0
    assert env == {"OPENBLAS_NUM_THREADS": None, "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": "2"}


def test_main_after_numpy_loaded_leaves_the_environment_alone(tmp_path, monkeypatch):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    (tmp_path / TABLE).write_text(TABLE_ROWS)
    before = dict(os.environ)
    assert "numpy" in sys.modules
    assert main(["analyze", "--json", "--input", str(tmp_path / TABLE)]) == 0
    assert dict(os.environ) == before


def test_stdout_does_not_depend_on_the_blas_thread_count(tmp_path):
    """Above about 10^4 elements OpenBLAS splits a product across its threads, which
    changes the rounding; on 3x10^4 rows this report's cosine similarity read 1 with
    the default pool and 1.0000000000000002 on one thread."""
    gold = tmp_path / "gold.txt"
    gold.write_text("".join(f"{v:.17g}\n" for v in np.random.default_rng(3).normal(size=30000)))
    argv = [sys.executable, "-m", "cccmap.cli", "solve-even-p", "--format", "plain", "--k", "2",
            "--lk", "150", "--json", "--input", str(gold)]
    outs = [
        subprocess.run(argv, capture_output=True, check=True, env=_env(**extra), timeout=120).stdout
        for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"})
    ]
    assert outs[0] == outs[1]

