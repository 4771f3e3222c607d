"""Byte-for-byte CLI output parity against committed fixtures in tests/golden/.

Each case runs one CLI invocation in a fresh directory and compares its stdout
and every CSV it writes with ``--out`` to the fixture files
``<case>.stdout`` and ``<case>.<csv name>``. Inputs are inline or read from
``<case>.in``. The cases are the README examples, the JSON reports of
``analyze`` (csv, tsv, plain, and csv with a header, CRLF endings and blank
lines) and of both permutation-audit verbs, whose key orders differ, and
the even-k solver at k = 2 and 6 and the L_k-sphere audit, which gate the
solver's and the sphere oracles' bits.

Regenerate fixtures, after a deliberate output change only, with
``PYTHONPATH=src python tests/test_cli_golden.py [case ...]``; it rewrites the
named cases, or every case when none is named.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("golden")
SRC = Path(__file__).resolve().parents[1] / "src"

PERMUTE_INPUT = "1,0.5\n2,-1\n4,2\n0,0.1\n"

# name -> (argv, stdin text or None to read <name>.in, CSV files written)
CASES = {
    "readme_analyze": (["analyze", "--json"], "1,2\n2,3\n3,4\n", ()),
    "readme_bounds_mse": (
        ["bounds-mse", "--format", "plain", "--mse", "0.667", "--out", "vectors.csv"],
        "1\n2\n3\n",
        ("vectors.csv",),
    ),
    "readme_bounds_lk": (
        ["bounds-lk", "--format", "plain", "--k", "1", "--lk", "8"],
        "".join(f"{i}\n" for i in range(64)),
        (),
    ),
    "readme_permute": (
        ["permute", "--audit", "--out", "predictions.csv"],
        PERMUTE_INPUT,
        ("predictions.csv",),
    ),
    "readme_solve_even_p": (
        ["solve-even-p", "--format", "plain", "--k", "4", "--lk", "1.5",
         "--objective", "max", "--seed", "7"],
        "1\n2\n3\n5\n",
        (),
    ),
    "readme_loss": (
        ["loss", "--variant", "abs_mse_over_cov", "--trace-iters", "100",
         "--trace-step", "0.01", "--out", "trace.csv"],
        "1,1.5\n2,2.5\n3,3.1\n",
        ("trace.csv",),
    ),
    "readme_region": (
        ["region", "--kind", "lk", "--k", "1", "--n", "64", "--x-max", "3",
         "--steps", "121", "--out", "region.csv"],
        "",
        ("region.csv",),
    ),
    "readme_audit_mse_sphere": (
        ["audit", "mse-sphere", "--format", "plain", "--mse", "0.5",
         "--trials", "100000", "--seed", "1"],
        "1\n2\n3\n4\n",
        (),
    ),
    "analyze_json_unit": (["analyze", "--json"], None, ()),
    "analyze_json_tiny": (["analyze", "--json"], None, ()),
    "analyze_json_huge": (["analyze", "--json"], None, ()),
    "analyze_text_unit": (["analyze", "--input", "-"], None, ()),
    "analyze_json_tsv": (["analyze", "--json", "--format", "tsv"], None, ()),
    "analyze_json_plain": (["analyze", "--json", "--format", "plain"], None, ()),
    "analyze_json_header_crlf": (
        ["analyze", "--json", "--header", "--gold-col", "gold", "--pred-col", "pred"],
        None,
        (),
    ),
    "bounds_lk_json": (
        ["bounds-lk", "--json", "--k", "4", "--lk", "3", "--theta-steps", "6"],
        None,
        (),
    ),
    "permute_audit_json": (["permute", "--audit", "--json"], PERMUTE_INPUT, ()),
    "audit_permutation_json": (["audit", "permutation", "--json"], PERMUTE_INPUT, ()),
    "solve_even_p_k2_max": (
        ["solve-even-p", "--format", "plain", "--k", "2", "--lk", "1.5",
         "--objective", "max", "--seed", "3"],
        "1\n2\n3\n5\n8\n",
        (),
    ),
    "solve_even_p_k6_min_json": (
        ["solve-even-p", "--json", "--format", "plain", "--k", "6", "--lk", "2",
         "--objective", "min", "--seed", "5"],
        "0.5\n-1.25\n2\n3.5\n-0.75\n1\n",
        (),
    ),
    "audit_lk_sphere": (
        ["audit", "lk-sphere", "--format", "plain", "--k", "4", "--lk", "1.5",
         "--trials", "100000", "--seed", "2"],
        "1\n2\n3\n4\n6\n",
        (),
    ),
}

# Generated inputs for the cases that read <name>.in: (seed, rows, magnitude[, layout]).
GENERATED = {
    "analyze_json_unit": (11, 300, 1.0),
    "analyze_json_tiny": (12, 300, 1e-20),
    "analyze_json_huge": (13, 300, 1e20),
    "analyze_text_unit": (11, 300, 1.0),
    "bounds_lk_json": (14, 50, 1.0),
    "analyze_json_tsv": (15, 300, 1.0, "tsv"),
    "analyze_json_plain": (16, 300, 1.0, "plain"),
    "analyze_json_header_crlf": (17, 300, 1.0, "header_crlf"),
}


def _generated_input(seed: int, rows: int, scale: float, layout: str = "csv") -> bytes:
    """Two columns of 17-digit cells. ``header_crlf`` is comma-separated with a
    ``gold,pred`` header, CRLF endings and a blank and a whitespace-only line
    after every 50th row."""
    rng = np.random.default_rng(seed)
    gold = scale * (3.0 + rng.standard_normal(rows))
    pred = 0.8 * gold + scale * 0.5 * rng.standard_normal(rows)
    delim = {"tsv": "\t", "plain": " "}.get(layout, ",")
    lines = [f"{format(g, '.17g')}{delim}{format(p, '.17g')}" for g, p in zip(gold, pred)]
    if layout != "header_crlf":
        return "".join(line + "\n" for line in lines).encode("utf-8")
    body = ["gold,pred"]
    for i, line in enumerate(lines, 1):
        body += [line, "", " \t"] if i % 50 == 0 else [line]
    return "".join(line + "\r\n" for line in body).encode("utf-8")


def _stdin(name: str) -> bytes:
    text = CASES[name][1]
    return (GOLDEN / f"{name}.in").read_bytes() if text is None else text.encode("utf-8")


def _run(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one case in workdir; return stdout and each written CSV, keyed by fixture suffix."""
    argv, _, outputs = CASES[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cccmap.cli", *argv],
        input=_stdin(name),
        capture_output=True,
        cwd=workdir,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert proc.stderr == b""  # a leaked RuntimeWarning fails the example
    result = {"stdout": proc.stdout}
    for out in outputs:
        result[out] = (workdir / out).read_bytes()
    return result


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    for suffix, data in _run(name, tmp_path).items():
        assert data == (GOLDEN / f"{name}.{suffix}").read_bytes(), f"{name}.{suffix} differs"


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for case in names:
        if case in GENERATED:
            (GOLDEN / f"{case}.in").write_bytes(_generated_input(*GENERATED[case]))
        with tempfile.TemporaryDirectory() as tmp:
            for suffix, data in _run(case, Path(tmp)).items():
                (GOLDEN / f"{case}.{suffix}").write_bytes(data)
