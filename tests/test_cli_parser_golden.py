"""Byte-for-byte parity of the argument parser's own output against tests/golden/.

Each case runs ``cccmap`` with one argv that argparse answers by itself: the
top-level and per-verb ``--help``, ``--version``, and two usage errors (an
unknown verb and a ``--variant`` outside the loss family). The stream that
argparse writes to is compared with ``parser_<case>.<stream>``, the other
stream must be empty, and the exit code must be the one pinned here. The
terminal width is pinned through ``COLUMNS``, which argparse wraps help to.

Regenerate fixtures, after a deliberate change to the parser only, with
``PYTHONPATH=src python tests/test_cli_parser_golden.py [case ...]``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden")
SRC = Path(__file__).resolve().parents[1] / "src"

VERBS = (
    "analyze", "bounds-mse", "bounds-lk", "permute", "solve-even-p", "loss", "region", "audit",
)

# case -> (argv, exit code, stream argparse writes to)
CASES = {
    "help": (["--help"], 0, "stdout"),
    "version": (["--version"], 0, "stdout"),
    **{f"{verb}_help": ([verb, "--help"], 0, "stdout") for verb in VERBS},
    "unknown_verb": (["nope"], 2, "stderr"),
    "loss_bad_variant": (["loss", "--variant", "nope"], 2, "stderr"),
}


def _run(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cccmap.cli", *CASES[name][0]],
        input=b"", capture_output=True, env=env, timeout=60,
    )


def _fixture(name: str) -> Path:
    return GOLDEN / f"parser_{name}.{CASES[name][2]}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_parser_output_matches_golden(name):
    _, code, stream = CASES[name]
    proc = _run(name)
    assert proc.returncode == code, proc.stderr.decode("utf-8", "replace")
    other = proc.stderr if stream == "stdout" else proc.stdout
    assert other == b""
    assert getattr(proc, stream) == _fixture(name).read_bytes(), f"{_fixture(name).name} differs"


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    for case in names:
        _fixture(case).write_bytes(getattr(_run(case), CASES[case][2]))
