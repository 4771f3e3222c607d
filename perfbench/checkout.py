"""Locate the cccmap sources of the checkout the benchmark sits in."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def use_checkout_src() -> None:
    """Put the checkout's ``src`` first on the import path, or exit nonzero without it.

    The benchmark measures the package in this checkout, never an installed copy.
    """
    if not (SRC / "cccmap" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no cccmap sources under {SRC}\n")
        raise SystemExit(2)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for benchmark subprocesses: the checkout's sources and nothing else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env
