"""The ``cli`` workload: each op is a fresh ``cccmap`` process on generated files.

The child runs ``launch.py``, which calls ``cccmap.cli.main`` as the console
script does. Its CPU time and peak resident set come from ``os.wait4``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
from checkout import child_env
from pacing import cycles_within

LAUNCHER = Path(__file__).resolve().parent / "launch.py"

READ_ROWS = 200_000
WRITE_ROWS = 50_000
READ_VARIANTS = (("csv", False), ("tsv", False), ("plain", False), ("csv", True))
WRITE_MSE = 4.0


@dataclass(frozen=True)
class CliOp:
    kind: str
    args: list[str]
    out: Path | None
    check: Callable[[bytes, bytes], None]


def read_cycle(seed: int, workdir: Path) -> list[CliOp]:
    """``analyze --json`` on one 2x10^5-row table written in four layouts."""
    cols = inputs.gold_pred_errors(inputs.rng_for(seed, inputs.STREAM_PAIR), READ_ROWS)
    pair = {"gold": cols["gold"], "pred": cols["pred"]}
    ops = []
    for fmt, header in READ_VARIANTS:
        kind = f"analyze-{fmt}" + ("-header" if header else "")
        path = workdir / f"{kind}.txt"
        inputs.write_table(path, pair, fmt, header)
        args = ["analyze", "--json", "--input", str(path), "--format", fmt]
        if header:
            args += ["--header", "--gold-col", "gold", "--pred-col", "pred"]
        ops.append(CliOp(kind, args, None,
                         lambda out, _csv: checks.check_analyze(out, pair["gold"], pair["pred"])))
    return ops


def write_cycle(seed: int, workdir: Path) -> list[CliOp]:
    """``permute``, ``bounds-mse`` and ``loss`` on one 5x10^4-row table; the first two write CSV."""
    cols = inputs.gold_pred_errors(inputs.rng_for(seed, inputs.STREAM_PAIR), WRITE_ROWS)
    path = workdir / "table.csv"
    inputs.write_table(path, cols)
    gold, pred, errors = cols["gold"], cols["pred"], cols["errors"]
    common = ["--json", "--input", str(path)]
    return [
        CliOp("permute", ["permute", *common, "--error-col", "2", "--out", str(workdir / "permute.csv")],
              workdir / "permute.csv", lambda out, csv: checks.check_permute(out, csv, gold, errors)),
        CliOp("bounds-mse", ["bounds-mse", *common, "--mse", format(WRITE_MSE), "--out",
                             str(workdir / "bounds.csv")],
              workdir / "bounds.csv", lambda out, csv: checks.check_bounds_mse(out, csv, gold, WRITE_MSE)),
        CliOp("loss", ["loss", *common, "--variant", "abs_mse_over_cov"], None,
              lambda out, _csv: checks.check_loss(out, gold, pred)),
    ]


def cycle_ops(seed: int, workdir: Path) -> list[CliOp]:
    """One cycle: the four ``analyze`` reads interleaved with the three writing verbs."""
    reads, writes = read_cycle(seed, workdir), write_cycle(seed, workdir)
    return [op for pair in zip(reads, writes + [None]) for op in pair if op is not None]


def run_child(argv: list[str], stdout_path: Path, stderr_path: Path):
    """Run ``argv`` to completion; returns (exit code, wall s, CPU s, peak RSS KiB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def run(seed: int, seconds: float, workdir: Path, spans_dir: Path | None = None):
    """Closed loop over whole cycles of ``cycle_ops`` for about ``seconds``.

    Returns (untraced records, traced records, traced stdout bytes); a record is
    [kind, wall s, CPU s, peak RSS KiB, error or None]. With ``spans_dir`` each op
    runs twice, untraced and traced, the order alternating from op to op, so that
    drift in machine speed cancels out of the tracing overhead. Every run of one
    op must print byte-identical stdout and CSV.
    """
    cycle = cycle_ops(seed, workdir)
    first: dict[str, tuple[bytes, bytes]] = {}
    plain, traced, traced_stdout = [], [], 0
    ops = (op for _ in cycles_within(seconds) for op in cycle)
    for op_id, op in enumerate(ops):
        if spans_dir is None:
            plain.append(_run_op(op, workdir, first, [])[0])
            continue
        trace_opts = [str(spans_dir / f"op{op_id}.npz"), str(op_id)]
        for on in ((False, True) if op_id % 2 == 0 else (True, False)):
            record, out = _run_op(op, workdir, first, trace_opts if on else [])
            if on:
                traced.append(record)
                traced_stdout += len(out)
            else:
                plain.append(record)
    return plain, traced, traced_stdout


def _run_op(op: CliOp, workdir: Path, first: dict, trace_opts: list[str]) -> tuple[list, bytes]:
    if op.out is not None and op.out.exists():
        op.out.unlink()
    argv = [sys.executable, str(LAUNCHER), *trace_opts, "--", *op.args]
    code, wall, cpu, rss = run_child(argv, workdir / "stdout", workdir / "stderr")
    out = (workdir / "stdout").read_bytes()
    error = None
    if code != 0:
        tail = (workdir / "stderr").read_bytes()[-300:].decode("utf-8", "replace")
        error = f"exit {code}: {tail.strip()}"
    else:
        csv = op.out.read_bytes() if op.out is not None else b""
        try:
            op.check(out, csv)
            if first.setdefault(op.kind, (out, csv)) != (out, csv):
                raise checks.CheckFailed("output differs from an identical earlier op")
        except Exception as exc:
            error = f"check failed: {type(exc).__name__}: {exc}"
    return [op.kind, wall, cpu, rss, error], out


def load_spans(spans_dir: Path, ops: int) -> dict[str, np.ndarray]:
    import spans

    paths = [spans_dir / f"op{i}.npz" for i in range(ops)]
    return spans.concat([spans.load(p) for p in paths if p.exists()])
