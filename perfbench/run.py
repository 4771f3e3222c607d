"""cccmap benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. Workloads (the reasons are in BENCHMARK.json):

  cli   subprocesses: ``analyze --json`` on a 2x10^5-row table in csv, tsv,
        plain and csv with a header (the read ops), interleaved with
        ``permute --out``, ``bounds-mse --mse 4 --out`` and
        ``loss --variant abs_mse_over_cov`` on 5x10^4 rows (the write ops).
  lib   in process: evaluation bundles at 10^3 : 10^5 : 10^6 in a 5:10:1 cycle
        (the kernel ops), then solver, oracle and descent-trace calls on tiny
        inputs (the search ops).

Every op is a closed loop with one client. A run is a whole number of workload
cycles lasting about S seconds (``pacing.py``), so the op mix is the same in
every run. Every output is checked; a failed check, a nonzero exit or an
exception counts the op as failed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` every op runs once untraced and once traced, and the last line
carries the per-layer metrics of the traced runs and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
from pathlib import Path

from checkout import ROOT, WORK, use_checkout_src

WORKLOADS = ("cli", "lib")

# The parts of each workload, for the traced layer breakdown: op kind -> part.
PARTS = {
    "cli": lambda kind: "read" if kind.startswith("analyze") else "write",
    "lib": lambda kind: "kernels" if kind.startswith("bundle") else "search",
}

SETUP_REPS = 8  # half before the ops and half after, so drift in machine speed averages out
SETUP_CODE = "import cccmap.cli; cccmap.cli.build_parser()"
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def setup_times(workdir: Path, reps: int) -> list[float]:
    """Wall times of ``reps`` fresh interpreters importing the CLI and building its parser."""
    from cliops import run_child

    argv = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(reps):
        code, wall, _, _ = run_child(argv, workdir / "stdout", workdir / "stderr")
        if code != 0:
            raise SystemExit(f"perfbench: set-up probe exited {code}: "
                             + (workdir / "stderr").read_text(errors="replace")[-300:])
        times.append(wall)
    return times


def run_pass(workload: str, seed: int, seconds: float, workdir: Path, spans_dir: Path | None):
    """One closed-loop pass. Returns (untraced records, traced records, spans or None,
    traced stdout bytes); a record is [kind, wall s, CPU s, peak RSS KiB, error or None].
    With ``spans_dir`` every op also runs traced."""
    import cliops

    if workload == "cli":
        plain, traced, stdout_bytes = cliops.run(seed, seconds, workdir, spans_dir)
        return plain, traced, cliops.load_spans(spans_dir, len(traced)) if spans_dir else None, stdout_bytes
    import spans

    worker = Path(__file__).resolve().parent / "libops.py"
    spans_path = spans_dir / "lib.npz" if spans_dir else None
    argv = [sys.executable, str(worker), str(seed), str(seconds)]
    argv += [str(spans_path)] if spans_path else []
    code, _, _, rss = cliops.run_child(argv, workdir / "stdout", workdir / "stderr")
    if code != 0:
        raise SystemExit(f"perfbench: {workload} worker exited {code}: "
                         + (workdir / "stderr").read_text(errors="replace")[-500:])
    result = json.loads((workdir / "stdout").read_text().splitlines()[-1])
    plain, traced = ([[kind, wall, cpu, rss, err] for kind, wall, cpu, err in result[key]]
                     for key in ("untraced", "traced"))
    return plain, traced, spans.load(spans_path) if spans_path else None, 0


def tail_index(n: int) -> int:
    """Index in the sorted samples of the highest percentile with TAIL_BEYOND samples above it."""
    return max(0, n - 1 - TAIL_BEYOND)


def end_to_end(records: list, setup_s: float) -> tuple[dict, list[str]]:
    walls = sorted(r[1] for r in records)
    n = len(walls)
    i = tail_index(n)
    values = {
        "setup_s": setup_s,
        "ops_per_s": n / math.fsum(walls),
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "latency_tail_ms": walls[i] * 1e3,
        "cpu_ms_per_op": math.fsum(r[2] for r in records) / n * 1e3,
        "peak_rss_mb": max(r[3] for r in records) / 1024.0,
    }
    failed = sum(r[4] is not None for r in records)
    notes = [
        f"samples: {n} ops; latency_tail_ms is p{100.0 * (i + 1) / n:.1f}"
        f" ({n - 1 - i} samples above it)",
        f"error_rate: {failed / n:.6g} ratio ({failed} failed of {n} attempted)",
        f"setup_s: median of {SETUP_REPS} fresh interpreters, half before and half after the ops",
    ]
    return values, notes


def per_layer(workload: str, traced: list, spans_data, untraced: list,
              stdout_bytes: int) -> tuple[dict, list[str]]:
    import spans

    ops = len(traced)
    values = spans.layer_metrics(spans_data, ops)
    csv_bytes = spans_data["amount"][spans_data["names"][spans_data["name"]] == "cli._write_csv"].sum()
    values["cli.render_bytes"] = (stdout_bytes + float(csv_bytes)) / ops
    overhead = (math.fsum(r[1] for r in traced) - math.fsum(r[1] for r in untraced)) / ops
    values["trace.overhead_ms_per_op"] = overhead * 1e3
    notes = [f"traced ops: {ops}, each also run untraced for the overhead"]
    parts = {}
    for op_id, record in enumerate(traced):
        parts.setdefault(PARTS[workload](record[0]), []).append(op_id)
    for part, op_ids in [("all", None), *parts.items()]:
        own = spans.layer_self_ms(spans_data, ops, op_ids)
        notes.append(f"self ms/op by layer, {part} ops: " + ", ".join(f"{k}={v:.4g}" for k, v in own.items()))
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_src()

    run_name = f"{args.workload}-seed{args.seed}"
    inputs_dir = WORK / "io" / run_name
    shutil.rmtree(inputs_dir, ignore_errors=True)
    inputs_dir.mkdir(parents=True)
    try:
        if args.trace:
            spans_dir = WORK / "spans" / run_name  # kept after the run for inspection
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir(parents=True)
            untraced, traced, spans_data, stdout_bytes = run_pass(
                args.workload, args.seed, args.seconds, inputs_dir, spans_dir)
            values, notes = per_layer(args.workload, traced, spans_data, untraced, stdout_bytes)
            records = untraced + traced
        else:
            setup_times(inputs_dir, 1)  # also compiles bytecode: discarded
            before = setup_times(inputs_dir, SETUP_REPS // 2)
            records, _, _, _ = run_pass(args.workload, args.seed, args.seconds, inputs_dir, None)
            setup = before + setup_times(inputs_dir, SETUP_REPS - SETUP_REPS // 2)
            values, notes = end_to_end(records, statistics.median(setup))
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    metrics = {name: (values[name], unit)
               for name, unit in declared_metrics("per_layer" if args.trace else "end_to_end").items()}
    failed = [r for r in records if r[4] is not None]
    for note in notes:
        print(f"# {args.workload}: {note}")
    for kind, _, _, _, error in failed[:5]:
        print(f"# failed {kind}: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
