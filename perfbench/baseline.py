"""Baseline sanity table: the hand-measured reference numbers, reproduced by the harness.

    python3 perfbench/baseline.py [--out perfbench/BASELINE.md]

Times are best of several untraced runs. The layer shares come from one
traced pass with the benchmark's wrappers. The table records the machine,
CPU count, Python, numpy and the commit measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from checkout import ROOT, WORK, child_env, use_checkout_src

use_checkout_src()

import numpy as np  # noqa: E402

import cliops  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

REPS = 5


def best_of(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def cli_rows(workdir: Path) -> list[tuple[str, str, str]]:
    probe = [sys.executable, "-c", "import cccmap.cli; cccmap.cli.build_parser()"]
    cliops.run_child(probe, workdir / "o", workdir / "e")
    startup = min(cliops.run_child(probe, workdir / "o", workdir / "e")[1] for _ in range(REPS))

    cols = inputs.gold_pred_errors(inputs.rng_for(0, inputs.STREAM_PAIR), 1_000_000)
    table = workdir / "analyze-1e6.csv"
    inputs.write_table(table, {"gold": cols["gold"], "pred": cols["pred"]})
    argv = [sys.executable, str(cliops.LAUNCHER), "--", "analyze", "--json", "--input", str(table)]
    walls = []
    for _ in range(3):
        code, wall, _, _ = cliops.run_child(argv, workdir / "o", workdir / "e")
        if code != 0:
            raise SystemExit(f"analyze exited {code}")
        walls.append(wall)
    traced = [sys.executable, str(cliops.LAUNCHER), str(workdir / "s.npz"), "0", "--", *argv[3:]]
    subprocess.run(traced, env=child_env(), check=True, capture_output=True)
    table.unlink()
    data = spans.load(workdir / "s.npz")
    name = data["names"][data["name"]]
    dur = data["end"] - data["start"]
    main_s = dur[name == "cli.main"].sum() / 1e9
    ingest_s = dur[name == "cli._load_columns"].sum() / 1e9
    pair_s = dur[name == "stats.pair_stats"].sum() / 1e9
    return [
        ("CLI start-up (`import cccmap.cli` + `build_parser()`, fresh interpreter)",
         f"{startup:.3f} s", "0.42 s"),
        ("`cccmap analyze --json` on 10^6 rows, end to end", f"{min(walls):.2f} s", "7.9 s"),
        ("… of which `cli._load_columns` (traced pass)",
         f"{ingest_s:.2f} s ({100 * ingest_s / main_s:.0f}% of `cli.main`)", "6.4 s"),
        ("… of which `pair_stats` (traced pass)", f"{pair_s * 1e3:.0f} ms", "0.13 s"),
    ]


def library_rows() -> list[tuple[str, str, str]]:
    import cccmap as cm

    rng = inputs.rng_for(0, inputs.STREAM_PAIR, 1)
    d = inputs.gold_pred_errors(rng, 1_000_000)
    g, p = d["gold"], d["pred"]
    errors = cm.error_set(d["errors"])
    pair = best_of(lambda: cm.pair_stats(g, p))
    ccc = best_of(lambda: cm.ccc(g, p))
    perms = best_of(lambda: cm.optimal_permutations(g, errors))

    g30 = np.random.default_rng(0).normal(0.0, 1.0, 30)
    prob = cm.StationarityProblem(cm.center_gold(g30), 4, 1.5 * 30 ** 0.25, "max")
    solve = best_of(lambda: cm.solve(prob, seed=7))

    g9 = np.random.default_rng(1).normal(0.0, 1.0, 9)
    e9 = cm.error_set(np.random.default_rng(2).normal(0.0, 1.0, 9))
    oracle = best_of(lambda: cm.permutation_oracle(g9, e9, "pred_minus_gold"), reps=3)

    tracer = spans.Tracer()
    tracer.install()
    cm.solve(prob, seed=7)
    data = tracer.arrays()
    share = spans.layer_metrics(data, ops=1)
    total = share["even_p.presample_ms"] + share["even_p.ascend_ms"] + share["even_p.polish_ms"]
    split = ", ".join(f"{key} {100 * share[f'even_p.{key}_ms'] / total:.0f}%"
                      for key in ("presample", "ascend", "polish"))
    return [
        ("`pair_stats` at 10^6", f"{pair * 1e3:.0f} ms", "186 ms"),
        ("`ccc` at 10^6", f"{ccc * 1e3:.0f} ms", "52 ms"),
        ("`optimal_permutations` at 10^6", f"{perms * 1e3:.0f} ms", "605 ms"),
        ("`solve` at k=4, n=30", f"{solve * 1e3:.0f} ms", "290 ms"),
        ("… even_p self-time split (traced pass)", split, "≈ 1/3 presampling"),
        ("`permutation_oracle` at n=9, one convention", f"{oracle:.2f} s", "0.47 s"),
    ]


def layer_table(seconds: int) -> list[str]:
    """Self ms/op of every layer, from one traced run of each workload (seed 0), over all
    its ops and over each part of it."""
    import run

    lines = ["| workload | ops | self ms/op by layer, largest first | trace overhead ms/op |",
             "|---|---|---|---|"]
    for workload in run.WORKLOADS:
        argv = [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", "0",
                "--seconds", str(seconds), "--trace", "1"]
        out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.splitlines()
        overhead = json.loads(out[-1])["metrics"]["trace.overhead_ms_per_op"]["value"]
        for line in out:
            if "self ms/op by layer, " in line:
                part, layers = line.split("self ms/op by layer, ", 1)[1].split(" ops: ", 1)
                lines.append(f"| {workload} | {part} | {layers} | {overhead:.3g} |")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=Path(__file__).resolve().parent / "BASELINE.md")
    args = parser.parse_args()
    workdir = WORK / "baseline"
    workdir.mkdir(parents=True, exist_ok=True)
    rows = cli_rows(workdir) + library_rows()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    import cccmap

    lines = [
        "# Baseline sanity table",
        "",
        "Written by `python3 perfbench/baseline.py`. Best of several untraced runs;",
        "shares from one traced pass. The last column is the hand measurement quoted",
        "in ROADMAP.md (\"Recent\"), taken on a scratch copy before this harness existed.",
        "The host is a shared 2-vCPU VM whose speed drifts by up to 1.8x over minutes;",
        "other runs of this script measured the same rows up to 1.6x slower. The",
        "tracing overhead is the gap between paired traced and untraced ops; on `cli`",
        "it is within that drift and can read negative.",
        "",
        f"- machine: {platform.machine()}, {cpu_model()}",
        f"- nproc: {os.cpu_count()}",
        f"- Python: {platform.python_version()}, numpy: {np.__version__}, cccmap: {cccmap.__version__}",
        f"- commit: {commit()}",
        "",
        "| measurement | harness | quoted |",
        "|---|---|---|",
        *(f"| {a} | {b} | {c} |" for a, b, c in rows),
        "",
        f"One traced run per workload (`run.py --seed 0 --seconds {seconds} --trace 1`):",
        "",
        *layer_table(seconds),
        "",
    ]
    args.out.write_text("\n".join(lines))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
