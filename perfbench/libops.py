"""The ``lib`` workload: library calls in a closed loop, run in a fresh worker process.

Run as ``python3 perfbench/libops.py SEED SECONDS [SPANS_PATH]`` with the
checkout's ``src`` on PYTHONPATH. It runs whole cycles of ``cycle_ops`` for
about SECONDS and prints one JSON line: a record per op of (kind, wall seconds,
CPU seconds, error or null). With SPANS_PATH the layer wrappers are installed,
every op also runs traced, and the spans are written there at the end.

Inputs for op i come from ``inputs.rng_for(seed, stream, i)`` and are made,
like the output checks, outside the timed region.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

import checks
import inputs
from pacing import cycles_within

# Kernel ops: one evaluation bundle per op; sizes 10^3 : 10^5 : 10^6 in a 5:10:1 cycle.
# The median op of the workload is a 10^5 bundle and the tail percentile a 10^6 one.
# With the 10^3 bundles in the majority the median would be a 1 ms call, whose time
# swings by up to 1.8x with the speed of a shared host, against about 1.3x for 10^5.
KERNEL_CYCLE = (1_000, 100_000, 100_000) * 5 + (1_000_000,)

SOLVE_N, ORACLE_PERM_N, SPHERE_N, SPHERE_TRIALS, TRACE_N, TRACE_ITERS = 30, 8, 20, 200_000, 200, 200


@dataclass(frozen=True)
class Op:
    kind: str
    make: Callable[[], dict]
    call: Callable[[object, dict], object]
    check: Callable[[dict, object], None]


def _kernel_inputs(seed: int, index: int, n: int) -> dict:
    rng = inputs.rng_for(seed, inputs.STREAM_PAIR, index)
    d = inputs.gold_pred_errors(rng, n)
    d["mse"] = float(rng.uniform(0.25, 4.0))
    d["lk"] = float(np.sum(d["errors"] ** 4) ** 0.25)
    return d


def _kernel_bundle(cm, d: dict) -> dict:
    g, p = d["gold"], d["pred"]
    cg = cm.center_gold(g)
    params = cm.LossParams("abs_mse_over_cov")
    return {
        "pair_stats": cm.pair_stats(g, p),
        "ccc": cm.ccc(g, p),
        "bounds": cm.bounds_given_mse(cg, d["mse"]),
        "extremes": cm.optimal_permutations(g, cm.error_set(d["errors"])),
        "loss": cm.loss(params, g, p),
        "gradient": cm.loss_gradient(params, g, p),
        "envelope": cm.envelope_given_lk(4, cg.n, d["lk"], math.sqrt(cg.var_g)),
    }


def _check_kernels(d: dict, out: dict) -> None:
    checks.check_kernel_bundle(out, d["gold"], d["pred"], d["errors"], d["mse"], 4, d["lk"])


def kernel_ops(seed: int, cycle: int) -> list[Op]:
    first = cycle * len(KERNEL_CYCLE)
    return [Op(f"bundle-{n}", lambda i=first + j, n=n: _kernel_inputs(seed, i, n),
               _kernel_bundle, _check_kernels)
            for j, n in enumerate(KERNEL_CYCLE)]


# Search ops draw their values from the seed but take their scales from a sweep fixed by
# the cycle number, so that every run covers the same range of solver and descent
# difficulty and runs differ in cost far less than their inputs do.


def _sweep(cycle: int, lo: float, hi: float) -> float:
    """A low-discrepancy (golden-ratio) sweep of [lo, hi] over the cycles."""
    return lo + (hi - lo) * ((cycle * 0.6180339887498949) % 1.0)


def _solve_op(seed: int, index: int, cycle: int, k: int, objective: str) -> Op:
    def make():
        rng = inputs.rng_for(seed, inputs.STREAM_SEARCH, index)
        return {"gold": rng.standard_normal(SOLVE_N), "lk": _sweep(cycle, 0.5, 3.0) * SOLVE_N ** (1 / k),
                "seed": int(rng.integers(2**31))}

    def call(cm, d):
        prob = cm.StationarityProblem(cm.center_gold(d["gold"]), k, d["lk"], objective)
        return cm.solve(prob, seed=d["seed"])

    return Op(f"solve-k{k}-{objective}", make, call,
              lambda d, state: checks.check_solve(state, d["gold"], k, d["lk"], objective))


def _permutation_op(seed: int, index: int, convention: str) -> Op:
    def make():
        rng = inputs.rng_for(seed, inputs.STREAM_SEARCH, index)
        return {"gold": rng.standard_normal(ORACLE_PERM_N), "errors": rng.standard_normal(ORACLE_PERM_N)}

    return Op(f"permutation-oracle-{convention}", make,
              lambda cm, d: cm.permutation_oracle(d["gold"], cm.error_set(d["errors"]), convention),
              lambda d, r: checks.check_permutation_oracle(r, d["gold"], d["errors"], convention))


def _sphere_op(seed: int, index: int, cycle: int, k: int) -> Op:
    def make():
        rng = inputs.rng_for(seed, inputs.STREAM_SEARCH, index)
        return {"gold": rng.standard_normal(SPHERE_N), "scale": _sweep(cycle, 0.2, 2.0),
                "seed": int(rng.integers(2**31))}

    def call(cm, d):
        if k == 2:
            return cm.mse_sphere_oracle(d["gold"], d["scale"], SPHERE_TRIALS, d["seed"])
        return cm.lk_sphere_oracle(d["gold"], k, d["scale"], SPHERE_TRIALS, d["seed"])

    def check(d, report):
        gold = d["gold"]
        gz = gold - gold.mean()
        var_g = float(gz @ gz) / gold.size
        if k == 2:
            radius = math.sqrt(gold.size * d["scale"])
            _, upper, lower = checks.mse_envelopes(d["scale"], var_g)
        else:
            radius = d["scale"]
            _, upper, lower = checks.lk_envelopes(k, gold.size, radius, math.sqrt(var_g))
        checks.check_sphere_oracle(report, gold, SPHERE_TRIALS, k, radius, lower, upper)

    return Op("mse-sphere-oracle" if k == 2 else f"lk{k}-sphere-oracle", make, call, check)


def _trace_op(seed: int, index: int, cycle: int) -> Op:
    def make():
        rng = inputs.rng_for(seed, inputs.STREAM_SEARCH, index)
        gold = rng.standard_normal(TRACE_N) + _sweep(cycle, -2.0, 2.0)
        return {"gold": gold, "pred": -gold + rng.normal(0.0, 0.5, TRACE_N)}

    def call(cm, d):
        return cm.training_trace(cm.LossParams("abs_mse_over_cov"), d["gold"], d["pred"], 0.5, TRACE_ITERS)

    return Op("training-trace", make, call,
              lambda d, trace: checks.check_training_trace(trace, d["gold"], TRACE_ITERS))


SEARCH_OPS_PER_CYCLE = 11


def search_ops(seed: int, cycle: int) -> list[Op]:
    first = cycle * SEARCH_OPS_PER_CYCLE
    ops: list[Op] = []
    for k in (2, 4, 6):
        for objective in ("max", "min"):
            ops.append(_solve_op(seed, first + len(ops), cycle, k, objective))
    for convention in ("pred_minus_gold", "gold_minus_pred"):
        ops.append(_permutation_op(seed, first + len(ops), convention))
    ops.append(_sphere_op(seed, first + len(ops), cycle, 2))
    ops.append(_sphere_op(seed, first + len(ops), cycle, 4))
    ops.append(_trace_op(seed, first + len(ops), cycle))
    return ops


def cycle_ops(seed: int, cycle: int) -> list[Op]:
    """One cycle: the kernel bundles, then the solver, oracle and descent-trace calls."""
    return kernel_ops(seed, cycle) + search_ops(seed, cycle)


def _timed(op: Op, cm, d: dict) -> list:
    """[kind, wall s, CPU s, error or None] of one call; the check runs after the clock stops."""
    error = None
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        out = op.call(cm, d)
    except Exception as exc:  # a failed op is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if error is None:
        try:
            op.check(d, out)
        except Exception as exc:
            error = f"check failed: {type(exc).__name__}: {exc}"
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    return [op.kind, t1 - t0, cpu, error]


def run(ops: Iterable[Op], cm, tracer=None) -> tuple[list, list]:
    """Closed loop over ``ops``. Returns (untraced records, traced records).

    With a tracer each op runs twice on the same inputs, untraced and traced, the
    order alternating from op to op, so that drift in machine speed and warm caches
    cancel out of the tracing overhead. Without one the traced list is empty.
    """
    plain, traced = [], []
    for op_id, op in enumerate(ops):
        d = op.make()
        if tracer is None:
            plain.append(_timed(op, cm, d))
            continue
        tracer.op = op_id
        for on in ((False, True) if op_id % 2 == 0 else (True, False)):
            tracer.enable(on)
            (traced if on else plain).append(_timed(op, cm, d))
    return plain, traced


def main(argv: list[str]) -> int:
    seed, seconds = int(argv[0]), float(argv[1])
    spans_path = argv[2] if len(argv) > 2 else None
    tracer = None
    if spans_path is not None:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    import cccmap

    ops = (op for cycle in cycles_within(seconds) for op in cycle_ops(seed, cycle))
    plain, traced = run(ops, cccmap, tracer)
    if tracer is not None:
        tracer.save(spans_path)
    sys.stdout.write(json.dumps({"untraced": plain, "traced": traced}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
