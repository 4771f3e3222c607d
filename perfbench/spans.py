"""Layer spans recorded from outside cccmap.

``Tracer.install`` replaces each function through which calls enter a layer
with a timing wrapper. The wrapper goes in at the defining module and at every
other module attribute bound to the same function object, which covers each
``from .x import y`` site and the package's re-exports. Calls made inside a
module look their callees up as module globals at call time, so they pass
through the wrappers too.

A span is (name, start, end, parent, op). Spans are kept in flat arrays in
memory and written once, when the run ends. A layer's self time is the sum of
its spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from array import array

import numpy as np

MODULES = ("cli", "stats", "mse_bounds", "lk_bounds", "ordering", "losses", "even_p", "oracles")

# Stages that have no public entry point: the module-level helper their public
# caller looks up at call time, and the layer its time is charged to.
STAGES = {
    "cli._load_columns": "cli.ingest",
    "cli._emit_report": "cli.render",
    "cli._write_csv": "cli.render",
    "even_p._ascend": "even_p",
    "even_p._newton_polish": "even_p",
}


def _first_len(args, kwargs, result) -> float:
    """Elements handled by a stats call: the length of its first sequence argument."""
    first = args[0] if args else next(iter(kwargs.values()), ())
    return float(first.size if isinstance(first, np.ndarray) else len(first))


def _amount_measures(residual_tol: float) -> dict:
    """Per-function work counts, computed from the arguments and the result."""

    def csv_bytes(args, kwargs, result):
        path = args[0] if args else kwargs.get("path")
        return float(os.path.getsize(path)) if path is not None else 0.0

    return {
        "cli._load_columns": lambda a, k, r: float(len(next(iter(r.values())))),
        "cli._write_csv": csv_bytes,
        "losses.training_trace": lambda a, k, r: float(r.rows.shape[0] - 1),
        "even_p._newton_polish": lambda a, k, r: float(r is not None),
        "even_p.scaled_residual": lambda a, k, r: float(r <= residual_tol),
        "oracles.permutation_oracle": lambda a, k, r: float(r.trials),
        "oracles.mse_sphere_oracle": lambda a, k, r: float(r.trials),
        "oracles.lk_sphere_oracle": lambda a, k, r: float(r.trials),
    }


class Tracer:
    """Records spans of wrapped functions; ``op`` tags every span with the current op."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.name = array("i")
        self.op_of = array("i")
        self.amount = array("d")
        self.op = 0
        self._stack: list[int] = []
        self._bindings: list[tuple] = []  # (module, attribute, original, wrapper)

    def wrap(self, qualname: str, layer: str, fn, measure=None):
        name_id = len(self.names)
        self.names.append(qualname)
        self.layers.append(layer)
        start, end, parent, names, op_of, amount = (
            self.start, self.end, self.parent, self.name, self.op_of, self.amount
        )
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            op_of.append(tracer.op)
            amount.append(0.0)
            start.append(0)
            end.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if measure is not None:
                amount[i] = measure(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point at all its binding sites, and enable the wrappers."""
        import cccmap
        from cccmap.tolerances import TOL

        modules = {m: importlib.import_module(f"cccmap.{m}") for m in MODULES}
        sites = [cccmap, *modules.values()]
        measures = _amount_measures(TOL.residual_tol)
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                qualname = f"{short}.{attr}"
                public = not attr.startswith("_") and inspect.isfunction(fn)
                if not (public and fn.__module__ == mod.__name__) and qualname not in STAGES:
                    continue
                measure = measures.get(qualname, _first_len if short == "stats" else None)
                w = self.wrap(qualname, STAGES.get(qualname, short), fn, measure)
                self._bindings += [(site, name, fn, w) for site in sites
                                   for name, value in vars(site).items() if value is fn]
        self.enable(True)

    def enable(self, on: bool) -> None:
        """Bind the wrappers (on) or the original functions (off) at every site."""
        for site, name, fn, wrapper in self._bindings:
            setattr(site, name, wrapper if on else fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_of, dtype=np.int32).copy(),
            "amount": np.frombuffer(self.amount, dtype=np.float64).copy(),
            "names": np.array(self.names),
            "layers": np.array(self.layers),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def load(path) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def concat(parts: list[dict]) -> dict[str, np.ndarray]:
    """Join span sets recorded by separate processes (one per CLI op)."""
    names = parts[0]["names"]
    out = {key: [] for key in ("start", "end", "parent", "name", "op", "amount")}
    offset = 0
    for part in parts:
        if not np.array_equal(part["names"], names):
            raise ValueError("span sets were recorded with different wrapper tables")
        for key in out:
            out[key].append(part[key])
        out["parent"][-1] = np.where(part["parent"] >= 0, part["parent"] + offset, -1)
        offset += part["start"].size
    joined = {key: np.concatenate(vals) for key, vals in out.items()}
    joined["names"] = names
    joined["layers"] = parts[0]["layers"]
    return joined


def self_ns(spans: dict) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child.astype(np.int64)


def outermost(spans: dict) -> np.ndarray:
    """True where no ancestor span belongs to the same layer: a call counts once."""
    layer_ids = {layer: i for i, layer in enumerate(sorted(set(spans["layers"].tolist())))}
    name_layer = [layer_ids[layer] for layer in spans["layers"].tolist()]
    span_layer = [name_layer[n] for n in spans["name"].tolist()]
    parent = spans["parent"].tolist()
    above = [0] * len(parent)  # bitmask of the layers strictly above each span
    for i, p in enumerate(parent):
        if p >= 0:
            above[i] = above[p] | (1 << span_layer[p])
    return np.array([not (a >> l) & 1 for a, l in zip(above, span_layer)], dtype=bool)


def layer_self_ms(spans: dict, ops: int, op_ids=None) -> dict[str, float]:
    """Self time per op of every layer, largest first; with ``op_ids``, over those ops only."""
    own = self_ns(spans)
    span_layer = spans["layers"][spans["name"]]
    if op_ids is not None:
        keep = np.isin(spans["op"], op_ids)
        own, span_layer, ops = own[keep], span_layer[keep], len(op_ids)
    totals = {layer: float(own[span_layer == layer].sum()) / 1e6 / ops
              for layer in set(spans["layers"].tolist())}
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def layer_metrics(spans: dict, ops: int) -> dict[str, float]:
    """Per-op layer metrics of a traced run (every key of BENCHMARK.json's per_layer but
    ``cli.render_bytes`` and ``trace.overhead_ms_per_op``, which need the caller's data)."""
    span_name = spans["names"][spans["name"]]
    span_layer = spans["layers"][spans["name"]]
    own = self_ns(spans)
    dur = spans["end"] - spans["start"]
    outer = outermost(spans)
    amount = spans["amount"]
    parent_name = np.where(spans["parent"] >= 0, span_name[np.maximum(spans["parent"], 0)], "")

    def in_layer(layer):
        return span_layer == layer

    def named(name):
        return span_name == name

    def ms(mask):
        return float(own[mask].sum()) / 1e6 / ops

    def per_op(x):
        return float(x) / ops

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    m = {}
    ingest = named("cli._load_columns") & outer
    m["cli.ingest_ms"] = ms(in_layer("cli.ingest"))
    m["cli.ingest_rows_per_s"] = ratio(amount[ingest].sum(), dur[ingest].sum() / 1e9)
    m["cli.render_ms"] = ms(in_layer("cli.render"))
    m["cli.self_ms"] = ms(in_layer("cli"))
    stats = in_layer("stats")
    m["stats.calls"] = per_op((stats & outer).sum())
    m["stats.self_ms"] = ms(stats)
    elements = amount[stats & outer].sum()
    m["stats.elements"] = per_op(elements)
    m["stats.ns_per_element"] = ratio(own[stats].sum(), elements)
    for layer in ("ordering", "mse_bounds", "lk_bounds", "losses"):
        m[f"{layer}.calls"] = per_op((in_layer(layer) & outer).sum())
        m[f"{layer}.self_ms"] = ms(in_layer(layer))
    m["losses.trace_steps"] = per_op(amount[named("losses.training_trace")].sum())
    solve = named("even_p.solve")
    ascend = named("even_p._ascend")
    polish = named("even_p._newton_polish")
    candidates = named("even_p.scaled_residual") & (parent_name == "even_p.solve")
    m["even_p.solve_calls"] = per_op((solve & outer).sum())
    m["even_p.presample_ms"] = ms(solve)
    m["even_p.ascend_ms"] = ms(ascend)
    m["even_p.polish_ms"] = ms(polish)
    m["even_p.starts"] = per_op(ascend.sum())
    m["even_p.polish_success_ratio"] = ratio(amount[polish].sum(), polish.sum())
    m["even_p.converged_ratio"] = ratio(amount[candidates].sum(), candidates.sum())
    oracles = in_layer("oracles")
    samples = amount[oracles & outer].sum()
    m["oracles.calls"] = per_op((oracles & outer).sum())
    m["oracles.self_ms"] = ms(oracles)
    m["oracles.samples"] = per_op(samples)
    m["oracles.samples_per_s"] = ratio(samples, dur[oracles & outer].sum() / 1e9)
    return m
