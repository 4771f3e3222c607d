"""Command-line surface: sequence ingestion, analysis commands, plot-data emission.

Verbs: analyze, bounds-mse, bounds-lk, permute, solve-even-p, loss, region, audit.
Output is a human-readable report by default, a stable JSON schema with --json,
and CSV for tabular data. Identical invocations (flags + input bytes + seed)
produce byte-identical output. Exit codes: 0 ok, 2 input validation, 3 numerical.
"""

from __future__ import annotations

import argparse
import csv
import io
import re
import sys

import numpy as np

from . import __version__
from .errors import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    INPUT_ERRORS,
    NUMERIC_ERRORS,
    InvalidInput,
)
from .even_p import StationarityProblem, solve
from .lk_bounds import (
    envelope_given_lk,
    lk_region_columns,
    lk_region_table,
    theta_band,
    theta_grid,
)
from .losses import TRACE_COLUMNS, VARIANTS, LossParams, loss, loss_gradient, training_trace
from .mse_bounds import (
    MSE_REGION_COLUMNS,
    CenteredGold,
    bounds_given_mse,
    ccc_from_mse_cov,
    center_gold,
    lower_envelope,
    mse_region_table,
)
from .oracles import lk_sphere_oracle, mse_sphere_oracle, permutation_oracle
from .ordering import (
    GOLD_MINUS_PRED,
    PRED_MINUS_GOLD,
    ErrorSet,
    error_set,
    optimal_permutations,
)
from .stats import _identity_residual, as_sequence, pair_stats, population_variance
from .tolerances import TOL

_FLOAT_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")


def _fmt(x: float) -> str:
    """17 significant digits: guarantees float64 round-trip fidelity."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# input handling


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read input {path!r}: {exc}") from exc


def _split_rows(text: str, fmt: str) -> list[list[str]]:
    lines = [ln.rstrip("\r") for ln in text.split("\n") if ln.strip() != ""]
    if fmt == "plain":
        return [ln.split() for ln in lines]
    if fmt in ("csv", "tsv"):
        delim = "," if fmt == "csv" else "\t"
        return list(csv.reader(lines, delimiter=delim))
    raise InvalidInput(f"unknown format {fmt!r}")


def _resolve_column(selector: str, header: list[str] | None, width: int, what: str) -> int:
    if re.fullmatch(r"\d+", selector):
        idx = int(selector)
        if idx >= width:
            raise InvalidInput(f"{what} column index {idx} out of range (width {width})")
        return idx
    if header is None:
        raise InvalidInput(
            f"{what} column {selector!r} is a name but --header was not given"
        )
    if selector not in header:
        raise InvalidInput(f"{what} column {selector!r} not found in header {header}")
    return header.index(selector)


def _load_columns(args, selectors: list[tuple[str, str]]) -> dict[str, np.ndarray]:
    """Parse the requested (name, column-selector) pairs from the input table.

    Values must be plain decimal floats; anything else (NaN, Inf, locale
    separators, underscores) is rejected with its line number.
    """
    rows = _split_rows(_read_text(args.input), args.format)
    if not rows:
        raise InvalidInput("input contains no data rows")
    header = None
    offset = 1
    if args.header:
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
        offset = 2
        if not rows:
            raise InvalidInput("input contains a header but no data rows")
    width = len(rows[0])
    out: dict[str, np.ndarray] = {}
    for what, selector in selectors:
        idx = _resolve_column(selector, header, width, what)
        values = np.empty(len(rows))
        for i, row in enumerate(rows):
            if idx >= len(row):
                raise InvalidInput(f"line {i + offset}: expected column {idx}, row has {len(row)} cells")
            cell = row[idx].strip()
            if not _FLOAT_RE.match(cell):
                raise InvalidInput(f"line {i + offset}: {cell!r} is not a plain decimal number")
            values[i] = float(cell)
        out[what] = as_sequence(values)
    return out


def _digest(n: int, mean: float, var: float) -> dict:
    return {"n": int(n), "mean": float(mean), "std": float(np.sqrt(var))}


def _digest_of(arr: np.ndarray) -> dict:
    return _digest(arr.size, arr.mean(), population_variance(arr))


def _load_gold(args) -> CenteredGold:
    return center_gold(_load_columns(args, [("gold", args.gold_col)])["gold"])


def _load_errors(args) -> tuple[np.ndarray, ErrorSet, dict]:
    """Gold column, error multiset and their input digests."""
    cols = _load_columns(args, [("gold", args.gold_col), ("errors", args.error_col)])
    errors = error_set(cols["errors"])
    digests = {"gold": _digest_of(cols["gold"]), "errors": _digest_of(errors.values)}
    return cols["gold"], errors, digests


# ---------------------------------------------------------------------------
# report rendering


def _render_json(obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(f'"{key}":')
            _render_json(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(",")
            _render_json(value, out)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        # strict JSON has no Infinity/NaN tokens
        out.append(_fmt(obj) if np.isfinite(obj) else "null")
    elif obj is None:
        out.append("null")
    else:
        out.append('"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"')


def _render_text(obj, out: list[str], indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, dict):
                out.append(f"{pad}{key}:")
                _render_text(value, out, indent + 1)
            elif isinstance(value, (list, tuple, np.ndarray)) and any(
                isinstance(v, dict) for v in value
            ):
                out.append(f"{pad}{key}:")
                for v in value:
                    out.append(f"{pad}  -")
                    _render_text(v, out, indent + 2)
            else:
                out.append(f"{pad}{key}: {_scalar_text(value)}")
    else:
        out.append(f"{pad}{_scalar_text(obj)}")


def _scalar_text(value) -> str:
    if isinstance(value, (list, tuple, np.ndarray)):
        return ", ".join(_scalar_text(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _emit_report(report: dict, as_json: bool) -> None:
    if as_json:
        parts: list[str] = []
        _render_json(report, parts)
        sys.stdout.write("".join(parts) + "\n")
    else:
        lines: list[str] = []
        _render_text(report, lines)
        sys.stdout.write("\n".join(lines) + "\n")


def _write_csv(path: str | None, columns, rows) -> None:
    """Comma-separated, header row, LF endings, UTF-8; stdout when no path."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, (float, np.floating)) else v for v in row])
    data = buf.getvalue()
    if path is None:
        sys.stdout.write(data)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(data)
        except OSError as exc:
            raise InvalidInput(f"cannot write output {path!r}: {exc}") from exc


def _report_skeleton(args, command: str) -> dict:
    report = {"command": command, "version": __version__}
    if getattr(args, "seed", None) is not None:
        report["seed"] = args.seed
    return report


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args) -> dict:
    cols = _load_columns(args, [("gold", args.gold_col), ("pred", args.pred_col)])
    gold, pred = cols["gold"], cols["pred"]
    stats = pair_stats(gold, pred)
    report = _report_skeleton(args, "analyze")
    report["inputs"] = {
        "gold": _digest(stats.n, stats.mu_x, stats.var_x),
        "pred": _digest(stats.n, stats.mu_y, stats.var_y),
    }
    report["results"] = {
        "n": stats.n,
        "mu_gold": stats.mu_x,
        "mu_pred": stats.mu_y,
        "var_gold": stats.var_x,
        "var_pred": stats.var_y,
        "cov": stats.cov_xy,
        "pearson": stats.pearson,
        "accuracy_coefficient": stats.c_b,
        "shift_penalty": stats.shift_penalty,
        "scale_penalty": stats.scale_penalty,
        "mse": stats.mse,
        "mae": stats.mae,
        "ccc": stats.ccc,
        "ccc_via_mse_map": ccc_from_mse_cov(stats.mse, stats.cov_xy),
        "variance_identity_residual": _identity_residual(gold, pred),
    }
    return report


def cmd_bounds_mse(args) -> dict:
    if args.mse is None:
        raise InvalidInput("bounds-mse requires --mse")
    gold = _load_gold(args)
    result = bounds_given_mse(gold, args.mse)
    report = _report_skeleton(args, "bounds-mse")
    report["inputs"] = {"gold": _digest(gold.n, gold.mu_g, gold.var_g)}
    report["results"] = {
        "mse": args.mse,
        "sigma_g": float(np.sqrt(gold.var_g)),
        "x": result.x_param,
        "ccc_max": result.ccc_max,
        "ccc_min": result.ccc_min,
    }
    if args.out is not None:
        _write_csv(
            args.out,
            ("gold", "err_max", "err_min", "pred_max", "pred_min"),
            zip(
                gold.gold,
                result.err_max,
                result.err_min,
                gold.gold + result.err_max,
                gold.gold + result.err_min,
            ),
        )
        report["out"] = args.out
    return report


def cmd_bounds_lk(args) -> dict:
    if args.k is None or args.lk is None:
        raise InvalidInput("bounds-lk requires --k and --lk")
    gold = _load_gold(args)
    sigma_g = float(np.sqrt(gold.var_g))
    band = theta_band(args.k, gold.n, args.lk)
    thetas = theta_grid(band.theta_max, args.theta_steps)
    envelope = envelope_given_lk(args.k, gold.n, args.lk, sigma_g, theta=1.0)
    report = _report_skeleton(args, "bounds-lk")
    report["inputs"] = {"gold": _digest(gold.n, gold.mu_g, gold.var_g)}
    report["results"] = {
        "k": args.k,
        "n": gold.n,
        "lk": args.lk,
        "sigma_g": sigma_g,
        "theta_min": band.theta_min,
        "theta_max": band.theta_max,
        "rmse_min": band.rmse_min,
        "rmse_max": band.rmse_max,
        "x": envelope.x,
        "ccc_upper": envelope.ccc_upper,
        "ccc_lower": envelope.ccc_lower,
        "theta_at_min": envelope.theta_at_min,
        "lower_by_theta": [
            {"theta": float(t), "ccc_lower_at_theta": float(v)}
            for t, v in zip(thetas, lower_envelope(thetas * envelope.x))
        ],
    }
    return report


def _permutation_audit(gold, errors, extremes):
    """(orderings, rows of (name, N! oracle value, closed-form value), agreement)."""
    add = permutation_oracle(gold, errors, PRED_MINUS_GOLD)
    sub = permutation_oracle(gold, errors, GOLD_MINUS_PRED)
    rows = [
        ("max_add", add.best_value, extremes.max_add.ccc_value),
        ("min_add", add.worst_value, extremes.min_add.ccc_value),
        ("max_sub", sub.best_value, extremes.max_sub.ccc_value),
        ("min_sub", sub.worst_value, extremes.min_sub.ccc_value),
    ]
    agrees = all(abs(oracle - closed) <= TOL.attainment_rtol for _, oracle, closed in rows)
    return add.trials, rows, agrees


def _within(oracle, lower: float, upper: float) -> bool:
    """Whether a sphere oracle's extremes stay inside [lower, upper], up to the oracle slack."""
    slack = TOL.oracle_slack
    return oracle.best_value <= upper + slack and oracle.worst_value >= lower - slack


def cmd_permute(args) -> dict:
    gold, errors, inputs = _load_errors(args)
    extremes = optimal_permutations(gold, errors)
    report = _report_skeleton(args, "permute")
    report["inputs"] = inputs

    def block(result):
        return {
            "convention": result.convention,
            "objective": result.objective,
            "ccc": result.ccc_value,
            "ccc_closed_form": result.formula_value,
        }

    report["results"] = {
        "max_add": block(extremes.max_add),
        "max_sub": block(extremes.max_sub),
        "min_add": block(extremes.min_add),
        "min_sub": block(extremes.min_sub),
    }
    if args.audit:
        orderings, rows, agrees = _permutation_audit(gold, errors, extremes)
        report["results"]["audit"] = {
            "orderings": orderings,
            **{f"oracle_{name}": oracle for name, oracle, _ in rows},
            "agrees": agrees,
        }
    if args.out is not None:
        _write_csv(
            args.out,
            (
                "gold",
                "pred_max_add",
                "pred_max_sub",
                "pred_min_add",
                "pred_min_sub",
                "max_pred_difference",
            ),
            zip(
                gold,
                extremes.max_add.prediction,
                extremes.max_sub.prediction,
                extremes.min_add.prediction,
                extremes.min_sub.prediction,
                extremes.max_add.prediction - extremes.max_sub.prediction,
            ),
        )
        report["out"] = args.out
    return report


def cmd_solve_even_p(args) -> dict:
    if args.k is None or args.lk is None:
        raise InvalidInput("solve-even-p requires --k and --lk")
    if not args.k.is_integer():
        raise InvalidInput(f"solve-even-p needs an even integer k, got {args.k}")
    gold = _load_gold(args)
    prob = StationarityProblem(
        gold=gold, k=int(args.k), lk=args.lk, objective=args.objective
    )
    state = solve(prob, seed=args.seed, max_iters=args.max_iters, restarts=args.restarts)
    report = _report_skeleton(args, "solve-even-p")
    report["inputs"] = {"gold": _digest(gold.n, gold.mu_g, gold.var_g)}
    results = {
        "k": int(args.k),
        "lk": args.lk,
        "objective": args.objective,
        "ccc": state.ccc_value,
        "objective_value": state.objective_value,
        "sigma_gd": state.sigma_gd,
        "multiplier": state.multiplier,
        "residual_norm": state.residual_norm,
        "iterations": state.iterations,
        "errors": list(state.d),
    }
    if int(args.k) == 2:
        closed = bounds_given_mse(gold, args.lk**2 / gold.n)
        target = closed.err_max if args.objective == "max" else closed.err_min
        cos = float(
            state.d @ target / (np.sqrt(state.d @ state.d) * np.sqrt(target @ target))
        )
        envelope = closed.ccc_max if args.objective == "max" else closed.ccc_min
        results["closed_form_check"] = {
            "cosine_similarity": cos,
            "ccc_abs_error": abs(state.ccc_value - envelope),
        }
    report["results"] = results
    return report


def cmd_loss(args) -> dict:
    cols = _load_columns(args, [("gold", args.gold_col), ("pred", args.pred_col)])
    gold, pred = cols["gold"], cols["pred"]
    params = LossParams(variant=args.variant, gamma=args.gamma, alpha=args.alpha, beta=args.beta)
    report = _report_skeleton(args, "loss")
    report["inputs"] = {"gold": _digest_of(gold), "pred": _digest_of(pred)}
    grad = loss_gradient(params, gold, pred)
    report["results"] = {
        "variant": args.variant,
        "gamma": args.gamma,
        "alpha": args.alpha,
        "beta": args.beta,
        "loss": loss(params, gold, pred),
        "gradient_max_abs": float(np.max(np.abs(grad))),
        "gradient": list(grad),
    }
    if args.trace_iters is not None:
        if args.trace_step is None:
            raise InvalidInput("--trace-iters requires --trace-step")
        trace = training_trace(params, gold, pred, args.trace_step, args.trace_iters)
        last = trace.rows[-1]
        report["results"]["trace"] = {
            "rows": int(trace.rows.shape[0]),
            "diverged": trace.diverged,
            "final_loss": float(last[1]),
            "final_mse": float(last[2]),
            "final_ccc": float(last[3]),
        }
        if args.out is not None:
            _write_csv(
                args.out,
                TRACE_COLUMNS,
                [(int(r[0]), r[1], r[2], r[3]) for r in trace.rows],
            )
            report["out"] = args.out
    return report


def cmd_region(args) -> dict | None:
    if args.kind == "mse":
        rows = mse_region_table(args.x_max, args.steps)
        _write_csv(args.out, MSE_REGION_COLUMNS, rows)
    else:
        if args.k is None or args.n is None:
            raise InvalidInput("region --kind lk requires --k and --n")
        rows, thetas = lk_region_table(
            args.k, args.n, args.x_max, args.steps, args.theta_steps
        )
        _write_csv(args.out, lk_region_columns(thetas), rows)
    return None  # CSV is the entire output


def cmd_audit(args) -> dict:
    report = _report_skeleton(args, "audit")
    if args.oracle == "permutation":
        gold, errors, report["inputs"] = _load_errors(args)
        orderings, rows, agrees = _permutation_audit(
            gold, errors, optimal_permutations(gold, errors)
        )
        results = {"oracle": "permutation", "orderings": orderings}
        for name, oracle, closed in rows:
            results[f"oracle_{name}"] = oracle
            results[f"closed_form_{name}"] = closed
        report["results"] = {**results, "agrees": agrees}
        return report
    if args.oracle == "mse-sphere":
        if args.mse is None:
            raise InvalidInput("audit mse-sphere requires --mse")
        gold = _load_gold(args)
        oracle = mse_sphere_oracle(gold.gold, args.mse, args.trials, args.seed)
        bounds = bounds_given_mse(gold, args.mse)
        report["inputs"] = {"gold": _digest(gold.n, gold.mu_g, gold.var_g)}
        report["results"] = {
            "oracle": "mse-sphere",
            "trials": oracle.trials,
            "x": bounds.x_param,
            "best": oracle.best_value,
            "worst": oracle.worst_value,
            "envelope_upper": bounds.ccc_max,
            "envelope_lower": bounds.ccc_min,
            "bounds_respected": _within(oracle, bounds.ccc_min, bounds.ccc_max),
        }
        return report
    # lk-sphere
    if args.k is None or args.lk is None:
        raise InvalidInput("audit lk-sphere requires --k and --lk")
    gold = _load_gold(args)
    sigma_g = float(np.sqrt(gold.var_g))
    oracle = lk_sphere_oracle(gold.gold, args.k, args.lk, args.trials, args.seed)
    envelope = envelope_given_lk(args.k, gold.n, args.lk, sigma_g, theta=1.0)
    report["inputs"] = {"gold": _digest(gold.n, gold.mu_g, gold.var_g)}
    report["results"] = {
        "oracle": "lk-sphere",
        "trials": oracle.trials,
        "k": args.k,
        "lk": args.lk,
        "x": envelope.x,
        "best": oracle.best_value,
        "worst": oracle.worst_value,
        "envelope_upper": envelope.ccc_upper,
        "envelope_lower": envelope.ccc_lower,
        "bounds_respected": _within(oracle, envelope.ccc_lower, envelope.ccc_upper),
    }
    return report


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cccmap",
        description="Concordance correlation vs. error-norm analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"cccmap {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", default="-", help="input file path, or - for stdin")
    common.add_argument("--format", choices=("csv", "tsv", "plain"), default="csv")
    common.add_argument("--gold-col", default="0", help="gold column (index or name)")
    common.add_argument("--pred-col", default="1", help="prediction column (index or name)")
    common.add_argument("--error-col", default="1", help="error column (index or name)")
    common.add_argument("--header", action="store_true", help="first row is a header")
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    common.add_argument("--out", default=None, help="CSV output path for tabular data")
    common.add_argument("--seed", type=int, default=0)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="full pair statistics")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bounds-mse", parents=[common], help="ccc range at fixed mse")
    p.add_argument("--mse", type=float, default=None)
    p.set_defaults(func=cmd_bounds_mse)

    p = sub.add_parser("bounds-lk", parents=[common], help="ccc range at fixed L_k norm")
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--lk", type=float, default=None)
    p.add_argument("--theta-steps", type=int, default=4)
    p.set_defaults(func=cmd_bounds_lk)

    p = sub.add_parser("permute", parents=[common], help="ccc-extreme error orderings")
    p.add_argument("--audit", action="store_true", help="append N! enumeration check")
    p.set_defaults(func=cmd_permute)

    p = sub.add_parser(
        "solve-even-p", parents=[common], help="ccc extremum at fixed L_k, even k"
    )
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--lk", type=float, default=None)
    p.add_argument("--objective", choices=("max", "min"), default="max")
    p.add_argument("--max-iters", type=int, default=400)
    p.add_argument("--restarts", type=int, default=16)
    p.set_defaults(func=cmd_solve_even_p)

    p = sub.add_parser("loss", parents=[common], help="loss family values and traces")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=int, default=0)
    p.add_argument("--trace-iters", type=int, default=None)
    p.add_argument("--trace-step", type=float, default=None)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("region", parents=[common], help="envelope plot data as CSV")
    p.add_argument("--kind", choices=("mse", "lk"), required=True)
    p.add_argument("--x-max", type=float, default=4.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--theta-steps", type=int, default=4)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("audit", parents=[common], help="run a brute-force oracle")
    p.add_argument("oracle", choices=("permutation", "mse-sphere", "lk-sphere"))
    p.add_argument("--mse", type=float, default=None)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--lk", type=float, default=None)
    p.add_argument("--trials", type=int, default=10_000)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except NUMERIC_ERRORS as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERIC
    if report is not None:
        _emit_report(report, args.json)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
