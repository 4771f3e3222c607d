"""Command-line surface: sequence ingestion, analysis commands, plot-data emission.

Verbs: analyze, bounds-mse, bounds-lk, permute, solve-even-p, loss, region, audit.
Output is a human-readable report by default, a stable JSON schema with --json,
and CSV for tabular data. Identical invocations (flags + input bytes + seed)
produce byte-identical output. Exit codes: 0 ok, 2 input validation, 3 numerical.

The parser loads no numpy. Each verb imports, in its body, the library names it
calls, and each ingest and render helper imports numpy where it uses it, so a
process loads only what its verb runs.

``main`` runs numpy's BLAS on one thread: before any verb imports numpy it sets
``OPENBLAS_NUM_THREADS=1``, unless the caller has set ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` (the variables OpenBLAS reads), or
numpy is already loaded, as in a test or a notebook that calls ``main``. OpenBLAS
otherwise starts a worker per CPU at import, which no verb gives enough work to
pay for and which busy-waits after each product, and it splits a large ``@``
across threads in a way that changes the rounding. With one thread the bytes a
verb prints do not depend on how many CPUs the machine has.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING

from . import TOL, __version__
from .errors import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    INPUT_ERRORS,
    NUMERIC_ERRORS,
    InvalidInput,
)

if TYPE_CHECKING:
    import numpy as np

    from .mse_bounds import CenteredGold
    from .ordering import ErrorSet

_FLOAT_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$", re.ASCII)
# 17 significant digits: guarantees float64 round-trip fidelity.
_FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# input handling

_DELIMITERS = {"csv": ",", "tsv": "\t", "plain": None}  # None: runs of whitespace


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read input {path!r}: {exc}") from exc


def _split_rows(text: str, fmt: str) -> list[list[str]]:
    lines = [ln.rstrip("\r") for ln in text.split("\n") if ln.strip() != ""]
    if fmt == "plain":
        return [ln.split() for ln in lines]
    # The empty sentinel line is swallowed by a quoted cell left open on the last line,
    # so every row that spans lines shows as a line count running ahead of the rows.
    reader = csv.reader(itertools.chain(lines, [""]), delimiter=_DELIMITERS[fmt])
    rows: list[list[str]] = []
    try:
        for row in reader:
            if reader.line_num > len(rows) + 1:
                line = _line_number(text, len(rows))
                raise InvalidInput(
                    f"line {line}: unterminated quoted cell (a quoted cell must close on its line)"
                )
            rows.append(row)
    except csv.Error as exc:  # a bare carriage return, or a cell past the field size limit
        line = _line_number(text, reader.line_num - 1)
        raise InvalidInput(f"line {line}: {str(exc).split(' - ')[0]}") from None
    rows.pop()  # the sentinel's empty row
    return rows


def _line_number(text: str, row: int) -> int:
    """Physical line number of the nonblank line of ``text`` that :func:`_split_rows`
    made its ``row``-th row (from 0); worked out only for an error message."""
    nonblank = (i for i, ln in enumerate(text.split("\n"), 1) if ln.strip() != "")
    return next(itertools.islice(nonblank, row, None))


def _resolve_column(selector: str, header: list[str] | None, width: int, what: str) -> int:
    if re.fullmatch(r"\d+", selector, re.ASCII):  # a digit from another script is a name
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


def _read_table(data: bytes, fmt: str, has_header: bool, selectors) -> dict[str, np.ndarray]:
    """The selected columns as numpy's C reader parses them, or ValueError or InvalidInput.

    The reader is handed only tables that it splits into the rows and cells of
    :func:`_split_rows`: the header (if any) and the first data row are the table's
    first lines and nonblank, no line is past the csv field size limit, and a csv or tsv
    table holds no quote past its header. It raises on a bare CR, on bytes that are not
    UTF-8, on a row without a selected cell and on a malformed number; it skips empty
    lines, strips what ``str.strip`` strips and parses a number as ``float`` does, and
    :func:`as_sequence` refuses the nan and inf (a number past float64 too) that it gives.
    """
    import numpy as np

    from .stats import as_sequence

    body = end = 0  # body: where the first data line starts
    for _ in range(1 + has_header):
        body, end = end, data.find(b"\n", end) + 1 or len(data)
    rows = _split_rows(data[:end].decode("utf-8"), fmt)
    if len(rows) <= has_header or (fmt != "plain" and data.find(b'"', body) >= 0):
        raise ValueError("a blank first line, no data row or a quote")
    limit, start = csv.field_size_limit(), 0
    while len(data) - start > limit:  # each step passes the lines that end in a window
        start = data.rfind(b"\n", start, start + limit + 1) + 1
        if not start:
            raise ValueError("a line past the csv field size limit")
    header = [c.strip() for c in rows[0]] if has_header else None
    width = len(rows[-1])
    usecols = [_resolve_column(selector, header, width, what) for what, selector in selectors]
    values = np.loadtxt(
        io.BytesIO(data), delimiter=_DELIMITERS[fmt], comments=None, quotechar=None,
        skiprows=int(has_header), usecols=usecols, ndmin=2, encoding="utf-8",
    )
    return {what: as_sequence(values[:, j].copy(), what) for j, (what, _) in enumerate(selectors)}


def _load_columns(args, selectors: list[tuple[str, str]]) -> dict[str, np.ndarray]:
    """Parse the requested (name, column-selector) pairs from the input table.

    Values must be plain decimal floats within float64; anything else (NaN, Inf, 1e400,
    locale separators, underscores) is rejected with its line number. The input is read
    once, as bytes, and :func:`_read_table` hands it to numpy's C reader. Where
    that raises, the per-line route, :func:`_parse_rows`, reads the table instead
    and builds every error; on a table that both read, their values are the same.
    """
    data = _read_bytes(args.input)
    try:
        return _read_table(data, args.format, args.header, selectors)
    except (ValueError, InvalidInput):
        return _parse_rows(data.decode("utf-8", "surrogateescape"), args, selectors)


def _parse_rows(text: str, args, selectors: list[tuple[str, str]]) -> dict[str, np.ndarray]:
    """The per-line route of :func:`_load_columns`."""
    import numpy as np

    from .stats import as_sequence

    rows = _split_rows(text, args.format)
    if not rows:
        raise InvalidInput("input contains no data rows")
    header = [c.strip() for c in rows[0]] if args.header else None
    offset = int(args.header)  # rows before the first data row
    rows = rows[offset:]
    if not rows:
        raise InvalidInput("input contains a header but no data rows")
    width = len(rows[0])
    out: dict[str, np.ndarray] = {}
    for what, selector in selectors:
        idx = _resolve_column(selector, header, width, what)
        values = np.empty(len(rows))
        for i, row in enumerate(rows):
            if idx >= len(row):
                line = _line_number(text, offset + i)
                raise InvalidInput(f"line {line}: expected column {idx}, row has {len(row)} cells")
            cell = row[idx].strip()
            values[i] = float(cell) if _FLOAT_RE.match(cell) else math.nan
            if not abs(values[i]) < math.inf:  # not a plain decimal number, or one past float64
                why = "not a plain decimal number" if math.isnan(values[i]) else "beyond float64"
                raise InvalidInput(f"line {_line_number(text, offset + i)}: {cell!r} is {why}")
        out[what] = as_sequence(values, what)
    return out


def _digest_of(arr: np.ndarray) -> dict:
    from .stats import _gold_moments, _unscale

    e, mu, var, _ = _gold_moments(arr)
    _unscale(var, 2 * e, "variance")  # mu, var in the kernel's units: refuse a var past float64
    return {"n": arr.size, "mean": math.ldexp(mu, e), "std": math.ldexp(math.sqrt(var), e)}


def _load_gold(args) -> tuple[CenteredGold, dict]:
    """Prepared gold column and its input digest, read from the prepared units."""
    from .mse_bounds import center_gold

    gold = center_gold(_load_columns(args, [("gold", args.gold_col)])["gold"])
    return gold, {"gold": {"n": gold.n, "mean": gold.mu_g, "std": gold.sigma_g}}


def _load_errors(args) -> tuple[np.ndarray, ErrorSet, dict]:
    """Gold column, error multiset and their input digests."""
    from .ordering import error_set

    cols = _load_columns(args, [("gold", args.gold_col), ("errors", args.error_col)])
    errors = error_set(cols["errors"])
    digests = {"gold": _digest_of(cols["gold"]), "errors": _digest_of(errors.values)}
    return cols["gold"], errors, digests


# ---------------------------------------------------------------------------
# report rendering


def _write_rows(write, cells: np.ndarray, head: str, row: str, sep: str = "", tail: str = "",
                null: str | None = None) -> None:
    """Write ``head + sep.join(row % tuple(r) for r in cells) + tail`` for the 2-D array
    ``cells``, formatting and writing 2^14 cells at a time, each chunk with one ``%`` over its
    flat values, so that the memory a table takes does not grow with it. With ``null``, a
    non-finite cell is written as ``null`` in place of its :data:`_FLOAT_FMT` conversion."""
    import numpy as np

    template, step = sep + row, max(1, (1 << 14) // cells.shape[1])
    write(head)
    for start in range(0, len(cells), step):
        values = cells[start:start + step].ravel()
        text = template * (values.size // cells.shape[1])
        if null is not None and not (ok := np.isfinite(values)).all():
            pieces = text.split(_FLOAT_FMT)  # cell i's conversion sits after pieces[i]
            text = "".join(np.char.add(pieces[:-1], np.where(ok, _FLOAT_FMT, null))) + pieces[-1]
            values = values[ok]
        text %= tuple(values.tolist())
        write(text if start else text[len(sep):])
    write(tail)


def _render_json(obj, write) -> None:
    import numpy as np

    if isinstance(obj, dict):
        write("{")
        for i, (key, value) in enumerate(obj.items()):
            write(f',"{key}":' if i else f'"{key}":')
            _render_json(value, write)
        write("}")
    elif isinstance(obj, tuple):  # a table: its column names and a 2-D array, a record per row
        names, rows = obj
        record = "{" + ",".join(f'"{name}":{_FLOAT_FMT}' for name in names) + "}"
        _write_rows(write, rows, "[", record, ",", "]", "null")
    elif isinstance(obj, np.ndarray):  # a float vector
        _write_rows(write, obj[:, None], "[", _FLOAT_FMT, ",", "]", "null")
    elif isinstance(obj, bool):
        write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        # strict JSON has no Infinity/NaN tokens
        write(_FLOAT_FMT % obj if np.isfinite(obj) else "null")
    else:
        write(json.dumps(str(obj), ensure_ascii=False))


def _render_text(report: dict, write, pad: str = "") -> None:
    import numpy as np

    for key, value in report.items():
        write(f"{pad}{key}:")
        if isinstance(value, dict):
            write("\n")
            _render_text(value, write, pad + "  ")
        elif isinstance(value, tuple):  # a table: a "-" line, then a line per cell, per record
            names, rows = value
            record = f"\n{pad}  -" + "".join(f"\n{pad}    {name}: %r" for name in names)
            _write_rows(write, rows, "", record, "", "\n")
        elif isinstance(value, np.ndarray):
            _write_rows(write, value[:, None], " ", "%r", ", ", "\n")
        elif isinstance(value, bool):
            write(" true\n" if value else " false\n")
        elif isinstance(value, (float, np.floating)):
            write(f" {float(value)!r}\n")
        else:
            write(f" {value}\n")


def _emit_report(report: dict, as_json: bool) -> None:
    """Write ``report`` to stdout, as JSON or as indented text. A float vector or a table
    (column names, 2-D array) in it goes out through :func:`_write_rows`."""
    (_render_json if as_json else _render_text)(report, sys.stdout.write)
    if as_json:
        sys.stdout.write("\n")


def _write_csv(path: str | None, columns, rows: np.ndarray) -> None:
    """Comma-separated, header row, LF endings, UTF-8; stdout when no path.

    ``rows`` is a 2-D float array, one row per line, every cell written as
    :data:`_FLOAT_FMT` writes it (integers such as an iteration count come out bare).
    """
    header, line = ",".join(columns) + "\n", ",".join([_FLOAT_FMT] * len(columns)) + "\n"
    if path is None:
        return _write_rows(sys.stdout.write, rows, header, line)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _write_rows(fh.write, rows, header, line)
    except OSError as exc:
        raise InvalidInput(f"cannot write output {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args) -> dict:
    from .mse_bounds import ccc_from_mse_cov
    from .stats import pair_stats, variance_identity_residual

    cols = _load_columns(args, [("gold", args.gold_col), ("pred", args.pred_col)])
    gold, pred = cols["gold"], cols["pred"]
    stats = pair_stats(gold, pred)
    inputs = {"gold": _digest_of(gold), "pred": _digest_of(pred)}
    results = {
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
        "variance_identity_residual": variance_identity_residual(gold, pred),
    }
    return {"inputs": inputs, "results": results}


def cmd_bounds_mse(args) -> dict:
    import numpy as np

    from .mse_bounds import bounds_given_mse

    if args.mse is None:
        raise InvalidInput("bounds-mse requires --mse")
    gold, inputs = _load_gold(args)
    result = bounds_given_mse(gold, args.mse)
    results = {
        "mse": args.mse,
        "sigma_g": gold.sigma_g,
        "x": result.x_param,
        "ccc_max": result.ccc_max,
        "ccc_min": result.ccc_min,
    }
    report = {"inputs": inputs, "results": results}
    if args.out is not None:
        _write_csv(
            args.out,
            ("gold", "err_max", "err_min", "pred_max", "pred_min"),
            np.column_stack([
                gold.gold,
                result.err_max,
                result.err_min,
                gold.gold + result.err_max,
                gold.gold + result.err_min,
            ]),
        )
        report["out"] = args.out
    return report


def cmd_bounds_lk(args) -> dict:
    import numpy as np

    from .lk_bounds import envelope_given_lk, lower_family, theta_band, theta_grid

    if args.k is None or args.lk is None:
        raise InvalidInput("bounds-lk requires --k and --lk")
    gold, inputs = _load_gold(args)
    band = theta_band(args.k, gold.n, args.lk)
    thetas = theta_grid(band.theta_max, args.theta_steps)
    envelope = envelope_given_lk(args.k, gold.n, args.lk, gold.sigma_g)
    results = {
        "k": args.k,
        "n": gold.n,
        "lk": args.lk,
        "sigma_g": gold.sigma_g,
        "theta_min": band.theta_min,
        "theta_max": band.theta_max,
        "rmse_min": band.rmse_min,
        "rmse_max": band.rmse_max,
        "x": envelope.x,
        "ccc_upper": envelope.ccc_upper,
        "ccc_lower": envelope.ccc_lower,
        "theta_at_min": envelope.theta_at_min,
        "lower_by_theta": (
            ("theta", "ccc_lower_at_theta"),
            np.column_stack([thetas, lower_family(envelope.x, thetas)]),
        ),
    }
    return {"inputs": inputs, "results": results}


def _permutation_audit(gold, errors, extremes):
    """(orderings, rows of (name, N! oracle value, closed-form value), agreement); the
    closed-form value is each extreme's ``formula_value``, the exact mapping at its ordering."""
    from .oracles import permutation_oracle
    from .ordering import GOLD_MINUS_PRED, PRED_MINUS_GOLD

    add = permutation_oracle(gold, errors, PRED_MINUS_GOLD)
    sub = permutation_oracle(gold, errors, GOLD_MINUS_PRED)
    rows = [
        ("max_add", add.best_value, extremes.max_add.formula_value),
        ("min_add", add.worst_value, extremes.min_add.formula_value),
        ("max_sub", sub.best_value, extremes.max_sub.formula_value),
        ("min_sub", sub.worst_value, extremes.min_sub.formula_value),
    ]
    agrees = all(abs(oracle - closed) <= TOL.attainment_rtol for _, oracle, closed in rows)
    return add.trials, rows, agrees


def cmd_permute(args) -> dict:
    import numpy as np

    from .ordering import optimal_permutations

    gold, errors, inputs = _load_errors(args)
    extremes = optimal_permutations(gold, errors)

    def block(result):
        return {
            "convention": result.convention,
            "objective": result.objective,
            "ccc": result.ccc_value,
            "ccc_closed_form": result.formula_value,
        }

    results = {
        "max_add": block(extremes.max_add),
        "max_sub": block(extremes.max_sub),
        "min_add": block(extremes.min_add),
        "min_sub": block(extremes.min_sub),
    }
    if args.audit:
        orderings, rows, agrees = _permutation_audit(gold, errors, extremes)
        results["audit"] = {
            "orderings": orderings,
            **{f"oracle_{name}": oracle for name, oracle, _ in rows},
            "agrees": agrees,
        }
    report = {"inputs": inputs, "results": results}
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
            np.column_stack([
                gold,
                extremes.max_add.prediction,
                extremes.max_sub.prediction,
                extremes.min_add.prediction,
                extremes.min_sub.prediction,
                extremes.max_add.prediction - extremes.max_sub.prediction,
            ]),
        )
        report["out"] = args.out
    return report


def cmd_solve_even_p(args) -> dict:
    import numpy as np

    from .even_p import StationarityProblem, solve
    from .mse_bounds import bounds_given_mse

    if args.k is None or args.lk is None:
        raise InvalidInput("solve-even-p requires --k and --lk")
    gold, inputs = _load_gold(args)
    k = int(args.k) if args.k.is_integer() else args.k  # StationarityProblem refuses the rest
    prob = StationarityProblem(gold=gold, k=k, lk=args.lk, objective=args.objective)
    state = solve(prob, seed=args.seed, max_iters=args.max_iters)
    results = {
        "k": k,
        "lk": args.lk,
        "objective": args.objective,
        "ccc": state.ccc_value,
        "objective_value": state.objective_value,
        "sigma_gd": state.sigma_gd,
        "multiplier": state.multiplier,
        "residual_norm": state.residual_norm,
        "iterations": state.iterations,
        "errors": state.d,
    }
    if k == 2:
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
    return {"inputs": inputs, "results": results}


def cmd_loss(args) -> dict:
    import numpy as np

    from .losses import TRACE_COLUMNS, LossParams, loss, loss_gradient, training_trace

    cols = _load_columns(args, [("gold", args.gold_col), ("pred", args.pred_col)])
    gold, pred = cols["gold"], cols["pred"]
    params = LossParams(variant=args.variant, gamma=args.gamma, alpha=args.alpha, beta=args.beta)
    inputs = {"gold": _digest_of(gold), "pred": _digest_of(pred)}
    grad = loss_gradient(params, gold, pred)
    results = {
        "variant": args.variant,
        "gamma": args.gamma,
        "alpha": args.alpha,
        "beta": args.beta,
        "loss": loss(params, gold, pred),
        "gradient_max_abs": float(np.max(np.abs(grad))),
        "gradient": grad,
    }
    report = {"inputs": inputs, "results": results}
    if args.trace_iters is not None:
        if args.trace_step is None:
            raise InvalidInput("--trace-iters requires --trace-step")
        trace = training_trace(params, gold, pred, args.trace_step, args.trace_iters)
        last = trace.rows[-1]
        results["trace"] = {
            "rows": int(trace.rows.shape[0]),
            "diverged": trace.diverged,
            "final_loss": float(last[1]),
            "final_mse": float(last[2]),
            "final_ccc": float(last[3]),
        }
        if args.out is not None:
            _write_csv(args.out, TRACE_COLUMNS, trace.rows)
            report["out"] = args.out
    return report


def cmd_region(args) -> dict | None:
    if args.kind == "mse":
        from .mse_bounds import MSE_REGION_COLUMNS, mse_region_table

        rows = mse_region_table(args.x_max, args.steps)
        _write_csv(args.out, MSE_REGION_COLUMNS, rows)
    else:
        from .lk_bounds import lk_region_columns, lk_region_table

        if args.k is None or args.n is None:
            raise InvalidInput("region --kind lk requires --k and --n")
        rows, thetas = lk_region_table(
            args.k, args.n, args.x_max, args.steps, args.theta_steps
        )
        _write_csv(args.out, lk_region_columns(thetas), rows)
    return None  # CSV is the entire output


def cmd_audit(args) -> dict:
    if args.oracle == "permutation":
        from .ordering import optimal_permutations

        gold, errors, inputs = _load_errors(args)
        orderings, rows, agrees = _permutation_audit(
            gold, errors, optimal_permutations(gold, errors)
        )
        results = {"oracle": "permutation", "orderings": orderings}
        for name, oracle, closed in rows:
            results[f"oracle_{name}"] = oracle
            results[f"closed_form_{name}"] = closed
        return {"inputs": inputs, "results": {**results, "agrees": agrees}}
    if args.oracle == "mse-sphere":
        from .mse_bounds import bounds_given_mse
        from .oracles import mse_sphere_oracle

        if args.mse is None:
            raise InvalidInput("audit mse-sphere requires --mse")
        gold, inputs = _load_gold(args)
        oracle = mse_sphere_oracle(gold.gold, args.mse, args.trials, args.seed)
        bounds = bounds_given_mse(gold, args.mse)
        params, x, lower, upper = {}, bounds.x_param, bounds.ccc_min, bounds.ccc_max
    else:  # lk-sphere
        from .lk_bounds import envelope_given_lk
        from .oracles import lk_sphere_oracle

        if args.k is None or args.lk is None:
            raise InvalidInput("audit lk-sphere requires --k and --lk")
        gold, inputs = _load_gold(args)
        oracle = lk_sphere_oracle(gold.gold, args.k, args.lk, args.trials, args.seed)
        env = envelope_given_lk(args.k, gold.n, args.lk, gold.sigma_g)
        params, x, lower, upper = {"k": args.k, "lk": args.lk}, env.x, env.ccc_lower, env.ccc_upper
    best, worst, slack = oracle.best_value, oracle.worst_value, TOL.oracle_slack
    results = {
        "oracle": args.oracle,
        "trials": oracle.trials,
        **params,
        "x": x,
        "best": best,
        "worst": worst,
        "envelope_upper": upper,
        "envelope_lower": lower,
        "bounds_respected": best <= upper + slack and worst >= lower - slack,
    }
    return {"inputs": inputs, "results": results}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    from .variants import VARIANTS

    parser = argparse.ArgumentParser(
        prog="cccmap",
        description="Concordance correlation vs. error-norm analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"cccmap {__version__}")
    # flags of the verbs that read an input table; the rest are added per verb
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--input", default="-", help="input file path, or - for stdin")
    table.add_argument("--format", choices=("csv", "tsv", "plain"), default="csv")
    table.add_argument("--gold-col", default="0", help="gold column (index or name)")
    table.add_argument("--header", action="store_true", help="first row is a header")
    table.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    table.add_argument("--seed", type=int, default=0)

    def flag(*names, **kwargs) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    pred_col = flag("--pred-col", default="1", help="prediction column (index or name)")
    error_col = flag("--error-col", default="1", help="error column (index or name)")
    out = flag("--out", default=None, help="CSV output path for tabular data")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[table, pred_col], help="full pair statistics")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bounds-mse", parents=[table, out], help="ccc range at fixed mse")
    p.add_argument("--mse", type=float, default=None)
    p.set_defaults(func=cmd_bounds_mse)

    p = sub.add_parser("bounds-lk", parents=[table], help="ccc range at fixed L_k norm")
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--lk", type=float, default=None)
    p.add_argument("--theta-steps", type=int, default=4)
    p.set_defaults(func=cmd_bounds_lk)

    p = sub.add_parser(
        "permute", parents=[table, error_col, out], help="ccc-extreme error orderings"
    )
    p.add_argument("--audit", action="store_true", help="append N! enumeration check")
    p.set_defaults(func=cmd_permute)

    p = sub.add_parser(
        "solve-even-p", parents=[table], help="ccc extremum at fixed L_k, even k"
    )
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--lk", type=float, default=None)
    p.add_argument("--objective", choices=("max", "min"), default="max")
    p.add_argument("--max-iters", type=int, default=400, help="cap on each root-find's iterations")
    p.set_defaults(func=cmd_solve_even_p)

    p = sub.add_parser(
        "loss", parents=[table, pred_col, out], help="loss family values and traces"
    )
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=int, default=0)
    p.add_argument("--trace-iters", type=int, default=None)
    p.add_argument("--trace-step", type=float, default=None)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("region", parents=[out], help="envelope plot data as CSV")
    p.add_argument("--kind", choices=("mse", "lk"), required=True)
    p.add_argument("--x-max", type=float, default=4.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--theta-steps", type=int, default=4)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("audit", parents=[table, error_col], help="run a brute-force oracle")
    p.add_argument("oracle", choices=("permutation", "mse-sphere", "lk-sphere"))
    p.add_argument("--mse", type=float, default=None)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--lk", type=float, default=None)
    p.add_argument("--trials", type=int, default=10_000)
    p.set_defaults(func=cmd_audit)

    return parser


#: The variables OpenBLAS reads for its thread count, in its order of precedence.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main(argv=None) -> int:
    if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads OpenBLAS
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        from .stats import _count  # every verb loads stats

        _count(getattr(args, "seed", 0), "seed", 0)  # one check for every verb that takes --seed
        body = args.func(args)
    except INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except NUMERIC_ERRORS as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERIC
    if body is not None:  # every verb that returns a report takes --seed
        header = {"command": args.command, "version": __version__, "seed": args.seed}
        _emit_report({**header, **body}, args.json)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
