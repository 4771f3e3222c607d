"""Output checks for every benchmark op.

Each check compares what cccmap returned or printed with a reference computed
here from the generated arrays, with numpy and ``math.fsum`` only, never with
cccmap functions. Tolerances come from ``cccmap.tolerances.TOL``. A check that
does not hold raises ``CheckFailed``; the op then counts as failed.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np
from cccmap.tolerances import TOL


class CheckFailed(Exception):
    pass


def require(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def close(got, want, rtol: float, scale: float = 0.0) -> bool:
    got, want = float(got), float(want)
    return math.isfinite(got) and abs(got - want) <= rtol * max(abs(got), abs(want), scale)


def require_close(name: str, got, want, rtol: float, scale: float = 0.0) -> None:
    require(close(got, want, rtol, scale), f"{name}: got {got!r}, reference {want!r}")


def require_all_close(name: str, got, want, rtol: float, scale) -> None:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    require(got.shape == want.shape, f"{name}: shape {got.shape}, reference {want.shape}")
    bad = ~(np.abs(got - want) <= rtol * np.maximum(np.maximum(np.abs(got), np.abs(want)), scale))
    require(not bad.any(), f"{name}: {int(bad.sum())} of {bad.size} entries off the reference")


# ---------------------------------------------------------------------------
# references


def moments(x: np.ndarray, y: np.ndarray) -> dict[str, float]:
    """Two-pass population moments of a pair, and the scores built on them."""
    n = x.size
    mx, my = float(x.mean()), float(y.mean())
    dx, dy = x - mx, y - my
    vx, vy = float(dx @ dx) / n, float(dy @ dy) / n
    cov = float(dx @ dy) / n
    d = x - y
    sx, sy = math.sqrt(vx), math.sqrt(vy)
    denom = vx + vy + (mx - my) ** 2
    return {
        "n": n, "mu_x": mx, "mu_y": my, "var_x": vx, "var_y": vy, "cov": cov,
        "pearson": cov / (sx * sy), "c_b": 2.0 * sx * sy / denom,
        "ccc": 2.0 * cov / denom, "mse": float(d @ d) / n, "mae": float(np.abs(d).mean()),
        "shift": (mx - my) / math.sqrt(sx * sy), "scale": sx / sy,
    }


def envelope(t: float) -> float:
    return 2.0 * t / (1.0 + t * t)


def mse_envelopes(mse: float, var_g: float) -> tuple[float, float, float]:
    """(x, upper, lower): the ccc range at a fixed mse."""
    x = math.sqrt(mse / var_g)
    return x, envelope(1.0 + x), envelope(1.0 - x)


def lk_envelopes(k: float, n: int, lk: float, sigma_g: float) -> tuple[float, float, float]:
    """(x, upper, lower): the outer ccc bounds at a fixed L_k norm."""
    tmax = float(n) ** (abs(k - 2.0) / (2.0 * k))
    x = (lk / math.sqrt(n) if k >= 2 else lk / float(n) ** (1.0 / k)) / sigma_g
    if x <= 2.0 / tmax:
        lower = envelope(1.0 - tmax * x)
    elif x <= 2.0:
        lower = -1.0
    else:
        lower = envelope(1.0 - x)
    return x, envelope(1.0 + x), lower


def extreme_predictions(gold: np.ndarray, errors: np.ndarray) -> dict[str, np.ndarray]:
    """The four rearrangement extremes: errors sorted like or opposite to the gold."""
    order = np.argsort(gold)
    if np.any(np.diff(gold[order]) == 0.0):  # ties: only a stable sort fixes their order
        order = np.argsort(gold, kind="stable")
    asc = np.sort(errors)
    same, opp = np.empty_like(asc), np.empty_like(asc)
    same[order] = asc
    opp[order] = asc[::-1]
    return {
        "max_add": gold + same, "min_add": gold + opp,
        "max_sub": gold - opp, "min_sub": gold - same,
    }


def abs_mse_over_cov(gold: np.ndarray, pred: np.ndarray) -> tuple[float, np.ndarray]:
    """|mse/cov| and its gradient with respect to the prediction."""
    n = gold.size
    gz = gold - gold.mean()
    cov = float(gz @ (pred - pred.mean())) / n
    err = pred - gold
    mse = float(err @ err) / n
    inner = mse / cov
    grad = (2.0 * err / n) / cov - mse * (gz / n) / (cov * cov)
    return abs(inner), math.copysign(1.0, inner) * grad


# ---------------------------------------------------------------------------
# CLI outputs


def parse_json(stdout: bytes) -> dict:
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from exc


def parse_csv(text: bytes, header: tuple[str, ...], n: int) -> np.ndarray:
    lines = text.decode("utf-8").split("\n")
    require(lines[0] == ",".join(header), f"CSV header {lines[0]!r}")
    try:
        table = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise CheckFailed(f"CSV body does not parse: {exc}") from exc
    require(table.shape == (n, len(header)), f"CSV shape {table.shape}, want {(n, len(header))}")
    return table


def check_analyze(stdout: bytes, gold: np.ndarray, pred: np.ndarray) -> None:
    res = parse_json(stdout)["results"]
    ref = moments(gold, pred)
    tol = TOL.algebraic_rtol
    require(res["n"] == gold.size, f"n = {res['n']}")
    spread = ref["var_x"] + ref["var_y"]
    for key, want, scale in (
        ("mu_gold", ref["mu_x"], 0.0), ("mu_pred", ref["mu_y"], 0.0),
        ("var_gold", ref["var_x"], 0.0), ("var_pred", ref["var_y"], 0.0),
        ("cov", ref["cov"], spread), ("mse", ref["mse"], spread), ("mae", ref["mae"], 0.0),
        ("pearson", ref["pearson"], 1.0), ("ccc", ref["ccc"], 1.0),
        ("accuracy_coefficient", ref["c_b"], 1.0), ("shift_penalty", ref["shift"], 1.0),
        ("scale_penalty", ref["scale"], 1.0),
    ):
        require_close(key, res[key], want, tol, scale)
    require_close("ccc_via_mse_map", res["ccc_via_mse_map"], res["ccc"], tol, 1.0)
    require(abs(res["variance_identity_residual"]) <= tol * spread, "variance identity residual")


PERMUTE_COLUMNS = (
    "gold", "pred_max_add", "pred_max_sub", "pred_min_add", "pred_min_sub", "max_pred_difference"
)


def check_permute(stdout: bytes, csv_bytes: bytes, gold: np.ndarray, errors: np.ndarray) -> None:
    table = parse_csv(csv_bytes, PERMUTE_COLUMNS, gold.size)
    require(np.array_equal(table[:, 0], gold), "CSV gold column differs from the input")
    want = np.sort(errors)
    scale = np.abs(gold).max() + np.abs(errors).max()
    refs = extreme_predictions(gold, errors)
    res = parse_json(stdout)["results"]
    for j, key in enumerate(("max_add", "max_sub", "min_add", "min_sub"), start=1):
        pred = table[:, j]
        implied = pred - gold if key.endswith("add") else gold - pred
        require_all_close(f"{key} errors", np.sort(implied), want, TOL.algebraic_rtol, scale)
        require_all_close(f"{key} prediction", pred, refs[key], TOL.algebraic_rtol, scale)
        ccc = moments(gold, pred)["ccc"]
        require_close(f"{key} ccc", res[key]["ccc"], ccc, TOL.algebraic_rtol, 1.0)
        require_close(f"{key} closed form", res[key]["ccc_closed_form"], ccc, TOL.attainment_rtol, 1.0)
    require_all_close("max_pred_difference", table[:, 5], table[:, 1] - table[:, 2], 0.0, 0.0)


BOUNDS_MSE_COLUMNS = ("gold", "err_max", "err_min", "pred_max", "pred_min")


def check_bounds_mse(stdout: bytes, csv_bytes: bytes, gold: np.ndarray, mse: float) -> None:
    table = parse_csv(csv_bytes, BOUNDS_MSE_COLUMNS, gold.size)
    require(np.array_equal(table[:, 0], gold), "CSV gold column differs from the input")
    for j, key in ((1, "err_max"), (2, "err_min")):
        mean_square = math.fsum((table[:, j] ** 2).tolist()) / gold.size
        require_close(f"mean square of {key}", mean_square, mse, TOL.algebraic_rtol)
    gz = gold - gold.mean()
    x, upper, lower = mse_envelopes(mse, float(gz @ gz) / gold.size)
    scale = x * np.abs(gz).max()
    require_all_close("err_max", table[:, 1], x * gz, TOL.algebraic_rtol, scale)
    require_all_close("pred_max", table[:, 3], gold + table[:, 1], TOL.algebraic_rtol, 0.0)
    require_all_close("pred_min", table[:, 4], gold + table[:, 2], TOL.algebraic_rtol, 0.0)
    res = parse_json(stdout)["results"]
    require_close("x", res["x"], x, TOL.algebraic_rtol)
    require_close("ccc_max", res["ccc_max"], upper, TOL.algebraic_rtol, 1.0)
    require_close("ccc_min", res["ccc_min"], lower, TOL.algebraic_rtol, 1.0)


def check_loss(stdout: bytes, gold: np.ndarray, pred: np.ndarray) -> None:
    res = parse_json(stdout)["results"]
    value, grad = abs_mse_over_cov(gold, pred)
    require_close("loss", res["loss"], value, TOL.algebraic_rtol)
    scale = float(np.abs(grad).max())
    require_all_close("gradient", res["gradient"], grad, TOL.algebraic_rtol, scale)
    require_close("gradient_max_abs", res["gradient_max_abs"], scale, TOL.algebraic_rtol)


# ---------------------------------------------------------------------------
# library results


def check_kernel_bundle(out: dict, gold: np.ndarray, pred: np.ndarray, errors: np.ndarray,
                        mse: float, k: int, lk: float) -> None:
    tol = TOL.algebraic_rtol
    ref = moments(gold, pred)
    spread = ref["var_x"] + ref["var_y"]
    st = out["pair_stats"]
    require(st.n == gold.size, "pair_stats n")
    for key, got, want, scale in (
        ("mu_x", st.mu_x, ref["mu_x"], 0.0), ("var_x", st.var_x, ref["var_x"], 0.0),
        ("var_y", st.var_y, ref["var_y"], 0.0), ("cov_xy", st.cov_xy, ref["cov"], spread),
        ("mse", st.mse, ref["mse"], spread), ("pearson", st.pearson, ref["pearson"], 1.0),
        ("pair_stats.ccc", st.ccc, ref["ccc"], 1.0), ("ccc", out["ccc"], ref["ccc"], 1.0),
    ):
        require_close(key, got, want, tol, scale)

    var_g = ref["var_x"]
    x, upper, lower = mse_envelopes(mse, var_g)
    bounds = out["bounds"]
    require_close("bounds x", bounds.x_param, x, tol)
    require_close("ccc_max", bounds.ccc_max, upper, tol, 1.0)
    require_close("ccc_min", bounds.ccc_min, lower, tol, 1.0)
    require_close("err_max mean square", float(bounds.err_max @ bounds.err_max) / gold.size, mse, tol)

    refs = extreme_predictions(gold, errors)
    ext = out["extremes"]
    scale = float(np.abs(gold).max() + np.abs(errors).max())
    for key in ("max_add", "max_sub", "min_add", "min_sub"):
        result = getattr(ext, key)
        require_all_close(f"{key} prediction", result.prediction, refs[key], tol, scale)
        ccc = moments(gold, refs[key])["ccc"]
        require_close(f"{key} ccc", result.ccc_value, ccc, tol, 1.0)
        require_close(f"{key} closed form", result.formula_value, ccc, TOL.attainment_rtol, 1.0)

    value, grad = abs_mse_over_cov(gold, pred)
    require_close("loss", out["loss"], value, tol)
    require_all_close("loss gradient", out["gradient"], grad, tol, float(np.abs(grad).max()))

    _, up, lo = lk_envelopes(k, gold.size, lk, math.sqrt(var_g))
    env = out["envelope"]
    require_close("lk ccc_upper", env.ccc_upper, up, tol, 1.0)
    require_close("lk ccc_lower", env.ccc_lower, lo, tol, 1.0)


def check_solve(state, gold: np.ndarray, k: int, lk: float, objective: str) -> None:
    require(state.residual_norm <= TOL.residual_tol, f"residual {state.residual_norm:.3e}")
    d = np.asarray(state.d)
    norm = math.fsum((d**k).tolist()) ** (1.0 / k)
    require_close("L_k norm of the solution", norm, lk, TOL.constraint_rtol)
    ccc = moments(gold, gold + d)["ccc"]
    require_close("solution ccc", state.ccc_value, ccc, TOL.iterative_rtol, 1.0)
    n = gold.size
    gz = gold - gold.mean()
    var_g = float(gz @ gz) / n
    if k == 2:
        _, upper, lower = mse_envelopes(lk * lk / n, var_g)
        want = upper if objective == "max" else lower
        require_close("k=2 solution vs closed-form bound", state.ccc_value, want, TOL.iterative_rtol, 1.0)
    else:
        _, upper, lower = lk_envelopes(k, n, lk, math.sqrt(var_g))
        require(lower - TOL.oracle_slack <= state.ccc_value <= upper + TOL.oracle_slack,
                "solution ccc outside the L_k envelope")


def check_permutation_oracle(report, gold: np.ndarray, errors: np.ndarray, convention: str) -> None:
    require(report.trials == math.factorial(gold.size), f"trials {report.trials}")
    refs = extreme_predictions(gold, errors)
    side = "add" if convention == "pred_minus_gold" else "sub"
    best = moments(gold, refs[f"max_{side}"])["ccc"]
    worst = moments(gold, refs[f"min_{side}"])["ccc"]
    require_close("oracle best", report.best_value, best, TOL.attainment_rtol, 1.0)
    require_close("oracle worst", report.worst_value, worst, TOL.attainment_rtol, 1.0)
    require_close("best witness", moments(gold, report.witness_best)["ccc"], report.best_value,
                  TOL.algebraic_rtol, 1.0)


def check_sphere_oracle(report, gold: np.ndarray, trials: int, k: float, radius: float,
                        lower: float, upper: float) -> None:
    """Extremes inside [lower, upper]; witnesses on the L_k sphere of the given radius."""
    require(report.trials == trials, f"trials {report.trials}")
    require(report.best_value <= upper + TOL.oracle_slack, "best above the upper envelope")
    require(report.worst_value >= lower - TOL.oracle_slack, "worst below the lower envelope")
    for name, wit, value in (("best", report.witness_best, report.best_value),
                             ("worst", report.witness_worst, report.worst_value)):
        norm = math.fsum(np.abs(wit) ** k) ** (1.0 / k)
        require_close(f"{name} witness norm", norm, radius, TOL.iterative_rtol)
        require_close(f"{name} witness ccc", moments(gold, gold + wit)["ccc"], value,
                      TOL.algebraic_rtol, 1.0)


def check_training_trace(trace, gold: np.ndarray, iters: int) -> None:
    rows = trace.rows
    require(not trace.diverged, "trace diverged")
    require(rows.shape[1] == 4 and 2 <= rows.shape[0] <= iters + 1, f"trace shape {rows.shape}")
    require(np.all(np.diff(rows[:, 1]) <= 0.0), "trace loss increased")
    final = moments(gold, trace.final_pred)
    require_close("final mse", rows[-1, 2], final["mse"], TOL.algebraic_rtol)
    require_close("final ccc", rows[-1, 3], final["ccc"], TOL.algebraic_rtol, 1.0)
