"""Tests of the benchmark itself: seeded inputs, output checks and span arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import re
import subprocess
import sys

import numpy as np
import pytest

import checkout

checkout.use_checkout_src()

import checks  # noqa: E402  (needs the checkout's src on the path)
import cliops  # noqa: E402
import inputs  # noqa: E402
import libops  # noqa: E402
import pacing  # noqa: E402
import spans  # noqa: E402


def _cli(args: list[str]) -> bytes:
    import cccmap.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cccmap.cli.main(args) == 0
    return out.getvalue().encode()


def _file_bytes(cycle) -> dict[str, bytes]:
    return {op.kind: open(op.args[op.args.index("--input") + 1], "rb").read() for op in cycle}


# ---------------------------------------------------------------------------
# seeded inputs


def test_same_seed_same_input_bytes_other_seed_other_bytes(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first, again, other = (_file_bytes(cliops.cycle_ops(seed, d)) for seed, d in zip((3, 3, 4), dirs))
    assert first == again
    assert all(first[kind] != other[kind] for kind in first)


def test_library_inputs_follow_the_seed():
    a, b, c = (libops._kernel_inputs(seed, 5, 1_000) for seed in (3, 3, 4))
    assert all(np.array_equal(a[key], b[key]) for key in ("gold", "pred", "errors"))
    assert not np.array_equal(a["gold"], c["gold"])


def test_library_cycles_draw_distinct_inputs():
    first, second = libops.cycle_ops(3, 0), libops.cycle_ops(3, 1)
    assert [op.kind for op in first] == [op.kind for op in second]
    assert not np.array_equal(first[0].make()["gold"], second[0].make()["gold"])
    assert not np.array_equal(first[-1].make()["gold"], second[-1].make()["gold"])


def test_a_run_holds_whole_cycles_lasting_about_the_given_time(monkeypatch):
    clock = iter(range(0, 100, 3))  # every cycle takes 3 s
    monkeypatch.setattr(pacing, "perf_counter", lambda: next(clock))
    assert list(pacing.cycles_within(10)) == [0, 1, 2]  # 9 s is nearer 10 than 12 is
    assert list(pacing.cycles_within(1)) == [0]


def test_cells_are_plain_decimals_the_cli_accepts():
    values = np.array([np.float64(0.1), -2.5e-300, 3.0, 1.0 / 3.0])
    text = inputs.table_text({"x": values}, "csv", True)
    assert text == "x\n0.10000000000000001\n-2.5e-300\n3\n0.33333333333333331\n"
    assert [float(cell) for cell in text.split()[1:]] == values.tolist()


# ---------------------------------------------------------------------------
# corrupted outputs count as failures


@pytest.fixture()
def table(tmp_path):
    cols = inputs.gold_pred_errors(inputs.rng_for(11, inputs.STREAM_PAIR), 300)
    path = tmp_path / "t.csv"
    inputs.write_table(path, cols)
    return path, cols


def test_analyze_check_rejects_one_flipped_digit(table):
    path, cols = table
    out = _cli(["analyze", "--json", "--input", str(path)])
    checks.check_analyze(out, cols["gold"], cols["pred"])
    text = out.decode()
    m = re.search(r'"ccc":-?0\.(\d{3})', text)
    pos = m.start(1) + 2
    flipped = text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1:]
    with pytest.raises(checks.CheckFailed, match="ccc"):
        checks.check_analyze(flipped.encode(), cols["gold"], cols["pred"])


def test_permute_check_rejects_a_dropped_csv_row(table, tmp_path):
    path, cols = table
    out_csv = tmp_path / "p.csv"
    out = _cli(["permute", "--json", "--input", str(path), "--error-col", "2", "--out", str(out_csv)])
    body = out_csv.read_bytes()
    checks.check_permute(out, body, cols["gold"], cols["errors"])
    lines = body.split(b"\n")
    dropped = b"\n".join(lines[:5] + lines[6:])
    with pytest.raises(checks.CheckFailed, match="CSV shape"):
        checks.check_permute(out, dropped, cols["gold"], cols["errors"])


def test_a_failed_check_is_recorded_against_the_op():
    op = libops.Op("broken", lambda: {}, lambda cm, d: 1.0,
                   lambda d, out: checks.require(out == 2.0, "wrong value"))
    [record], traced = libops.run([op], cm=None)
    assert traced == []
    assert record[0] == "broken" and "wrong value" in record[3]


# ---------------------------------------------------------------------------
# spans


def _toy_spans():
    # root [0,100] > a [10,40] > a2 [15,25];  root > b [50,70]
    return {
        "start": np.array([0, 10, 15, 50], dtype=np.int64),
        "end": np.array([100, 40, 25, 70], dtype=np.int64),
        "parent": np.array([-1, 0, 1, 0], dtype=np.int32),
        "name": np.array([0, 1, 1, 2], dtype=np.int32),
        "op": np.zeros(4, dtype=np.int32),
        "amount": np.zeros(4),
        "names": np.array(["root.f", "inner.g", "other.h"]),
        "layers": np.array(["root", "inner", "other"]),
    }


def test_self_time_subtracts_direct_children_only():
    toy = _toy_spans()
    assert spans.self_ns(toy).tolist() == [50, 20, 10, 20]
    assert spans.layer_self_ms(toy, ops=1) == {"root": 50e-6, "inner": 30e-6, "other": 20e-6}


def test_a_nested_call_of_the_same_layer_counts_once():
    assert spans.outermost(_toy_spans()).tolist() == [True, True, False, True]


def test_concat_reindexes_parents():
    toy = _toy_spans()
    both = spans.concat([toy, toy])
    assert both["parent"].tolist() == [-1, 0, 1, 0, -1, 4, 5, 4]
    assert spans.self_ns(both).tolist() == [50, 20, 10, 20] * 2


def test_traced_launch_records_ingest_render_and_kernel_spans(table, tmp_path):
    path, _ = table
    spans_path = tmp_path / "s.npz"
    argv = [sys.executable, str(cliops.LAUNCHER), str(spans_path), "0", "--", "analyze", "--json",
            "--input", str(path)]
    done = subprocess.run(argv, capture_output=True, env=checkout.child_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    data = spans.load(spans_path)
    names = set(data["names"][data["name"]].tolist())
    assert {"cli.main", "cli._load_columns", "cli._emit_report", "stats.pair_stats"} <= names
    metrics = spans.layer_metrics(data, ops=1)
    assert metrics["stats.calls"] >= 1 and metrics["cli.ingest_rows_per_s"] > 0
