"""End-to-end tests of the command-line surface via subprocess, and of the
table loader in process against a frozen copy of its per-line reference."""

import contextlib
import csv
import decimal
import io
import itertools
import json
import math
import re
import subprocess
import sys
import tempfile
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cccmap import cli
from cccmap.errors import InvalidInput
from cccmap.stats import as_sequence

CLI = [sys.executable, "-m", "cccmap.cli"]


def run(args, stdin=""):
    return subprocess.run(
        CLI + args, input=stdin, capture_output=True, text=True, timeout=120
    )


def write_csv(path, rows, header=None):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header:
            writer.writerow(header)
        writer.writerows(rows)


class TestAnalyze:
    def test_identity_input(self):
        proc = run(["analyze", "--format", "csv", "--json"], stdin="1,1\n2,2\n3,3\n")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["results"]["ccc"] == 1.0
        assert report["results"]["mse"] == 0.0

    def test_shifted_triple_both_routes(self):
        proc = run(["analyze", "--json"], stdin="1,2\n2,3\n3,4\n")
        report = json.loads(proc.stdout)
        assert report["results"]["ccc"] == pytest.approx(4 / 7, rel=1e-12)
        assert report["results"]["ccc_via_mse_map"] == pytest.approx(4 / 7, rel=1e-12)
        assert abs(report["results"]["variance_identity_residual"]) <= 1e-12

    def test_nan_rejected_with_line_number(self):
        proc = run(["analyze"], stdin="1,2\n2,nan\n3,4\n")
        assert proc.returncode == 2
        assert "line 2" in proc.stderr

    def test_line_numbers_count_blank_lines(self):
        proc = run(["analyze"], stdin="1,2\n\n\n2,x\n")
        assert proc.returncode == 2
        assert "line 4:" in proc.stderr
        proc = run(["analyze", "--header"], stdin="a,b\n\n1,2\n\n2\n")
        assert proc.returncode == 2
        assert "line 5:" in proc.stderr

    def test_header_and_named_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, [[1, 2], [2, 3], [3, 4]], header=["truth", "model"])
        proc = run(
            [
                "analyze",
                "--input", str(path),
                "--header",
                "--gold-col", "truth",
                "--pred-col", "model",
                "--json",
            ]
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["mse"] == 1.0

    def test_cell_past_float64_names_the_line(self):
        proc = run(["analyze"], stdin="1e400,1\n2,2\n3,5\n")
        assert (proc.returncode, proc.stderr) == (2, "error: line 1: '1e400' is beyond float64\n")
        proc = run(["analyze", "--format", "plain"], stdin="1 1\n2 2\n3 -1e400\n")
        assert (proc.returncode, proc.stderr) == (2, "error: line 3: '-1e400' is beyond float64\n")

    def test_underscore_float_rejected(self):
        proc = run(["analyze"], stdin="1_0,2\n2,3\n")
        assert proc.returncode == 2

    def test_non_ascii_digit_names_the_line(self):
        # an Arabic-Indic one is a Unicode decimal digit but not a plain decimal
        proc = run(["analyze", "--json"], stdin="\u0661,2\n2,3\n3,5\n")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "line 1" in proc.stderr

    def test_non_ascii_digit_selector_is_a_header_name(self):
        # an Arabic-Indic one names a column; it is not the index 1
        stdin = "\u0661,b\n1,2\n2,3\n3,5\n"
        by_name = run(["analyze", "--json", "--header", "--gold-col", "\u0661", "--pred-col", "b"],
                      stdin=stdin)
        by_index = run(["analyze", "--json", "--header", "--gold-col", "0", "--pred-col", "1"],
                       stdin=stdin)
        assert by_name.returncode == 0 and by_name.stdout == by_index.stdout
        missing = run(["analyze", "--json", "--header", "--gold-col", "\u0661", "--pred-col", "0"],
                      stdin="a,b\n1,2\n2,3\n3,5\n")
        assert missing.returncode == 2 and missing.stdout == ""
        assert "not found in header" in missing.stderr

    def test_crlf_input_accepted(self):
        proc = run(["analyze", "--json"], stdin="1,2\r\n2,3\r\n3,4\r\n")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["mse"] == 1.0

    @pytest.mark.parametrize("fmt, stdin", [
        ("csv", "1\r2,3\n4,5\n6,7\n"),
        ("tsv", "1\r2\t3\n4\t5\n6\t7\n"),
    ])
    def test_bare_carriage_return_names_the_line(self, fmt, stdin):
        proc = run(["analyze", "--format", fmt], stdin=stdin)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: line 1:") and "Traceback" not in proc.stderr

    def test_cell_past_the_csv_field_limit_names_the_line(self):
        proc = run(["analyze"], stdin="1,2\n" + "1" * 200_000 + ",2\n3,5\n")
        assert proc.returncode == 2
        assert proc.stderr == "error: line 2: field larger than field limit (131072)\n"

    def test_header_cell_past_the_csv_field_limit_names_the_line(self):
        proc = run(["analyze", "--header"], stdin="\n" + "a" * 200_000 + ",b\n1,2\n2,3\n")
        assert proc.returncode == 2
        assert proc.stderr == "error: line 2: field larger than field limit (131072)\n"

    def test_non_utf8_bytes_name_the_line_from_a_file_and_from_stdin(self, tmp_path):
        data = b"1,2\n\xff,3\n4,5\n"
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        from_stdin = subprocess.run(CLI + ["analyze"], input=data, capture_output=True)
        from_file = subprocess.run(CLI + ["analyze", "--input", str(path)], capture_output=True)
        for proc in (from_stdin, from_file):
            assert proc.returncode == 2
            assert proc.stderr.startswith(b"error: line 2: ") and b"Traceback" not in proc.stderr
        assert from_file.stderr == from_stdin.stderr

    @pytest.mark.parametrize("stdin, line", [
        ('"1,2\n3,4\n5,6\n', 1),
        ('1,2\n\n3,"4\n5,6\n', 3),
        ('1,2\n3,4\n"5,6\n', 3),
        ('"1\n2",3\n4,5\n', 1),  # closed, but on a later line
    ])
    def test_unterminated_quote_names_its_line(self, stdin, line):
        proc = run(["analyze"], stdin=stdin)
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: line {line}: unterminated quoted cell (a quoted cell must close on its line)\n"
        )

    def test_quoted_cells_still_parse(self):
        proc = run(["analyze", "--json"], stdin='"1.5",2\n2," 3"\n"3",4\n')
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["mu_gold"] == pytest.approx(6.5 / 3)


class TestBoundsMse:
    def test_variance_level_bounds(self):
        proc = run(
            ["bounds-mse", "--format", "plain", "--mse", "0.6666666666666666", "--json"],
            stdin="1\n2\n3\n",
        )
        results = json.loads(proc.stdout)["results"]
        assert results["x"] == pytest.approx(1.0, rel=1e-12)
        assert results["ccc_max"] == pytest.approx(0.8, abs=1e-15)
        assert results["ccc_min"] == pytest.approx(0.0, abs=1e-15)

    def test_zero_mse(self):
        proc = run(["bounds-mse", "--format", "plain", "--mse", "0", "--json"], stdin="1\n2\n3\n")
        results = json.loads(proc.stdout)["results"]
        assert results["ccc_max"] == 1.0 and results["ccc_min"] == 1.0

    def test_large_mse_against_tiny_gold_variance(self):
        proc = run(["bounds-mse", "--format", "plain", "--mse", "1e10", "--json"],
                   stdin="1e-150\n2e-150\n3e-150\n")
        assert proc.returncode == 0 and proc.stderr == ""
        results = json.loads(proc.stdout)["results"]
        assert results["x"] == pytest.approx(1.5**0.5 * 1e155, rel=1e-12)
        assert results["ccc_max"] == pytest.approx(2.0 / results["x"], rel=1e-12)
        assert results["ccc_min"] == pytest.approx(-2.0 / results["x"], rel=1e-12)

    def test_constant_gold_numeric_exit(self):
        proc = run(["bounds-mse", "--format", "plain", "--mse", "1"], stdin="2\n2\n2\n")
        assert proc.returncode == 3

    def test_attaining_vectors_csv(self, tmp_path):
        out = tmp_path / "vectors.csv"
        proc = run(
            ["bounds-mse", "--format", "plain", "--mse", "0.6666666666666666",
             "--out", str(out), "--json"],
            stdin="1\n2\n3\n",
        )
        assert proc.returncode == 0
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        preds = [float(r["pred_max"]) for r in rows]
        assert preds == pytest.approx([0.0, 2.0, 4.0], abs=1e-12)


class TestBoundsLk:
    def test_theta_max_for_mae_n64(self):
        gold = "\n".join(str(v) for v in range(64)) + "\n"
        proc = run(
            ["bounds-lk", "--format", "plain", "--k", "1", "--lk", "8", "--json"],
            stdin=gold,
        )
        results = json.loads(proc.stdout)["results"]
        assert results["theta_max"] == pytest.approx(8.0, rel=1e-12)
        assert len(results["lower_by_theta"]) == 4

    def test_zero_lk_emits_valid_json(self):
        # theta_at_min is infinite at x=0; strict JSON must render it null
        proc = run(
            ["bounds-lk", "--format", "plain", "--k", "1", "--lk", "0", "--json"],
            stdin="1\n2\n3\n4\n",
        )
        assert proc.returncode == 0
        results = json.loads(proc.stdout)["results"]
        assert results["theta_at_min"] is None
        assert results["ccc_upper"] == 1.0 and results["ccc_lower"] == 1.0


    def test_theta_at_min_past_float64_exits_2(self):
        # x > 0 but 2/x overflows: an error, not null after exit 0
        proc = run(
            ["bounds-lk", "--format", "plain", "--k", "4", "--lk", "1e-320", "--json"],
            stdin="1\n2\n3\n4\n",
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: theta_at_min overflows float64\n"


class TestPermute:
    @pytest.mark.parametrize(
        "verb, message",
        [("permute", "gold standard is constant"), ("analyze", "DegenerateVariance")],
    )
    def test_constant_gold_that_is_no_power_of_two(self, verb, message):
        # 18 copies of this value do not sum to 18 times it
        stdin = "".join(f"-2.0527140857596002,{i}\n" for i in range(18))
        proc = run([verb, "--json"], stdin=stdin)
        assert proc.returncode == 3 and proc.stdout == ""
        assert message in proc.stderr

    def test_zero_errors_reproduce_gold(self, tmp_path):
        out = tmp_path / "perm.csv"
        proc = run(
            ["permute", "--out", str(out), "--json"],
            stdin="1,0\n3,0\n2,0\n",
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["results"]["max_add"]["ccc"] == pytest.approx(1.0, abs=1e-15)
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert float(row["pred_max_add"]) == float(row["gold"])
            assert float(row["max_pred_difference"]) == 0.0

    def test_positive_errors_track_extremes(self):
        # near-zero smallest error: prediction 1 hugs the gold minimum,
        # prediction 2 hugs the maximum
        rng = np.random.default_rng(0)
        gold = rng.uniform(-1, 1, 8)
        errors = np.sort(rng.uniform(0.01, 0.5, 8))
        errors[0] = 1e-6
        stdin = "\n".join(f"{g},{e}" for g, e in zip(gold, errors)) + "\n"
        proc = run(["permute", "--json", "--audit"], stdin=stdin)
        report = json.loads(proc.stdout)
        assert report["results"]["audit"]["agrees"] is True

    def test_closed_form_of_a_tiny_ccc(self):
        # ccc near 1e-150: the exact mapping keeps it where an expanded 1 - mse/denom gave 0
        proc = run(["permute", "--json"], stdin="1,1e150\n2,-2e150\n3,3e150\n")
        assert proc.returncode == 0 and proc.stderr == ""
        for block in json.loads(proc.stdout)["results"].values():
            assert abs(block["ccc"]) == pytest.approx(5 / 7 * 1e-150, rel=1e-15, abs=0)
            assert block["ccc_closed_form"] == pytest.approx(block["ccc"], rel=1e-15, abs=0)

    @pytest.mark.parametrize("v", ["1.2e154", "1.3e154"])
    def test_closed_form_near_the_top_of_the_float_range(self, v, tmp_path):
        # var_g + cov(g, e) is past float64 here; the closed form must still match ccc
        out = tmp_path / "p.csv"
        proc = run(["permute", "--json", "--out", str(out)], stdin=f"-{v},-{v}\n{v},{v}\n")
        assert proc.returncode == 0 and proc.stderr == ""
        results = json.loads(proc.stdout)["results"]
        assert [results[k]["ccc"] for k in ("max_add", "max_sub", "min_add", "min_sub")] == [
            0.8, 0.8, 0.0, 0.0
        ]
        for block in results.values():
            assert block["ccc_closed_form"] == block["ccc"]
        assert len(out.read_text().splitlines()) == 3

    def test_audit_agreement_small_n(self):
        proc = run(["permute", "--json", "--audit"], stdin="1,0.5\n2,-1\n4,2\n0,0.1\n")
        report = json.loads(proc.stdout)
        audit = report["results"]["audit"]
        assert audit["orderings"] == 24
        assert audit["agrees"] is True


class TestSolveEvenP:
    def test_fractional_k_rejected(self):
        proc = run(
            ["solve-even-p", "--format", "plain", "--k", "3.5", "--lk", "1"],
            stdin="1\n2\n3\n",
        )
        assert proc.returncode == 2

    def test_odd_k_rejected(self):
        proc = run(
            ["solve-even-p", "--format", "plain", "--k", "3", "--lk", "1"],
            stdin="1\n2\n3\n",
        )
        assert proc.returncode == 2

    def test_k2_closed_form_agreement(self):
        proc = run(
            ["solve-even-p", "--format", "plain", "--k", "2", "--lk", "1.5",
             "--objective", "max", "--seed", "1", "--json"],
            stdin="1\n2\n3\n5\n",
        )
        assert proc.returncode == 0
        results = json.loads(proc.stdout)["results"]
        check = results["closed_form_check"]
        assert check["cosine_similarity"] >= 1 - 1e-6
        assert check["ccc_abs_error"] <= 1e-6
        assert results["residual_norm"] <= 1e-8


class TestLoss:
    def test_ratio_identity_zero(self):
        proc = run(["loss", "--variant", "ratio", "--json"], stdin="1,1\n2,2\n3,3\n")
        assert json.loads(proc.stdout)["results"]["loss"] == 0.0

    def test_trace_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        proc = run(
            ["loss", "--variant", "diff", "--alpha", "0", "--trace-iters", "10",
             "--trace-step", "0.05", "--out", str(out), "--json"],
            stdin="1,1.5\n2,2.5\n3,3.5\n",
        )
        assert proc.returncode == 0
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["iter"] for r in rows] == [str(i) for i in range(len(rows))]
        losses = [float(r["loss"]) for r in rows]
        assert losses == sorted(losses, reverse=True)

    @pytest.mark.parametrize("scale", ["e154", "e-160"])
    def test_abs_mse_over_cov_across_the_range(self, scale):
        stdin = "".join(f"{g}{scale},{p}{scale}\n" for g, p in ((1, 2), (2, 1), (3, 4)))
        proc = run(["loss", "--variant", "abs_mse_over_cov", "--json"], stdin=stdin)
        assert proc.returncode == 0 and "Warning" not in proc.stderr
        assert "null" not in proc.stdout
        results = json.loads(proc.stdout)["results"]
        assert results["loss"] == pytest.approx(1.5, rel=1e-15)
        assert np.all(np.isfinite(results["gradient"]))


class TestRegion:
    def test_mse_region_labeled_points(self):
        proc = run(["region", "--kind", "mse", "--x-max", "2", "--steps", "3"])
        assert proc.returncode == 0
        rows = list(csv.DictReader(proc.stdout.splitlines()))
        assert [float(r["x"]) for r in rows] == [0.0, 1.0, 2.0]
        assert [float(r["psi_upper"]) for r in rows] == [1.0, 0.8, 0.6]
        assert [float(r["psi_lower"]) for r in rows] == [1.0, 0.0, -1.0]

    def test_round_trip_envelope_order(self, tmp_path):
        out = tmp_path / "region.csv"
        proc = run(
            ["region", "--kind", "lk", "--k", "1", "--n", "64", "--x-max", "3",
             "--steps", "40", "--out", str(out)]
        )
        assert proc.returncode == 0
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert float(row["psi_lower"]) <= float(row["psi_upper"]) + 1e-15

    def test_lk_requires_k_and_n(self):
        proc = run(["region", "--kind", "lk"])
        assert proc.returncode == 2


    @pytest.mark.parametrize("variant", ["ratio", "ratio_pow"])
    def test_ratio_losses_are_scale_free_near_1e154(self, variant):
        # N / R is 2.25 / 30.5 at any scale, though N and R leave float64 here
        stdin = "".join(f"{g}e154,{p}e154\n" for g, p in ((1, 2), (2, 1), (3, 3.5), (4, 4)))
        proc = run(["loss", "--variant", variant, "--json"], stdin=stdin)
        assert proc.returncode == 0 and proc.stderr == ""
        results = json.loads(proc.stdout)["results"]
        assert results["loss"] == pytest.approx(2.25 / 30.5, rel=1e-15)
        assert np.all(np.isfinite(results["gradient"]))


class TestAudit:
    @pytest.mark.parametrize(
        "args",
        [["mse-sphere", "--mse", "1e308"], ["lk-sphere", "--k", "2", "--lk", "1e308", "--seed", "1"]],
        ids=["mse-1e308", "lk-1e308"],
    )
    def test_sphere_audits_at_a_radius_near_the_top_of_float64(self, args):
        proc = run(["audit", *args, "--format", "plain", "--trials", "50", "--json"],
                   stdin="1\n2\n4\n3\n")
        assert proc.returncode == 0 and proc.stderr == "" and "null" not in proc.stdout
        results = json.loads(proc.stdout)["results"]
        assert results["envelope_lower"] <= results["worst"] <= results["best"] <= results["envelope_upper"]
        assert results["bounds_respected"] is True

    def test_permutation_oracle_summary(self):
        proc = run(
            ["audit", "permutation", "--json"], stdin="1,0.5\n2,-1\n4,2\n0,0.1\n"
        )
        results = json.loads(proc.stdout)["results"]
        assert results["orderings"] == 24
        assert results["agrees"] is True

    def test_mse_sphere_bounds_respected(self):
        proc = run(
            ["audit", "mse-sphere", "--format", "plain", "--mse", "0.5",
             "--trials", "2000", "--seed", "5", "--json"],
            stdin="1\n2\n3\n4\n",
        )
        results = json.loads(proc.stdout)["results"]
        assert results["bounds_respected"] is True

    def test_mse_sphere_at_zero_mse_reports_ccc_one(self):
        proc = run(
            ["audit", "mse-sphere", "--format", "plain", "--mse", "0",
             "--trials", "50", "--seed", "3", "--json"],
            stdin="1\n2\n3\n4\n",
        )
        assert proc.returncode == 0 and proc.stderr == ""
        results = json.loads(proc.stdout)["results"]
        assert results["best"] == results["worst"] == 1
        assert results["envelope_lower"] == results["envelope_upper"] == 1
        assert results["bounds_respected"] is True

    def test_lk_sphere_bounds_respected(self):
        proc = run(
            ["audit", "lk-sphere", "--format", "plain", "--k", "4", "--lk", "1.5",
             "--trials", "2000", "--seed", "5", "--json"],
            stdin="1\n2\n3\n4\n",
        )
        results = json.loads(proc.stdout)["results"]
        assert results["bounds_respected"] is True

    def test_lk_sphere_at_large_k_reports_finite_extremes(self):
        # plain |d|**2000 sums of the sampled rows overflow or underflow
        proc = run(
            ["audit", "lk-sphere", "--format", "plain", "--k", "2000", "--lk", "1",
             "--trials", "10", "--json"],
            stdin="1\n2\n4\n3\n",
        )
        assert proc.returncode == 0 and proc.stderr == ""
        results = json.loads(proc.stdout)["results"]
        assert results["envelope_lower"] <= results["worst"] <= results["best"] <= results["envelope_upper"]
        assert results["bounds_respected"] is True

    def test_solve_even_p_at_large_k_converges(self):
        proc = run(
            ["solve-even-p", "--format", "plain", "--k", "2000", "--lk", "1", "--json"],
            stdin="1\n2\n3\n4\n5\n",
        )
        assert proc.returncode == 0 and proc.stderr == ""
        results = json.loads(proc.stdout)["results"]
        assert all(math.isfinite(v) for v in results["errors"])
        assert math.isfinite(results["ccc"])


class TestSubnormalGoldVariance:
    """The gold [1, 2, 3] * 1e-160, whose variance is subnormal in float64: its std and
    every figure built on it come from the variance in the moment kernel's units."""

    GOLD = (1e-160, 2e-160, 3e-160)
    STDIN = "1e-160\n2e-160\n3e-160\n"

    def exact_std(self) -> float:
        g = [Fraction(v) for v in self.GOLD]
        mu = sum(g) / len(g)
        var = sum((v - mu) ** 2 for v in g) / len(g)
        ctx = decimal.Context(prec=60)
        return float(ctx.divide(decimal.Decimal(var.numerator), var.denominator).sqrt(ctx))

    def test_mse_sphere_audit(self):
        proc = run(
            ["audit", "mse-sphere", "--format", "plain", "--mse", "1e-160",
             "--trials", "1000", "--json"],
            stdin=self.STDIN,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        report = json.loads(proc.stdout)
        std = self.exact_std()
        assert abs(report["inputs"]["gold"]["std"] - std) <= math.ulp(std)
        results = report["results"]
        assert results["best"] <= results["envelope_upper"] + 4 * math.ulp(results["envelope_upper"])
        assert results["bounds_respected"] is True

    def test_bounds_lk_x(self):
        proc = run(
            ["bounds-lk", "--format", "plain", "--k", "4", "--lk", "1e-160", "--json"],
            stdin=self.STDIN,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        x, exact = json.loads(proc.stdout)["results"]["x"], math.sqrt(0.5)
        assert abs(x - exact) <= 2 * math.ulp(exact)

    def test_analyze_digest(self):
        stdin = "".join(f"{g!r},{p}\n" for g, p in zip(self.GOLD, (1, 2, 4)))
        proc = run(["analyze", "--json"], stdin=stdin)
        assert proc.returncode == 0 and proc.stderr == ""
        std = self.exact_std()
        assert abs(json.loads(proc.stdout)["inputs"]["gold"]["std"] - std) <= math.ulp(std)


class TestParameterAndRangeErrors:
    @pytest.mark.parametrize(
        "args, stdin",
        [
            (["bounds-mse", "--format", "plain", "--mse", "nan", "--json"], "1\n2\n3\n"),
            (["loss", "--variant", "diff", "--alpha", "nan", "--json"], "1,2\n2,3\n3,5\n"),
            (["bounds-lk", "--format", "plain", "--k", "1", "--lk", "nan"], "1\n2\n3\n"),
            (["bounds-lk", "--format", "plain", "--k", "0.001", "--lk", "8"], "1\n2\n3\n"),
            (["region", "--kind", "mse", "--x-max", "nan"], ""),
            (["audit", "mse-sphere", "--format", "plain", "--mse", "nan"], "1\n2\n3\n4\n"),
            (["loss", "--variant", "ratio_pow", "--gamma", "inf", "--json"], "1,2\n2,3\n3,5\n"),
            (["solve-even-p", "--format", "plain", "--k", "4", "--lk", "inf"], "1\n2\n3\n"),
            (["solve-even-p", "--format", "plain", "--k", "inf", "--lk", "1"], "1\n2\n3\n"),
            (["bounds-lk", "--format", "plain", "--k", "inf", "--lk", "1"], "1\n2\n3\n"),
            (["audit", "lk-sphere", "--format", "plain", "--k", "4", "--lk", "inf"], "1\n2\n3\n"),
            (["permute", "--json"], "1,1e160\n2,-2e160\n3,3e160\n"),
            (["region", "--kind", "mse", "--x-max", "inf"], ""),
            (["loss", "--variant", "diff", "--trace-iters", "5", "--trace-step", "inf", "--json"],
             "1,2\n2,3\n3,5\n"),
            (["loss", "--variant", "diff", "--json"], "1.7e308,1\n1.6e308,2\n1.5e308,3\n"),
            (["loss", "--variant", "ratio_pow", "--gamma", "300", "--json"], "1,2\n2,30\n3,50\n"),
            (["loss", "--variant", "diff", "--json"], "1e154,2e154\n2e154,1e154\n3e154,4e154\n"),
            (["loss", "--variant", "ratio", "--json"], "1e-300,1e-300\n-1e-300,1e-300\n1,1e-300\n"),
            (["audit", "mse-sphere", "--format", "plain", "--mse", "1", "--seed", "-1"],
             "1\n2\n4\n3\n"),
            (["audit", "lk-sphere", "--format", "plain", "--k", "4", "--lk", "1", "--seed", "-2"],
             "1\n2\n4\n3\n"),
            (["solve-even-p", "--format", "plain", "--k", "4", "--lk", "1", "--seed", "-1"],
             "1\n2\n3\n"),
            (["audit", "lk-sphere", "--format", "plain", "--k", "0.001", "--lk", "1",
              "--trials", "10"], "1\n2\n4\n3\n"),
            (["solve-even-p", "--format", "plain", "--k", "2000", "--lk", "2"], "1\n2\n3\n4\n5\n"),
            (["bounds-lk", "--format", "plain", "--k", "4", "--lk", "1e300"],
             "1e-160\n2e-160\n3e-160\n"),
        ],
        ids=[
            "mse-nan", "alpha-nan", "lk-nan", "k-band-overflow", "x-max-nan", "sphere-mse-nan",
            "gamma-inf", "solve-lk-inf", "solve-k-inf", "band-k-inf",
            "sphere-lk-inf", "errors-mse-overflow", "x-max-inf", "trace-step-inf",
            "loss-gold-near-max",
            "loss-gamma-overflow", "loss-sums-overflow", "loss-gradient-underflowing-reward",
            "sphere-mse-seed-negative", "sphere-lk-seed-negative", "solve-seed-negative",
            "sphere-lk-sampled-norm-overflow", "solve-lk-powers-overflow", "lk-x-overflow",
        ],
    )
    def test_bad_parameter_exits_2(self, args, stdin):
        proc = run(args, stdin=stdin)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    @pytest.mark.parametrize(
        "args, stdin, std, results",
        [
            (["bounds-mse", "--mse", "4", "--json"], "1e160\n2e160\n4e160\n", 1.2472191289246471e160,
             {"sigma_g": 1.2472191289246471e160, "x": 1.6035674514745462e-160, "ccc_max": 1.0,
              "ccc_min": 1.0}),
            (["permute", "--json"], "1e160,0.1\n2e160,0.2\n3e160,0.3\n", 8.1649658092772601e159,
             {"ccc": 1.0, "ccc_closed_form": 1.0}),
            (["permute", "--json"], "1.7e308,0.1\n1.6e308,0.2\n1.5e308,0.3\n",
             8.1649658092772568e306, {"ccc": 1.0, "ccc_closed_form": 1.0}),
        ],
        ids=["gold-variance-overflow", "permute-gold-variance-overflow", "permute-gold-near-max"],
    )
    def test_a_gold_variance_past_float64_is_not_refused(self, args, stdin, std, results):
        # no verb prints var_g, so a gold whose variance leaves float64 still ends in a result
        proc = run(args, stdin=stdin)
        assert proc.returncode == 0 and proc.stderr == ""
        report = json.loads(proc.stdout)
        assert report["inputs"]["gold"]["std"] == std
        if args[0] == "permute":  # each of the four extremes
            assert all(extreme.items() >= results.items() for extreme in report["results"].values())
        else:
            assert report["results"].items() >= results.items()

    @pytest.mark.parametrize(
        "args, stdin, name",
        [
            (["region", "--kind", "lk", "--k", "0.01", "--n", "4", "--x-max", "1e300",
              "--steps", "3"], "", "x_max"),
            (["bounds-lk", "--format", "plain", "--k", "4", "--lk", "1.7e308"],
             "0\n1\n0\n1\n", "x"),
        ],
        ids=["region", "bounds-lk"],
    )
    def test_theta_family_past_float64_names_x(self, args, stdin, name):
        # theta_max * x leaves float64: refused before any product is taken
        proc = run(args, stdin=stdin)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: {name} must be at most ")
        assert len(proc.stderr.splitlines()) == 1 and "Warning" not in proc.stderr

    def test_analyze_names_overflowing_moment(self):
        stdin = "".join(f"{g * 1e160:.17g},{p * 1e160:.17g}\n" for g, p in ((1, 2), (2, 1), (3, 4), (4, 3)))
        proc = run(["analyze", "--json"], stdin=stdin)
        assert proc.returncode == 2
        assert "var_x" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    def test_analyze_near_the_top_of_the_range(self):
        proc = run(["analyze", "--json"], stdin="1.2e154,1.2e154\n-1.2e154,-1.2e154\n")
        assert proc.returncode == 0 and proc.stderr == ""
        results = json.loads(proc.stdout)["results"]
        assert results["ccc_via_mse_map"] == 1.0
        assert results["variance_identity_residual"] == 0.0


class TestFlags:
    @pytest.mark.parametrize(
        "args, stdin",
        [
            (["analyze", "--out", "{out}"], "1,2\n2,3\n3,4\n"),
            (["region", "--kind", "mse", "--json"], ""),
            (["bounds-lk", "--format", "plain", "--k", "1", "--lk", "1", "--out", "{out}"], "1\n2\n"),
        ],
        ids=["analyze-out", "region-json", "bounds-lk-out"],
    )
    def test_verbs_reject_flags_they_do_not_read(self, args, stdin, tmp_path):
        out = tmp_path / "x.csv"
        proc = run([a.format(out=out) for a in args], stdin=stdin)
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr
        assert proc.stdout == "" and not out.exists()


class TestDeterminism:
    def test_double_run_identical_bytes(self):
        stdin = "1,2\n2,3\n3,4\n"
        first = run(["analyze", "--json", "--seed", "7"], stdin=stdin)
        second = run(["analyze", "--json", "--seed", "7"], stdin=stdin)
        assert first.stdout == second.stdout


# ---------------------------------------------------------------------------
# the table loader against its per-line reference

_ORACLE_FLOAT = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$", re.ASCII)


def _oracle_load(text, fmt, header_row, selectors):
    """The per-line loader as it was before the screened route (reading stdin), frozen
    here as the reference: same arrays, same InvalidInput messages."""
    lines = [ln.rstrip("\r") for ln in text.split("\n") if ln.strip() != ""]
    if fmt == "plain":
        rows = [ln.split() for ln in lines]
    else:
        rows = list(csv.reader(lines, delimiter="," if fmt == "csv" else "\t"))

    def line_number(row):
        nonblank = (i for i, ln in enumerate(text.split("\n"), 1) if ln.strip() != "")
        return next(itertools.islice(nonblank, row, None))

    if not rows:
        raise InvalidInput("input contains no data rows")
    header, offset = None, 0
    if header_row:
        header = [c.strip() for c in rows[0]]
        rows, offset = rows[1:], 1
        if not rows:
            raise InvalidInput("input contains a header but no data rows")
    width = len(rows[0])
    out = {}
    for what, selector in selectors:
        if re.fullmatch(r"\d+", selector, re.ASCII):
            idx = int(selector)
            if idx >= width:
                raise InvalidInput(f"{what} column index {idx} out of range (width {width})")
        elif header is None:
            raise InvalidInput(f"{what} column {selector!r} is a name but --header was not given")
        elif selector not in header:
            raise InvalidInput(f"{what} column {selector!r} not found in header {header}")
        else:
            idx = header.index(selector)
        values = np.empty(len(rows))
        for i, row in enumerate(rows):
            if idx >= len(row):
                line = line_number(offset + i)
                raise InvalidInput(f"line {line}: expected column {idx}, row has {len(row)} cells")
            cell = row[idx].strip()
            if not _ORACLE_FLOAT.match(cell):
                line = line_number(offset + i)
                raise InvalidInput(f"line {line}: {cell!r} is not a plain decimal number")
            values[i] = float(cell)
            if abs(values[i]) == math.inf:
                raise InvalidInput(f"line {line_number(offset + i)}: {cell!r} is beyond float64")
        out[what] = as_sequence(values, what)
    return out


def _outcome(load):
    """Each column's bytes, or the InvalidInput message."""
    try:
        return {name: arr.tobytes() for name, arr in load().items()}
    except InvalidInput as exc:
        return str(exc)


def _load(data: bytes, fmt: str, header: bool, selectors):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table"
        path.write_bytes(data)
        args = types.SimpleNamespace(input=str(path), format=fmt, header=header)
        return cli._load_columns(args, selectors)


def _halfway(x: float) -> str:
    """The exact decimal midway between x and the next float64 up, which float() rounds to
    even."""
    mid = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    ctx = decimal.Context(prec=400)
    return format(ctx.divide(decimal.Decimal(mid.numerator), mid.denominator), "f")


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".17g")),
    st.tuples(  # a 20- to 60-digit mantissa
        st.sampled_from(["", "-", "+"]),
        st.integers(10**19, 10**60 - 1).map(str),
        st.integers(0, 60),
        st.integers(-330, 330),
    ).map(lambda t: f"{t[0]}{t[1][:t[2]]}.{t[1][t[2]:]}e{t[3]}"),
    st.floats(1e-30, 1e30).map(_halfway),
)
# whitespace that str.strip strips, and characters that it does not
_PADS = [" ", "  ", "\t", " \t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\x00", "\ufeff", "#"]
_TOKENS = st.one_of(
    _NUMBERS,
    _NUMBERS,
    st.integers(-10**20, 10**20).map(str),
    st.text(alphabet="0123456789eE.+-", max_size=6),
    st.sampled_from(["1e", ".", "+-1", "", "1.", ".5", "-0", "1E+05", "1e999", "nan", "inf",
                     "-Infinity", "1_0", "\u0661\u0662", "\uff15", "0x1p3", "1,5", '1"5', "#1"]),
)
_TEXT = st.sampled_from(["id7", "x", "a b", "#c", 'q"t', "\ufeffid", "\x00", "\xa0", "1e999", ""])


@st.composite
def _cells(draw, fmt, clean):
    cell = draw(_NUMBERS if clean else _TOKENS)
    if draw(st.integers(0, 5)) == 0:
        cell = draw(st.sampled_from(_PADS)) + cell + draw(st.sampled_from(["", " ", *_PADS]))
    if fmt != "plain" and not clean and draw(st.integers(0, 5)) == 0:
        cell = '"' + cell.replace('"', "") + '"'
    return cell


@st.composite
def _tables(draw):
    fmt = draw(st.sampled_from(["csv", "tsv", "plain"]))
    header = draw(st.booleans())
    delim = {"csv": ",", "tsv": "\t", "plain": " "}[fmt]
    width = draw(st.integers(1, 3))
    clean = draw(st.booleans())  # numbers only, so that most such tables take the fast route
    id_column = draw(st.booleans())  # a last column of text, unselected unless rows are narrow
    names = ["gold", "pred", "c2"][: draw(st.integers(1, 3))]
    lines = [delim.join(names)] if header else []
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.integers(0, 9))
        if shape == 0:  # blank to str.strip, or not
            lines.append(draw(st.sampled_from(["", "", " ", "\t", " \t ", "\x0c", "\x85", "\xa0",
                                               "\x1c", "\x00", "\ufeff", "#"])))
        else:
            cells = width + (draw(st.integers(-1, 1)) if shape == 1 else 0)
            row = [draw(_cells(fmt, clean)) for _ in range(max(cells, 1))]
            lines.append(delim.join(row + ([draw(_TEXT)] if id_column else [])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    pick = st.sampled_from(  # the first two indices twice as often
        ["0", "1", "0", "1", "2", "5", *(names + ["missing"] if header else [])])
    selectors = [("gold", draw(pick)), ("pred", draw(pick))]
    return text.encode("utf-8"), fmt, header, selectors


@settings(max_examples=400, deadline=None)
@given(_tables())
def test_loader_matches_the_per_line_reference(table):
    data, fmt, header, selectors = table
    text = data.decode("utf-8", "surrogateescape")
    assert _outcome(lambda: _load(data, fmt, header, selectors)) == _outcome(
        lambda: _oracle_load(text, fmt, header, selectors)
    )


@pytest.mark.parametrize("data, selectors, message", [
    (b'1,2,3,4\n"x,y",1,2\n', ["2", "3"], "line 2: expected column 3, row has 3 cells"),
    (b'1,2,"x\n3,4,5\n', ["0", "1"], "line 1: unterminated quoted cell"),
    (b"1,2\n" + b"0" * 200_000 + b"1,2\n", ["0", "1"], "line 2: field larger than field limit"),
    (b"1,2,3\n4,5," + b"x" * 200_000 + b"\n", ["0", "1"], "line 2: field larger than field limit"),
], ids=["quoted-delimiter", "open-quote", "long-number", "long-text"])
def test_what_numpys_reader_would_read_otherwise_is_an_error(data, selectors, message):
    # numpy's reader splits at every delimiter and has no field size limit
    with pytest.raises(InvalidInput, match=f"^{message}"):
        _load(data, "csv", False, list(zip(["gold", "pred"], selectors)))


def _bench_table(fmt, header, end, text_column=False, blank_every=0):
    """A 2,000-row table shaped like the benchmark's, and its gold and pred columns."""
    rng = np.random.default_rng(5)
    gold = rng.normal(rng.uniform(-5, 5), 2.0, 2000)
    pred = 0.8 * gold + rng.normal(0.5, 1.0, 2000)
    delim = {"csv": ",", "tsv": "\t", "plain": " "}[fmt]
    lines = [f"{format(g, '.17g')}{delim}{format(p, '.17g')}" for g, p in zip(gold, pred)]
    if text_column:
        lines = [f"{line}{delim}id{i}" for i, line in enumerate(lines)]
    if blank_every:  # an empty line after every blank_every-th row
        blocks = (lines[i:i + blank_every] for i in range(0, len(lines), blank_every))
        lines = [x for block in blocks for x in (*block, "")]
    if header:
        lines.insert(0, delim.join(["gold", "pred", "id"][: 2 + text_column]))
    return "".join(line + end for line in lines).encode("utf-8"), gold, pred


@pytest.mark.parametrize("fmt, header, layout", [
    pytest.param("csv", False, {}, id="csv-False"),
    pytest.param("tsv", False, {}, id="tsv-False"),
    pytest.param("plain", False, {}, id="plain-False"),
    pytest.param("csv", True, {}, id="csv-True"),
    pytest.param("csv", True, {"text_column": True}, id="csv-True-text-column"),
    pytest.param("csv", False, {"blank_every": 50}, id="csv-False-blank-lines"),
])
@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_bench_shaped_tables_take_the_screened_route(fmt, header, layout, end, monkeypatch):
    def per_line_route(*args):
        raise AssertionError("a plain table fell back to the per-line route")

    monkeypatch.setattr(cli, "_parse_rows", per_line_route)
    data, gold, pred = _bench_table(fmt, header, end, **layout)
    selectors = [("gold", "gold" if header else "0"), ("pred", "pred" if header else "1")]
    cols = _load(data, fmt, header, selectors)
    assert cols["gold"].tobytes() == gold.tobytes() and cols["pred"].tobytes() == pred.tobytes()


@pytest.mark.parametrize("fmt, delim", [("csv", ","), ("tsv", "\t")])
def test_a_quoted_header_keeps_numpys_reader(fmt, delim, monkeypatch):
    # exporters often quote every name; a quoted name may hold the delimiter
    names = ["gold", f"pred{delim}v2", "id"]
    rows = ["1.5", "2", "a"], ["-3", "4e-3", "b"], [" 7", "0.25 ", "c"]
    text = "\n".join(delim.join(row) for row in [[f'"{n}"' for n in names], *rows]) + "\n"
    selectors = [("gold", "gold"), ("pred", names[1])]
    expected = _outcome(lambda: _oracle_load(text, fmt, True, selectors))

    def per_line_route(*args):
        raise AssertionError("a table quoted only in its header fell back to the per-line route")

    monkeypatch.setattr(cli, "_parse_rows", per_line_route)
    assert _outcome(lambda: _load(text.encode(), fmt, True, selectors)) == expected
    assert np.frombuffer(expected["pred"]).tolist() == [2.0, 4e-3, 0.25]


@pytest.mark.parametrize("data, message", [
    (b'"gold","pred"\n1,"2"\n3,4\n', None),
    (b'"gold,pred\n1,2\n3,4\n', "line 1: unterminated quoted cell"),
], ids=["quoted-data-cell", "open-header-quote"])
def test_other_quotes_take_the_per_line_route(data, message, monkeypatch):
    calls = []
    real = cli._parse_rows

    def per_line_route(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "_parse_rows", per_line_route)
    selectors = [("gold", "0"), ("pred", "1")]
    outcome = _outcome(lambda: _load(data, "csv", True, selectors))
    assert len(calls) == 1
    if message is None:
        assert outcome == _outcome(lambda: _oracle_load(data.decode(), "csv", True, selectors))
        assert np.frombuffer(outcome["pred"]).tolist() == [2.0, 4.0]
    else:
        assert outcome.startswith(message)


def test_ingest_peak_memory_is_a_small_multiple_of_the_file(tmp_path):
    # the C reader holds the bytes and the parsed columns, not a list of every cell
    data, gold, _ = _bench_table("csv", False, "\n")
    path = tmp_path / "table.csv"
    path.write_bytes(data * 25)  # 5x10^4 rows
    args = types.SimpleNamespace(input=str(path), format="csv", header=False)
    tracemalloc.start()
    try:
        cols = cli._load_columns(args, [("gold", "0"), ("pred", "1")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cols["gold"].size == 25 * gold.size
    assert peak < 3 * path.stat().st_size


# ---------------------------------------------------------------------------
# the report renderer against its per-cell reference


def _oracle_json(obj) -> str:
    """The JSON renderer as it was before row templates, frozen here as the reference:
    a table is a list of dicts, and every cell is formatted on its own."""
    if isinstance(obj, dict):
        return "{" + ",".join(f'"{key}":{_oracle_json(value)}' for key, value in obj.items()) + "}"
    if isinstance(obj, (list, np.ndarray)):
        return "[" + ",".join(_oracle_json(value) for value in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return "%.17g" % obj if math.isfinite(obj) else "null"
    return json.dumps(str(obj), ensure_ascii=False)


def _oracle_text(report: dict, pad: str = "") -> str:
    """The text renderer as it was before row templates, frozen here as the reference."""
    out = ""
    for key, value in report.items():
        if isinstance(value, dict):
            out += f"{pad}{key}:\n" + _oracle_text(value, pad + "  ")
        elif isinstance(value, list):  # a table: a "-" line, then a line per cell, per record
            out += f"{pad}{key}:\n" + "".join(
                f"{pad}  -\n" + _oracle_text(record, pad + "    ") for record in value
            )
        elif isinstance(value, np.ndarray):
            out += f"{pad}{key}: " + ", ".join(repr(float(v)) for v in value) + "\n"
        elif isinstance(value, bool):
            out += f"{pad}{key}: {'true' if value else 'false'}\n"
        elif isinstance(value, float):
            out += f"{pad}{key}: {float(value)!r}\n"
        else:
            out += f"{pad}{key}: {value}\n"
    return out


def _rendered(report: dict, as_json: bool) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_report(report, as_json)
    return out.getvalue()


def _same(got: str, want: str) -> None:
    """Fail with the first difference only: a diff of megabytes of output takes minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), len(want))
        pytest.fail(f"at {at}: {got[at - 30:at + 30]!r} != {want[at - 30:at + 30]!r}")


def _check_renderer(vector: np.ndarray, table: np.ndarray) -> None:
    """Both forms of a report holding ``vector`` and the two-column ``table`` against the
    reference, which is handed the table as a list of records."""
    head = {"command": "loss", "version": "0.1.0", "seed": 0}
    scalars = {"n": 3, "agrees": True, "x": 0.1, "top": np.float64(sys.float_info.max)}
    report = {**head, "results": {**scalars, "v": vector, "t": (("a", "b"), table)}}
    records = [{"a": a, "b": b} for a, b in table.tolist()]
    reference = {**head, "results": {**scalars, "v": vector, "t": records}}
    as_json = _rendered(report, True)
    _same(as_json, _oracle_json(reference) + "\n")
    loaded = json.loads(as_json)["results"]["t"]
    assert loaded == [{k: v if math.isfinite(v) else None for k, v in r.items()} for r in records]
    _same(_rendered(report, False), _oracle_text(reference))


_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, sys.float_info.min,
    sys.float_info.max, -sys.float_info.max, np.nextafter(sys.float_info.max, 0.0),
    0.1, 1 / 3, 1e16, 1e-7, math.nan, math.inf, -math.inf,
]
_CELLS = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))


@settings(max_examples=300, deadline=None)
@given(
    vector=st.lists(_CELLS, max_size=12),
    # a report's table has a row per theta step, and there is at least one
    table=st.lists(st.tuples(_CELLS, _CELLS), min_size=1, max_size=12),
)
def test_renderer_matches_the_per_cell_reference(vector, table):
    _check_renderer(np.array(vector, dtype=np.float64), np.array(table, dtype=np.float64))


def test_renderer_matches_the_reference_across_chunks():
    # the loss verb's 5x10^4-cell gradient and a 3x10^4-row table span several chunks;
    # non-finite cells sit at random places, the first and the last cell among them
    rng = np.random.default_rng(7)
    vector = rng.normal(size=50_000) * 10.0 ** rng.integers(-300, 300, size=50_000)
    table = rng.normal(size=(30_000, 2))
    for cells in (vector, table.reshape(-1)):
        spots = rng.integers(0, cells.size, size=40)
        cells[spots] = rng.choice(_EDGE_FLOATS, size=spots.size)
        cells[[0, -1]] = math.nan, -math.inf
    _check_renderer(vector, table)


class _Count:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> None:
        self.chars += len(text)


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_render_peak_memory_is_a_fraction_of_the_output(as_json):
    # bounds-lk's lower_by_theta at 10^5 theta steps: the renderer holds a chunk of rows at a
    # time, not the output (before row templates its peak was about 10x the output)
    from cccmap.lk_bounds import lower_family, theta_grid

    thetas = theta_grid(2.0, 10**5)
    table = np.column_stack([thetas, lower_family(0.7, thetas)])
    report = {"results": {"lower_by_theta": (("theta", "ccc_lower_at_theta"), table)}}
    out = _Count()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            cli._emit_report(report, as_json)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.chars > 6_000_000
    assert peak < out.chars / 2
