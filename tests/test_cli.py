"""End-to-end tests of the command-line surface via subprocess."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

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

    def test_underscore_float_rejected(self):
        proc = run(["analyze"], stdin="1_0,2\n2,3\n")
        assert proc.returncode == 2

    def test_crlf_input_accepted(self):
        proc = run(["analyze", "--json"], stdin="1,2\r\n2,3\r\n3,4\r\n")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["mse"] == 1.0


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


class TestPermute:
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


class TestAudit:
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

    def test_lk_sphere_bounds_respected(self):
        proc = run(
            ["audit", "lk-sphere", "--format", "plain", "--k", "4", "--lk", "1.5",
             "--trials", "2000", "--seed", "5", "--json"],
            stdin="1\n2\n3\n4\n",
        )
        results = json.loads(proc.stdout)["results"]
        assert results["bounds_respected"] is True


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
            (["bounds-mse", "--format", "plain", "--mse", "4"], "1e160\n2e160\n4e160\n"),
            (["loss", "--variant", "ratio_pow", "--gamma", "inf", "--json"], "1,2\n2,3\n3,5\n"),
            (["solve-even-p", "--format", "plain", "--k", "4", "--lk", "inf"], "1\n2\n3\n"),
            (["solve-even-p", "--format", "plain", "--k", "inf", "--lk", "1"], "1\n2\n3\n"),
            (["bounds-lk", "--format", "plain", "--k", "inf", "--lk", "1"], "1\n2\n3\n"),
            (["audit", "lk-sphere", "--format", "plain", "--k", "4", "--lk", "inf"], "1\n2\n3\n"),
            (["permute", "--json"], "1,1e160\n2,-2e160\n3,3e160\n"),
        ],
        ids=[
            "mse-nan", "alpha-nan", "lk-nan", "k-band-overflow", "x-max-nan", "sphere-mse-nan",
            "gold-variance-overflow", "gamma-inf", "solve-lk-inf", "solve-k-inf", "band-k-inf",
            "sphere-lk-inf", "errors-mse-overflow",
        ],
    )
    def test_bad_parameter_exits_2(self, args, stdin):
        proc = run(args, stdin=stdin)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

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


class TestDeterminism:
    def test_double_run_identical_bytes(self):
        stdin = "1,2\n2,3\n3,4\n"
        first = run(["analyze", "--json", "--seed", "7"], stdin=stdin)
        second = run(["analyze", "--json", "--seed", "7"], stdin=stdin)
        assert first.stdout == second.stdout
