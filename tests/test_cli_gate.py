"""An in-process gate of the command-line surface over extreme flag values.

Every verb runs through ``cli.main`` with each of its numeric flags set in turn to
nan, +-inf, 0, -1, a subnormal, 1e-300, 1e300 and 1e308 (and k to 4e307), the other
flags at ordinary values, and every warning raised as an error. Each run must end in
exit 0, 2 or 3 with no exception; a ``--json`` report must parse with ``json.loads``
and hold no null, save ``theta_at_min`` at lk 0, where it is infinite. The error
messages that no other test pins are checked here byte for byte.
"""

import csv
import io
import json
import math
import sys
import warnings

import pytest

from cccmap import cli

TABLE = "1,1.5\n2,1.7\n4,3.9\n3,3.2\n7,6.1\n"  # gold, and predictions or errors
VALUES = ("nan", "inf", "-inf", "0", "-1", "1e-320", "1e-300", "1e300", "1e308")

# (verb and its ordinary flags, the numeric flags varied); the table is read from stdin
VERBS = [
    (["analyze", "--json"], ["--seed"]),
    (["bounds-mse", "--mse", "1", "--json"], ["--mse", "--seed"]),
    (["bounds-lk", "--k", "4", "--lk", "1", "--json"], ["--k", "--lk", "--theta-steps"]),
    (["permute", "--audit", "--json"], ["--seed"]),
    (["solve-even-p", "--k", "4", "--lk", "1", "--json"], ["--k", "--lk", "--max-iters", "--seed"]),
    (["solve-even-p", "--k", "6", "--lk", "1", "--objective", "min", "--json"], ["--k", "--lk"]),
    *(
        (["loss", "--variant", variant, "--trace-iters", "3", "--trace-step", "0.1", "--json"],
         ["--gamma", "--alpha", "--beta", "--trace-iters", "--trace-step"])
        for variant in ("ratio", "diff_pow", "abs_mse_over_cov")
    ),
    (["region", "--kind", "mse"], ["--x-max", "--steps"]),
    (["region", "--kind", "lk", "--k", "4", "--n", "5"],
     ["--x-max", "--steps", "--k", "--n", "--theta-steps"]),
    (["audit", "permutation", "--json"], ["--seed"]),
    (["audit", "mse-sphere", "--mse", "1", "--trials", "50", "--json"],
     ["--mse", "--trials", "--seed"]),
    (["audit", "lk-sphere", "--k", "4", "--lk", "1", "--trials", "50", "--json"],
     ["--k", "--lk", "--trials"]),
]


def _grid():
    for argv, flags in VERBS:
        for flag in flags:
            for value in VALUES + (("4e307",) if flag == "--k" else ()):
                name = f"{flag}={value}"
                yield pytest.param(argv, name, id=f"{' '.join(argv[:3])} {name}")


def run_main(argv, capsys):
    """(exit code, stdout, stderr) of ``cli.main(argv)``, every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the flag's text
            code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _nulls(obj, path=()):
    if obj is None:
        yield ".".join(path)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _nulls(value, (*path, key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _nulls(value, (*path, str(i)))


@pytest.fixture(autouse=True)
def table(monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(TABLE.encode())))


@pytest.mark.parametrize("argv, flag", _grid())
def test_extreme_flag_values_end_in_a_typed_exit(argv, flag, capsys):
    code, out, err = run_main([*argv, flag], capsys)
    assert code in (0, 2, 3), err
    if code:
        assert out == "" and err.startswith(("error: ", "usage: "))
        return
    assert err == ""
    if "--json" in argv:
        nulls = list(_nulls(json.loads(out)))
        allowed = ["results.theta_at_min"] if argv[0] == "bounds-lk" and flag == "--lk=0" else []
        assert nulls == allowed
    else:  # region: CSV of finite numbers
        rows = list(csv.reader(io.StringIO(out)))
        assert all(math.isfinite(float(cell)) for row in rows[1:] for cell in row)


def test_a_control_character_in_out_is_escaped(tmp_path, capsys):
    path = str(tmp_path / "o\tx.csv")
    code, out, err = run_main(["bounds-mse", "--mse", "1", "--out", path, "--json"], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["out"] == path
    assert out.endswith(',"out":' + json.dumps(path) + "}\n")


def test_non_ascii_text_is_written_raw(tmp_path, capsys):
    path = str(tmp_path / "ö.csv")
    code, out, _ = run_main(["bounds-mse", "--mse", "1", "--out", path, "--json"], capsys)
    assert code == 0 and f'"out":"{path}"' in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds-mse"], "bounds-mse requires --mse"),
        (["bounds-lk", "--k", "4"], "bounds-lk requires --k and --lk"),
        (["solve-even-p", "--lk", "1"], "solve-even-p requires --k and --lk"),
        (["loss", "--variant", "diff", "--trace-iters", "3"],
         "--trace-iters requires --trace-step"),
        (["region", "--kind", "lk", "--k", "4"], "region --kind lk requires --k and --n"),
        (["audit", "mse-sphere"], "audit mse-sphere requires --mse"),
        (["audit", "lk-sphere", "--lk", "1"], "audit lk-sphere requires --k and --lk"),
        (["analyze", "--gold-col", "truth"],
         "gold column 'truth' is a name but --header was not given"),
    ],
)
def test_missing_flag_messages(argv, message, capsys):
    assert run_main(argv, capsys) == (2, "", f"error: {message}\n")


def test_unreadable_input_message(tmp_path, capsys):
    path = str(tmp_path / "missing.csv")
    code, out, err = run_main(["analyze", "--input", path], capsys)
    assert (code, out) == (2, "")
    assert err == (
        f"error: cannot read input {path!r}: [Errno 2] No such file or directory: {path!r}\n"
    )


def test_unwritable_output_message(tmp_path, capsys):
    path = str(tmp_path / "no" / "dir.csv")
    code, out, err = run_main(["bounds-mse", "--mse", "1", "--out", path], capsys)
    assert (code, out) == (2, "")
    assert err == (
        f"error: cannot write output {path!r}: [Errno 2] No such file or directory: {path!r}\n"
    )
