"""Guards: no module but ``stats`` calls a numpy mean, variance, deviation or covariance,
a gold standard deviation comes only from ``CenteredGold.sigma_g``, no module works on the
unscaled centred gold ``CenteredGold.centered``, the oracles import no closed form, a
row's power of two and its NaN/Inf refusal come only from ``stats._span``, and a gold is
prepared and refused only in ``stats._prepared_gold``."""

import ast
import re
from pathlib import Path

import cccmap

PACKAGE = Path(cccmap.__file__).parent
MOMENT_CALL = re.compile(r"\.mean\(|\bnp\.(mean|var|std|cov)\b")
# the root of a var_g taken outside the kernel's units: sqrt(gold.var_g), var_g ** 0.5
GOLD_STD = re.compile(r"sqrt\(\s*[\w.]*\bvar_g\s*\)|\bvar_g\s*\*\*\s*0?\.5\b")
CENTERED = re.compile(r"\.centered\b")
NAN_INF = re.compile(re.escape("sequence contains NaN or Inf"))
# the largest magnitude of each row of a batch, the start of a power of two taken by hand
ROW_TOP = re.compile(r"\bnp\.abs\(.*\)\.max\(axis=-1\)")
# a gold prepared by hand: a CenteredGold built, or the gold's side of the kernel taken
PREPARE = re.compile(r"\bCenteredGold\(|\b_gold_moments\(")


def _offenders(pattern, skip=()):
    return [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in skip
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]


def _holders(pattern):
    """(file, innermost function or None) of each line of the package matching pattern."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        functions = [node for node in ast.walk(ast.parse(text)) if isinstance(node, ast.FunctionDef)]
        for number, line in enumerate(text.splitlines(), 1):
            if pattern.search(line):
                spans = [f for f in functions if f.lineno <= number <= f.end_lineno]
                found.append((path.name, min(spans, key=lambda f: f.end_lineno - f.lineno).name
                              if spans else None))
    return found


def test_the_row_rules_live_in_span():
    assert _holders(NAN_INF) == [("stats.py", "_span")]
    offenders = [place for place in _holders(ROW_TOP) if place != ("stats.py", "_span")]
    assert offenders == [], f"a row's power of two taken outside stats._span: {offenders}"


def test_the_row_guard_sees_what_it_forbids():
    for line in ("top = np.abs(yv, out=c).max(axis=-1)", "e = np.frexp(np.abs(rows).max(axis=-1))[1]"):
        assert ROW_TOP.search(line), line
    for line in ("hi, lo = v.max(axis=-1), v.min(axis=-1)", "top = float(np.max(np.abs(ax)))"):
        assert not ROW_TOP.search(line), line


def test_one_preparation_and_one_refusal_of_a_gold():
    assert sorted(set(_holders(PREPARE))) == [
        ("cli.py", "_digest_of"),  # the input digest of every column: its mean and std
        ("stats.py", "_gold_moments"),  # its definition
        ("stats.py", "_moments"),
        ("stats.py", "_prepared_gold"),
        ("stats.py", "mean"),
        ("stats.py", "population_variance"),
    ]
    assert _holders(re.compile("gold standard is constant")) == [("stats.py", "_prepared_gold")]
    for gone in ("gold variance is zero in float64", "variance overflows float64"):
        assert _offenders(re.compile(re.escape(gone))) == [], gone


def test_the_preparation_guard_sees_what_it_forbids():
    for line in ("return CenteredGold(gold=arr, e=e, mu=mu, var=var, a=a)",
                 "e, mu, var, a = _gold_moments(arr)", "stats._gold_moments(g, out)"):
        assert PREPARE.search(line), line
    for line in ('_instance(gold, CenteredGold, "gold")', ":func:`_gold_moments` and", "class CenteredGold:"):
        assert not PREPARE.search(line), line


def test_no_module_but_stats_computes_moments():
    offenders = _offenders(MOMENT_CALL, skip=("stats.py",))
    assert offenders == [], "moments computed outside stats._moments:\n" + "\n".join(offenders)


def test_gold_std_comes_from_sigma_g():
    offenders = _offenders(GOLD_STD)
    assert offenders == [], "a gold std not from CenteredGold.sigma_g:\n" + "\n".join(offenders)


def test_no_module_reads_the_unscaled_centred_gold():
    offenders = _offenders(CENTERED)
    assert offenders == [], "CenteredGold.centered read in place of a, e:\n" + "\n".join(offenders)


def test_the_oracles_import_no_closed_form():
    """The oracles audit the closed forms, so they take nothing from the modules that hold
    them, and from ``ordering`` only the error-set types and the sign convention."""
    tree = ast.parse((PACKAGE / "oracles.py").read_text(encoding="utf-8"))
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    modules = {module for module, _ in imported} | {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    }
    assert not modules & {"mse_bounds", "lk_bounds", "even_p", "cccmap.mse_bounds", "cccmap.lk_bounds",
                          "cccmap.even_p"}
    assert {name for module, name in imported if module == "ordering"} <= {"Convention", "ErrorSet", "_adds"}
