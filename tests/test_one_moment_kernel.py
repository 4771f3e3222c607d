"""Guards: no module but ``stats`` calls a numpy mean, variance, deviation or covariance,
a gold standard deviation comes only from ``CenteredGold.sigma_g``, no module works on the
unscaled centred gold ``CenteredGold.centered``, and the oracles import no closed form."""

import ast
import re
from pathlib import Path

import cccmap

PACKAGE = Path(cccmap.__file__).parent
MOMENT_CALL = re.compile(r"\.mean\(|\bnp\.(mean|var|std|cov)\b")
# the root of a var_g taken outside the kernel's units: sqrt(gold.var_g), var_g ** 0.5
GOLD_STD = re.compile(r"sqrt\(\s*[\w.]*\bvar_g\s*\)|\bvar_g\s*\*\*\s*0?\.5\b")
CENTERED = re.compile(r"\.centered\b")


def _offenders(pattern, skip=()):
    return [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in skip
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]


def test_no_module_but_stats_computes_moments():
    offenders = _offenders(MOMENT_CALL, skip=("stats.py",))
    assert offenders == [], "moments computed outside stats._moments:\n" + "\n".join(offenders)


def test_gold_std_comes_from_sigma_g():
    offenders = _offenders(GOLD_STD)
    assert offenders == [], "a gold std not from CenteredGold.sigma_g:\n" + "\n".join(offenders)


def test_no_module_reads_the_unscaled_centred_gold():
    offenders = _offenders(CENTERED, skip=("mse_bounds.py",))
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
