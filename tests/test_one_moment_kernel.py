"""Guard: no module but ``stats`` calls a numpy mean, variance, deviation or covariance."""

import re
from pathlib import Path

import cccmap

PACKAGE = Path(cccmap.__file__).parent
MOMENT_CALL = re.compile(r"\.mean\(|\bnp\.(mean|var|std|cov)\b")


def test_no_module_but_stats_computes_moments():
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "stats.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if MOMENT_CALL.search(line)
    ]
    assert offenders == [], "moments computed outside stats._moments:\n" + "\n".join(offenders)
