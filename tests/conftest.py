"""A test under ``tests/`` fails when it leaves a file or socket unclosed.

An unclosed handle warns with a ResourceWarning when it is collected, from a finalizer,
where a warning turned into an error cannot propagate: pytest reports it as a
PytestUnraisableExceptionWarning instead, so that warning is an error here too. The
filters go on the items in this directory only, so ``perfbench/`` keeps its own.
"""

from pathlib import Path

import pytest

HERE = Path(__file__).parent
LEAKS = ("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.parents:
            for leak in LEAKS:
                item.add_marker(pytest.mark.filterwarnings(leak))
