"""Seeded input generator for the benchmark.

Every array comes from ``numpy.random.default_rng([seed, stream])``: the same
seed gives the same values, and so the same bytes once written. cccmap only
ever sees the generated arrays or the files written from them.

Cells are written with ``format(v, ".17g")``, a plain decimal that round-trips
float64 exactly. ``repr`` would not do: under numpy 2 it yields
``np.float64(...)``, which the CLI rightly rejects.
"""

from __future__ import annotations

import numpy as np

# One independent stream per kind of input, so adding a kind never shifts the others.
STREAM_PAIR = 1
STREAM_SEARCH = 2

DELIMITERS = {"csv": ",", "tsv": "\t", "plain": " "}


def rng_for(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def gold_pred_errors(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """A gold standard, a correlated prediction and an error column of length n."""
    gold = rng.normal(rng.uniform(-5.0, 5.0), rng.uniform(1.0, 3.0), n)
    pred = rng.uniform(0.5, 1.0) * gold + rng.normal(0.5, 1.0, n)
    errors = rng.normal(0.0, rng.uniform(0.5, 1.5), n)
    return {"gold": gold, "pred": pred, "errors": errors}


def table_text(columns: dict[str, np.ndarray], fmt: str, header: bool) -> str:
    """The columns as a delimited table; one row per line, LF endings."""
    delim = DELIMITERS[fmt]
    lines = [delim.join(columns)] if header else []
    cells = [[format(v, ".17g") for v in col.tolist()] for col in columns.values()]
    lines.extend(delim.join(row) for row in zip(*cells))
    return "\n".join(lines) + "\n"


def write_table(path, columns: dict[str, np.ndarray], fmt: str = "csv", header: bool = False) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(table_text(columns, fmt, header))
