"""Write the even-k solver sweep fixture: 96 problems and one solver's results on them.

12 seeds x k in {2, 4, 6, 8} x max/min. Each seed draws n from 3 to 39 and a
standard normal gold at scale 10^U(-3, 3); each k draws lk = U(0.2, 3) times the
centred gold's L_k norm. Every problem is solved with seed 0 by the ``cccmap`` on
the import path, and the fixture keeps the gold, k, lk, the objective and the
solver's objective_value and ccc.

``tests/data/even_p_sweep.json`` holds the results of the multi-start ascent
solver of commit 1767cbd, which the structural solver must match or beat:

    PYTHONPATH=<checkout of 1767cbd>/src python tests/data/make_even_p_sweep.py \\
        tests/data/even_p_sweep.json
"""

import json
import sys

import numpy as np

from cccmap import center_gold, lp_norm, solve
from cccmap.even_p import StationarityProblem


def main(path: str) -> None:
    rows = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        gold = rng.standard_normal(n) * 10 ** rng.uniform(-3, 3)
        centred = center_gold(gold)
        for k in (2, 4, 6, 8):
            lk = float(rng.uniform(0.2, 3.0)) * lp_norm(centred.centered, k)
            for objective in ("max", "min"):
                state = solve(StationarityProblem(centred, k, lk, objective), seed=0)
                rows.append({
                    "seed": seed, "k": k, "lk": lk, "objective": objective,
                    "gold": gold.tolist(), "objective_value": state.objective_value,
                    "ccc": state.ccc_value,
                })
    with open(path, "w") as out:
        json.dump(rows, out)
        out.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
