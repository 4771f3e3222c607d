"""Single table of numerical tolerances used across the package and its tests.

Convention: 1e-12 relative for pure algebraic identities, 1e-9 for anything
reached iteratively or by sampling, with the tighter/looser special cases
named explicitly below.
"""

from typing import NamedTuple


class Tolerances(NamedTuple):
    algebraic_rtol: float = 1e-12    # exact closed-form identities
    iterative_rtol: float = 1e-9     # results of iteration / sampling
    attainment_rtol: float = 1e-10   # constructive extremes vs. envelope values
    constraint_rtol: float = 1e-8    # norm-constraint satisfaction of solver iterates
    residual_tol: float = 1e-8       # scaled stationarity residual at convergence
    oracle_slack: float = 1e-9       # slack granted to sampling oracles at the boundary


TOL = Tolerances()
