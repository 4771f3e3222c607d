"""cccmap: the exact many-to-many mapping between the concordance correlation
coefficient and mean-square-error-family metrics, with constructive bounds,
optimal error orderings, a fixed-norm extremizer, concordance-aware losses,
and brute-force auditing oracles.

``import cccmap`` loads no numerical module. The errors and the tolerance table
are bound at import; every other public name is looked up in its submodule on
each access (PEP 562), which imports the submodule the first time. Nothing is
cached here, so a name rebound in its submodule is seen through the package.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

from .errors import (
    CccmapError,
    DegenerateVariance,
    InvalidInput,
    NoConjugate,
    NotConverged,
    Singularity,
    TooLarge,
)
from .tolerances import TOL, Tolerances

# submodule -> the public names that the package resolves from it
_EXPORTS = {
    "stats": (
        "CenteredGold", "PairStats", "ccc", "covariance", "lp_norm", "mae", "mean", "mke", "mse",
        "pair_stats", "pearson", "population_variance", "variance_identity_residual",
    ),
    "mse_bounds": (
        "MseBoundsResult", "bounds_given_mse", "ccc_from_mse_cov", "center_gold", "envelope_kernel",
        "lower_envelope", "mse_region_table", "upper_envelope",
    ),
    "lk_bounds": (
        "LkEnvelope", "RmseBand", "conjugate_theta", "envelope_given_lk", "lk_region_table",
        "norm_sandwich", "theta_band",
    ),
    "ordering": (
        "ErrorSet", "OrderingExtremes", "PermutationResult", "error_set", "optimal_permutations",
    ),
    "even_p": (
        "SolverState", "StationarityProblem", "scaled_residual", "solve",
    ),
    "losses": ("LossParams", "TrainingTrace", "loss", "loss_gradient", "training_trace"),
    "oracles": (
        "OracleReport", "finite_difference", "lk_sphere_oracle", "mse_sphere_oracle",
        "permutation_oracle",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# what the eager imports bound above, then every submodule and the names resolved from them
__all__ = sorted([*(name for name in globals() if not name.startswith("_")), *_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
