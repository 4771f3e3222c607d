"""cccmap: the exact many-to-many mapping between the concordance correlation
coefficient and mean-square-error-family metrics, with constructive bounds,
optimal error orderings, a fixed-norm extremizer, concordance-aware losses,
and brute-force auditing oracles."""

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
from .stats import (
    PairStats,
    ccc,
    covariance,
    lp_norm,
    mae,
    mean,
    mke,
    mse,
    pair_stats,
    pearson,
    population_variance,
    variance_identity_residual,
)
from .mse_bounds import (
    CenteredGold,
    MseBoundsResult,
    bounds_given_mse,
    ccc_from_mse_cov,
    center_gold,
    envelope_kernel,
    lower_envelope,
    mse_region_table,
    upper_envelope,
)
from .lk_bounds import (
    LkEnvelope,
    RmseBand,
    conjugate_theta,
    envelope_given_lk,
    lk_region_table,
    norm_sandwich,
    theta_band,
)
from .ordering import (
    ErrorSet,
    OrderingExtremes,
    PermutationResult,
    error_set,
    optimal_permutations,
)
from .even_p import (
    SolverState,
    StationarityProblem,
    quadratic_in_gold,
    scaled_residual,
    solve,
)
from .losses import LossParams, TrainingTrace, loss, loss_gradient, training_trace
from .oracles import (
    OracleReport,
    finite_difference,
    lk_sphere_oracle,
    mse_sphere_oracle,
    permutation_oracle,
)
from .tolerances import TOL, Tolerances
