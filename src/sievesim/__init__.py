"""sievesim: simulation and numerical verification of nested occupancy
schemes driven by heavy-tailed stick-breaking."""

from .distributions import (
    DerivedConstants,
    ModelParams,
    WLaw,
    WPair,
    constants,
    gamma_ratio_bound_holds,
    laplace_xi,
    neg_moment_via_laplace,
    sample_positive_stable,
    sample_w_pair,
    sample_xi,
)
from .harness import DEFAULT_SEED, ExperimentConfig, Report, emit
from .occupancy import (
    OccupancyResult,
    OccupancyTree,
    count_N_j,
    expand_tree,
    normalize_counts,
    occupancy_poissonized,
    throw_balls_exact,
)
from .perturbed_walk import WalkPath, count_N, generate_walk, weighted_sum_statistic
from .renewal_numerics import (
    GridFunction,
    check_u_equation,
    check_vj_bound_chain,
    convolution_powers,
    convolve,
    estimate_U,
    estimate_V,
    fit_two_term,
)
from .stable_paths import (
    InversePath,
    SubordinatorPath,
    invert_path,
    sample_subordinator_path,
    self_similarity_check,
)
from .stats import ks_two_sample

__version__ = "0.1.0"
