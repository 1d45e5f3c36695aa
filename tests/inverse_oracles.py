"""Reference draws of the inverse stable subordinator, used only by tests.

The grid first-passage sampler runs the same wave kernel as the limit-law
samplers, and the exact marginal comes from the first-passage duality, so
tests can compare the two.  self_similarity_check measures the scaling
property inverse(y / j) =d j^-alpha inverse(y) on path-based draws.
"""

import numpy as np

from sievesim.distributions import sample_positive_stable
from sievesim.stable_paths import _accumulate_crossings, inverse_mean_coef
from sievesim.stats import ks_two_sample


def inverse_at_level(alpha: float, y: float, n_draws: int, rng: np.random.Generator,
                     v_step: float) -> np.ndarray:
    """Grid first-passage draws of the inverse subordinator at level y.

    Each draw overshoots the exact passage time by at most v_step.
    """
    if not y > 0.0:
        raise ValueError("y must be positive")
    _, counts = _accumulate_crossings(alpha, n_draws, y, y, v_step, [], rng)
    return counts * v_step


def inverse_marginal_exact(alpha: float, y: float, n_draws: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Exact draws of the inverse marginal via the first-passage duality
    P{inverse(y) <= v} = P{Z(v) >= y}, i.e. inverse(y) =d (y / Z(1))^alpha."""
    z1 = sample_positive_stable(alpha, 1.0, rng, n_draws)
    return (y / z1) ** alpha


def self_similarity_check(alpha: float, j: float, n_draws: int,
                          rng: np.random.Generator) -> float:
    """Two-sample KS distance between inverse draws at level 1/j and
    j^-alpha times inverse draws at level 1, both path-based."""
    if not j > 0.0:
        raise ValueError("j must be positive")
    scale = inverse_mean_coef(alpha) * (1.0 / j) ** alpha
    v_step = scale / 512.0
    a = inverse_at_level(alpha, 1.0 / j, n_draws, rng, v_step=v_step)
    b = j ** (-alpha) * inverse_at_level(alpha, 1.0, n_draws, rng,
                                         v_step=v_step * j ** alpha)
    return ks_two_sample(a, b)
