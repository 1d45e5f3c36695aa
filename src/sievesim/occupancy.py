"""The nested occupancy scheme: pruned weighted trees and ball throwing.

Boxes form an infinite tree whose level masses come from iterated
stick-breaking.  Only boxes with mass at or above a threshold are stored;
all discarded mass is accounted in a per-level pruning ledger so every
occupancy count carries an explicit bias bound.  Ball counts as large as
e^1000 are supported by carrying log n, with occupancy Poissonized at the
deepest retained level and propagated through prefixes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import DerivedConstants, ModelParams, sample_w_pair
from .perturbed_walk import w_pair_draw, walk_points

__all__ = [
    "OccupancyTree",
    "OccupancyResult",
    "expand_tree",
    "throw_balls_exact",
    "occupancy_poissonized",
    "normalize_counts",
    "count_N_j",
]

_EXACT_MODE_MAX_BALLS = 10 ** 7


@dataclass
class OccupancyTree:
    """Pruned weighted tree of boxes, one array pair per level.

    parents[l] and neglogs[l] (level l+1) hold each retained node's parent
    ordinal in the previous level and its -log mass; the root (level 0) is
    implicit with neglog 0.  pruned_at[l] is the total mass of stubs pruned
    while generating level l+1: a stub's whole subtree is gone, so the mass
    reachable at level j is the cumulative sum over levels <= j.
    """

    max_level: int
    neglog_threshold: float
    parents: list[np.ndarray]
    neglogs: list[np.ndarray]
    pruned_at: np.ndarray

    def level_size(self, j: int) -> int:
        return self.neglogs[j - 1].size

    def pruned_mass(self, j: int) -> float:
        """P-mass of pruned stubs reachable at level j (levels 1..j)."""
        return float(np.sum(self.pruned_at[:j]))


@dataclass
class OccupancyResult:
    """Occupied-box counts per level with the pruning bias alongside.

    counts[j-1] is the retained-only lower count at level j;
    pruned_bias_bound[j-1] bounds the boxes possibly missed through pruning.
    """

    counts: np.ndarray
    pruned_bias_bound: np.ndarray


def expand_tree(params: ModelParams, max_level: int, rng: np.random.Generator, *,
                neglog_threshold: float, node_cap: int = 10 ** 8) -> OccupancyTree:
    """Breadth-first expansion retaining boxes of mass >= e^-neglog_threshold.

    Each level runs the perturbed walk from every retained parent's -log
    mass: fresh stick-breaking children are generated until the residual
    stick mass falls below the threshold; the residual bounds every further
    child, so no retained child is missed.  Children below the threshold
    are not stored and never descended; their masses plus the final
    residual feed the pruning ledger of their level.
    """
    if not neglog_threshold > 0.0:
        raise ValueError("neglog_threshold must be positive")
    if max_level < 1:
        raise ValueError("max_level must be at least 1")

    t_star = float(neglog_threshold)
    draw = w_pair_draw(sample_w_pair, params)
    parents: list[np.ndarray] = []
    neglogs: list[np.ndarray] = []
    pruned_at = np.zeros(max_level)

    parent_neglog = np.zeros(1)  # the root
    for level in range(1, max_level + 1):
        parent, neglog, pruned_at[level - 1] = walk_points(draw, parent_neglog, t_star, rng)
        parents.append(parent)
        neglogs.append(neglog)
        if neglog.size > node_cap:
            raise RuntimeError(
                f"retained nodes at level {level} exceed the cap "
                f"({neglog.size} > {node_cap}); raise the threshold or the cap")
        parent_neglog = neglog
    return OccupancyTree(max_level=max_level, neglog_threshold=t_star,
                         parents=parents, neglogs=neglogs, pruned_at=pruned_at)


def _propagate_counts(tree: OccupancyTree, leaf_occupied: np.ndarray) -> np.ndarray:
    """Counts per level of retained nodes with an occupied retained
    descendant at the deepest level (prefix propagation)."""
    counts = np.zeros(tree.max_level, dtype=np.int64)
    occ = leaf_occupied
    counts[tree.max_level - 1] = int(occ.sum())
    for j in range(tree.max_level - 1, 0, -1):
        parent_occ = np.zeros(tree.level_size(j), dtype=bool)
        parent_occ[tree.parents[j][occ]] = True
        counts[j - 1] = int(parent_occ.sum())
        occ = parent_occ
    return counts


def throw_balls_exact(tree: OccupancyTree, n: int, rng: np.random.Generator) -> OccupancyResult:
    """Throw exactly n balls: one multinomial over the retained deepest-level
    boxes plus one pruned bucket per level.

    Bucket balls are real but land in unstored boxes, so they feed the bias
    bound instead of the counts; a bucket at level l hides occupancy at all
    levels >= l, hence the cumulative bound.
    """
    if not 1 <= n <= _EXACT_MODE_MAX_BALLS:
        raise ValueError(f"exact mode supports 1 <= n <= {_EXACT_MODE_MAX_BALLS}")
    leaf_p = np.exp(-tree.neglogs[tree.max_level - 1])
    probs = np.concatenate([leaf_p, tree.pruned_at])
    total = probs.sum()
    if total > 1.0 + 1e-9:
        raise AssertionError(f"probabilities sum to {total}")
    counts = rng.multinomial(n, probs / total)
    nj = leaf_p.size
    leaf_occupied = counts[:nj] > 0
    bucket_balls = counts[nj:]
    level_counts = _propagate_counts(tree, leaf_occupied)
    bias = np.cumsum(bucket_balls).astype(float)
    return OccupancyResult(counts=level_counts, pruned_bias_bound=bias)


def occupancy_poissonized(tree: OccupancyTree, log_n: float,
                          rng: np.random.Generator) -> OccupancyResult:
    """Poissonized occupancy for n = e^log_n balls.

    With a Poisson(n) ball count the retained deepest-level boxes are
    occupied independently with probability 1 - exp(-n * mass); occupancy
    is sampled there and propagated to prefixes, preserving the nesting.
    The per-level bias bound is n times the pruned mass reachable there.
    """
    if not log_n > 0.0:
        raise ValueError("log_n must be positive")
    # p = 1 - exp(-exp(log_n - neglog)); capping the exponent at 36 is exact,
    # since -expm1(-exp(36)) is already 1.0, and keeps exp from overflowing
    p = log_n - tree.neglogs[tree.max_level - 1]
    np.minimum(p, 36.0, out=p)
    np.exp(p, out=p)
    np.negative(p, out=p)
    np.expm1(p, out=p)
    np.negative(p, out=p)
    leaf_occupied = rng.random(p.size) < p
    level_counts = _propagate_counts(tree, leaf_occupied)
    bias = np.empty(tree.max_level)
    for j in range(1, tree.max_level + 1):
        mass = tree.pruned_mass(j)
        bias[j - 1] = math.exp(log_n + math.log(mass)) if mass > 0.0 else 0.0
    for j in range(tree.max_level):
        if level_counts[j] > 0 and bias[j] > 0.01 * level_counts[j]:
            warnings.warn(
                f"pruned bias bound at level {j + 1} is {bias[j]:.3g}, more than 1% "
                f"of the count {level_counts[j]}", RuntimeWarning, stacklevel=2)
    return OccupancyResult(counts=level_counts, pruned_bias_bound=bias)


def normalize_counts(count, log_n: float, params: ModelParams,
                     consts: DerivedConstants, j: float, u: float) -> float:
    """The depth-normalized count c j^alpha K(floor(j u)) /
    (rho_(floor(ju)-1) (log n)^(alpha floor(ju))), evaluated in log space;
    count is K(floor(j u)), the occupied boxes at level floor(j u)."""
    level = math.floor(j * u)
    if level < 1:
        raise ValueError(f"floor(j*u) = {level}; the statistic needs level >= 1")
    if count == 0:
        return 0.0
    a = params.alpha
    log_val = (math.log(params.c) + a * math.log(j) + math.log(count)
               - consts.log_power_coefs[level - 1]
               - a * level * math.log(log_n))
    return math.exp(log_val)


def count_N_j(tree: OccupancyTree, t: float) -> np.ndarray:
    """Retained nodes per level with -log mass <= t (birth count at time t).

    Requires e^-t at or above the pruning threshold, else the counts would
    be silently biased down.
    """
    if t > tree.neglog_threshold:
        raise ValueError(
            f"t={t} exceeds -log(threshold)={tree.neglog_threshold}: counts would "
            "miss pruned boxes")
    return np.array([int(np.count_nonzero(tree.neglogs[j] <= t))
                     for j in range(tree.max_level)], dtype=np.int64)
