"""The perturbed random walk: the one generator of stick-breaking points.

Walk points are T_k = S_(k-1) + eta_k where S is the random walk of
xi = |log W| increments and eta_k = |log(1-W_k)|.  They are the first-level
boxes of the sieve (box k has mass e^-T_k); every deeper level repeats the
walk from its parent's -log mass, and the renewal grids count its points.
Since all increments are positive, a walk can stop at the first k with S_k
beyond the horizon: every later point lies beyond it too, so truncation is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import ModelParams, sample_w_pair

__all__ = ["WalkPath", "walk_points", "w_pair_draw", "generate_walk",
           "weighted_sum_statistic"]


def walk_points(draw, starts: np.ndarray, horizon: float, rng: np.random.Generator):
    """All points at or below the horizon of one walk per start.

    Walk i is shifted by starts[i].  Each wave asks draw(rng, n) -> (eta, xi)
    for one increment pair per live walk, in walk order, so the random
    stream depends only on the starts and the horizon.  Returns (owner,
    points, exit_mass): the walk index and value of each kept point in
    generation order, and the sum of e^-x over the points beyond the horizon
    and the residuals starts[i] + S_k at which walks leave.  For
    stick-breaking pairs the kept e^-points plus exit_mass is the mass
    sum of e^-starts, the ledger identity behind the pruning bias bound.
    """
    owners: list[np.ndarray] = []
    points: list[np.ndarray] = []
    exit_mass = 0.0
    # the live walks: index, start, running sum of xi
    act = np.arange(starts.size)
    base = starts
    stick = np.zeros(act.size)
    while act.size:
        eta, xi = draw(rng, act.size)
        born = base + stick
        born += eta
        keep = born <= horizon
        kept = np.count_nonzero(keep)
        if kept:
            owners.append(act[keep])
            points.append(born[keep])
        if kept < keep.size:
            exit_mass += float(np.sum(np.exp(-born[~keep])))
        stick += xi
        residual = base + stick
        done = residual > horizon
        if done.any():
            exit_mass += float(np.sum(np.exp(-residual[done])))
            live = np.flatnonzero(~done)  # one scan serves the three gathers
            act, base, stick = act[live], base[live], stick[live]
    if not owners:
        return np.empty(0, dtype=np.int64), np.empty(0), exit_mass
    return np.concatenate(owners), np.concatenate(points), exit_mass


def w_pair_draw(sampler, params: ModelParams):
    """The walk_points draw for stick-breaking pairs from sampler(params,
    rng, n), a WPair sampler such as sample_w_pair."""
    def draw(rng, n):
        pair = sampler(params, rng, n)
        return pair.neglog_1mw, pair.neglog_w
    return draw


@dataclass
class WalkPath:
    """A batch of independent walks truncated at a horizon.

    t_values holds every point T_k <= horizon of every walk, and owner[i]
    is the walk (0 .. n_walks-1) that t_values[i] belongs to.
    """

    horizon: float
    n_walks: int
    owner: np.ndarray
    t_values: np.ndarray


def generate_walk(params: ModelParams, horizon: float, rng: np.random.Generator,
                  n_walks: int) -> WalkPath:
    """Generate all points up to the horizon of n_walks independent walks."""
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    owner, points, _ = walk_points(w_pair_draw(sample_w_pair, params),
                                   np.zeros(n_walks), horizon, rng)
    return WalkPath(horizon=horizon, n_walks=n_walks, owner=owner, t_values=points)


def weighted_sum_statistic(path: WalkPath, v_grid, t: float) -> np.ndarray:
    """Per walk, the sum of v_grid(t - T_r) over its points T_r <= t
    (0.0 for a walk without such points).

    v_grid is a GridFunction covering [0, t]; values between grid nodes are
    linearly interpolated.
    """
    if t > path.horizon:
        raise ValueError(f"t={t} is beyond the walk horizon {path.horizon}")
    if v_grid.horizon < t:
        raise ValueError(f"grid covers [0, {v_grid.horizon:.6g}] but t={t}")
    inside = path.t_values <= t
    weights = v_grid(t - path.t_values[inside])
    return np.bincount(path.owner[inside], weights=weights, minlength=path.n_walks)
