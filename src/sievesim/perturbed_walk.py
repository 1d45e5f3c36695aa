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

import functools
from dataclasses import dataclass

import numpy as np

from .distributions import ModelParams, sample_w_pair

__all__ = ["WalkPath", "walk_points", "generate_walk", "weighted_sum_statistic"]


def walk_points(draw, starts: np.ndarray, horizon: float, rng: np.random.Generator):
    """All points at or below the horizon of one walk per start.

    Walk i is shifted by starts[i] and keeps one running position
    starts[i] + S_k.  Each wave asks draw(rng, n) -> (eta, xi) for one
    increment pair per live walk, in walk order, so the random stream
    depends only on the starts and the horizon; the wave's points are the
    positions plus eta, and then the positions move by xi.  eta and xi may
    be one array, and starts is left unchanged.  Returns (owner,
    points, exit_mass): the walk index and value of each kept point in
    generation order, and the sum of e^-x over the points beyond the horizon
    and the residuals starts[i] + S_k at which walks leave.  For
    stick-breaking pairs the kept e^-points plus exit_mass is the mass
    sum of e^-starts, the ledger identity behind the pruning bias bound.
    """
    owners: list[np.ndarray] = []
    points: list[np.ndarray] = []
    exit_mass = 0.0
    # the live walks: index and running position (a copy, updated in place)
    act = np.arange(starts.size)
    pos = np.array(starts, dtype=float)
    while act.size:
        eta, xi = draw(rng, act.size)
        born = pos + eta
        keep = born <= horizon
        kept = np.count_nonzero(keep)
        if kept:
            owners.append(act[keep])
            points.append(born[keep])
        if kept < keep.size:
            exit_mass += float(np.sum(np.exp(-born[~keep])))
        pos += xi
        done = pos > horizon
        if done.any():
            exit_mass += float(np.sum(np.exp(-pos[done])))
            live = np.flatnonzero(~done)  # one scan serves both gathers
            act, pos = act[live], pos[live]
    if not owners:
        return np.empty(0, dtype=np.int64), np.empty(0), exit_mass
    return np.concatenate(owners), np.concatenate(points), exit_mass


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
    owner, points, _ = walk_points(functools.partial(sample_w_pair, params),
                                   np.zeros(n_walks), horizon, rng)
    return WalkPath(horizon=horizon, n_walks=n_walks, owner=owner, t_values=points)


def weighted_sum_statistic(path: WalkPath, v_grid) -> np.ndarray:
    """Per walk, the sum of v_grid(t - T_r) over its points T_r, all at or
    below t = path.horizon (0.0 for a walk without points).

    v_grid is a GridFunction covering [0, t]; values between grid nodes are
    linearly interpolated.
    """
    t = path.horizon
    if v_grid.horizon < t:
        raise ValueError(f"grid covers [0, {v_grid.horizon:.6g}] but t={t}")
    weights = v_grid(t - path.t_values)
    return np.bincount(path.owner, weights=weights, minlength=path.n_walks)
