"""First passage of the one-sided stable subordinator and limit-law samplers.

Everything here uses the standard subordinator normalized so that the
log-Laplace transform of the value at time 1 is -Gamma(1-alpha) * s^alpha.
Every sampler grows subordinator paths D through one wave kernel,
_accumulate_crossings, on a time grid of step h, and scores each visited
point against lookup tables at the nearest node of a level grid.  A grid
first-passage time (count_below * h) is one-sided: it overshoots the exact
inverse value by at most one time step.  The limit-law samplers integrate
f(D_t) dt by the trapezoid rule in time instead, so their draws are second
order in both steps, and they report explicit truncation bounds where they
truncate.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gamma as gamma_fn

from .distributions import sample_positive_stable

__all__ = [
    "inverse_mean_coef",
    "sample_limit_integrals",
    "sample_fixed_level_limits",
]

_WAVE = 64  # increments drawn per path per vectorized round
_BATCH = 20000  # paths grown together; bounds the wave buffers


def inverse_mean_coef(alpha: float) -> float:
    """Coefficient k with E[inverse(y)] = k * y^alpha for the standard subordinator."""
    return 1.0 / (gamma_fn(1.0 - alpha) * gamma_fn(1.0 + alpha))


def _accumulate_crossings(alpha, n_paths, y_horizon, y_step, v_step, tables, rng):
    """Core wave sampler shared by the inverse/limit ops.

    Grows subordinator paths with time step v_step until they cross
    y_horizon, scoring each visited point Z_k <= y_horizon (the origin
    included) with table[rint(Z_k / y_step)] for every lookup table; each
    table holds its integrand at the level nodes 0, y_step, ..., m y_step
    with m = round(y_horizon / y_step).  Returns (scores[n_tables, n_paths],
    count_below[n_paths]); count_below times v_step is the grid first-passage
    time of y_horizon.
    """
    m = int(round(y_horizon / y_step))
    # Z <= y_horizon rounds to a node <= m; index m + 1 marks a point beyond
    # the horizon, and its padded entry scores 0
    padded = [np.append(table, 0.0) for table in tables]
    scores = np.empty((len(tables), n_paths))
    counts = np.ones(n_paths)  # Z_0 = 0 always counts
    for i, table in enumerate(tables):
        scores[i] = table[0]
    for start in range(0, n_paths, _BATCH):
        nb = min(_BATCH, n_paths - start)
        acc = scores[:, start:start + nb]
        cnt = counts[start:start + nb]
        idx_buf = np.empty((nb, _WAVE), dtype=np.int64)
        val_buf = np.empty((nb, _WAVE))
        z = np.zeros(nb)
        act = np.arange(nb)
        while act.size:
            zp = sample_positive_stable(alpha, v_step, rng, (act.size, _WAVE))
            np.cumsum(zp, axis=1, out=zp)
            zp += z[act, None]
            beyond = zp > y_horizon
            cnt[act] += _WAVE - beyond.sum(axis=1)
            z[act] = zp[:, -1]
            if padded:
                zp /= y_step
                np.rint(zp, out=zp)
                zp[beyond] = m + 1
                idx = idx_buf[:act.size]
                np.copyto(idx, zp, casting="unsafe")
                vals = val_buf[:act.size]
                for i, table in enumerate(padded):
                    acc[i, act] += np.take(table, idx, out=vals).sum(axis=1)
            act = act[z[act] <= y_horizon]
    return scores, counts


def sample_limit_integrals(alpha: float, u_list, n_draws: int, rng: np.random.Generator):
    """Joint draws of the exponential integrals against one inverse path.

    For each draw one inverse path feeds every u in u_list.  The Stieltjes
    integral of e^(-alpha u y) against the inverse equals the exponential
    functional int_0^inf e^(-alpha u Z_t) dt of the subordinator Z, which
    is integrated by the trapezoid rule in time up to the passage of the
    horizon Y, with e^(-alpha u y) read at the nearest level node.  Each
    draw stays positive and exactly nonincreasing in u.  Returns
    (values, tails), both shaped (n_draws, len(u_list)); tails are the
    reported truncation bounds e^(-alpha u Y) inverse(Y) (1 + 1/(alpha u)),
    with inverse(Y) the grid first passage, which overshoots by at most
    one time step.  The horizon Y is 40/(alpha u_min), the level step
    Y / 2^14 and the time step Y / 2^12; the mean then lies within about
    (h Phi)^2 / 12 of exact, relative, with h the time step and
    Phi = Gamma(1-alpha) (alpha u)^alpha.

    Raises when any reported tail bound exceeds 1e-3 of its estimate.
    """
    u_arr = np.asarray(u_list, dtype=float)
    if u_arr.size == 0 or np.any(u_arr <= 0.0):
        raise ValueError("u_list must be nonempty positive reals")
    y_horizon = 40.0 / (alpha * float(u_arr.min()))
    y_step, v_step = y_horizon / 2 ** 14, y_horizon / 2 ** 12
    y_grid = np.arange(2 ** 14 + 1) * y_step
    tables = [np.exp(-alpha * u * y_grid) for u in u_arr]
    scores, counts = _accumulate_crossings(alpha, n_draws, y_horizon, y_step, v_step,
                                           tables, rng)
    # trapezoid weights: the origin, scored with e^0 = 1, carries half a step
    values = v_step * (scores - 0.5)
    au = alpha * u_arr[:, None]
    tails = np.exp(-au * y_horizon) * (counts * v_step) * (1.0 + 1.0 / au)
    if np.any(tails > 1e-3 * np.maximum(values, 1e-300)):
        raise ValueError("truncation too coarse: tail bound exceeds 1e-3 of the estimate")
    return values.T, tails.T


def sample_fixed_level_limits(alpha: float, js, n_draws: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Joint draws of the fixed-level limits at every depth j in js: the
    pathwise Stieltjes integrals of (1-y)^(alpha*(j-1)) over [0,1] against
    one inverse path per draw.  Returns shape (n_draws, len(js)).

    Each column has its depth's marginal law, and the integrand decreases
    in j, so each draw is nonincreasing along increasing depths.  The
    integral is taken by the trapezoid rule in time up to the passage of
    level 1, with the integrand read at the nearest level node; for j = 1
    the integrand is 1 and the draw is the grid first-passage time of
    level 1 less half a time step.  The level grid step is 2^-14 and the
    time step inverse_mean_coef(alpha) / 256.
    """
    if len(js) == 0 or any(j < 1 for j in js):
        raise ValueError("js must be nonempty positive integers")
    y_step = 1.0 / 2 ** 14
    y_grid = np.arange(2 ** 14 + 1) * y_step
    tables = [(1.0 - y_grid) ** (alpha * (j - 1)) for j in js]
    v_step = inverse_mean_coef(alpha) / 256.0
    scores, _ = _accumulate_crossings(alpha, n_draws, 1.0, y_step, v_step, tables, rng)
    # trapezoid weights: the origin, scored with f(0) = 1, carries half a step
    return v_step * (scores.T - 0.5)
