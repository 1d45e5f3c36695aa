"""First passage of the one-sided stable subordinator and limit-law samplers.

Everything here uses the standard subordinator normalized so that the
log-Laplace transform of the value at time 1 is -Gamma(1-alpha) * s^alpha.
Every sampler grows subordinator paths through one wave kernel,
_accumulate_crossings, and computes first passages on grids; the discretization of
an inverse value is one-sided (biased upward by at most one time step) and
the samplers report explicit truncation bounds where they truncate.
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

_WAVE = 256  # increments drawn per path per vectorized round
_BATCH = 20000  # paths grown together; bounds the wave buffers


def inverse_mean_coef(alpha: float) -> float:
    """Coefficient k with E[inverse(y)] = k * y^alpha for the standard subordinator."""
    return 1.0 / (gamma_fn(1.0 - alpha) * gamma_fn(1.0 + alpha))


def _accumulate_crossings(alpha, n_paths, y_horizon, y_step, v_step, tables, rng):
    """Core wave sampler shared by the inverse/limit ops.

    Grows subordinator paths with time step v_step until they cross
    y_horizon, scoring each visited point Z_k <= y_horizon (the origin
    included) with table[ceil(Z_k / y_step)] for every lookup table.
    Returns (scores[n_tables, n_paths], count_below[n_paths]); count_below
    times v_step is the grid first-passage time of y_horizon.
    """
    m = int(round(y_horizon / y_step))
    # index m + 1 marks a point beyond the horizon; its padded entry scores 0
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
                np.ceil(zp, out=zp)
                np.minimum(zp, m, out=zp)
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

    For each draw one inverse path feeds every u in u_list; the integral
    uses the integration-by-parts form
    alpha*u*int_0^Y inverse(y) e^(-alpha u y) dy + e^(-alpha u Y) inverse(Y).
    The grid inverse is a step function, so the by-parts integral is
    evaluated in closed form; it telescopes back to an exponential lookup
    per path point, keeping each draw exactly nonincreasing in u.  Returns
    (values, tails), both shaped (n_draws, len(u_list)); tails are the
    reported truncation bounds e^(-alpha u Y) inverse(Y) (1 + 1/(alpha u)).
    The horizon Y is 40/(alpha u_min) and both grid steps are Y / 2^14,
    making the tail bound negligible.

    Raises when any reported tail bound exceeds 1e-3 of its estimate.
    """
    u_arr = np.asarray(u_list, dtype=float)
    if u_arr.size == 0 or np.any(u_arr <= 0.0):
        raise ValueError("u_list must be nonempty positive reals")
    m = 2 ** 14
    y_horizon = 40.0 / (alpha * float(u_arr.min()))
    y_step = v_step = y_horizon / m
    y_grid = np.arange(m + 1) * y_step
    # exact by-parts value for the step inverse: v_step * sum_k e^(-a u Y_k)
    # with Y_k the level-grid point just above the k-th path value
    tables = [np.exp(-alpha * u * y_grid) for u in u_arr]
    scores, counts = _accumulate_crossings(alpha, n_draws, y_horizon, y_step, v_step,
                                           tables, rng)
    inv_y = counts * v_step
    values = np.empty((n_draws, u_arr.size))
    tails = np.empty_like(values)
    for i, u in enumerate(u_arr):
        au = alpha * u
        values[:, i] = v_step * scores[i]
        tails[:, i] = np.exp(-au * y_horizon) * inv_y * (1.0 + 1.0 / au)
    if np.any(tails > 1e-3 * np.maximum(values, 1e-300)):
        raise ValueError("truncation too coarse: tail bound exceeds 1e-3 of the estimate")
    return values, tails


def sample_fixed_level_limits(alpha: float, js, n_draws: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Joint draws of the fixed-level limits at every depth j in js: the
    pathwise Stieltjes integrals of (1-y)^(alpha*(j-1)) over [0,1] against
    one inverse path per draw.  Returns shape (n_draws, len(js)).

    Each column has its depth's marginal law, and the integrand decreases
    in j, so each draw is nonincreasing along increasing depths.  For j = 1
    the integrand is 1 and the draw is exactly the grid first-passage time
    of level 1.  The level grid step is 2^-14 and the time step
    inverse_mean_coef(alpha) / 1024.
    """
    if len(js) == 0 or any(j < 1 for j in js):
        raise ValueError("js must be nonempty positive integers")
    y_step = 1.0 / 2 ** 14
    v_step = inverse_mean_coef(alpha) / 1024.0
    m = int(round(1.0 / y_step))
    # table[idx]: mass falling in bin (y_(idx-1), y_idx] is scored with the
    # midpoint integrand; the origin atom (idx 0) with the left endpoint.
    y_mid = (np.arange(m) + 0.5) * y_step
    tables = [np.concatenate(([1.0], (1.0 - y_mid) ** (alpha * (j - 1)))) for j in js]
    scores, _ = _accumulate_crossings(alpha, n_draws, 1.0, y_step, v_step, tables, rng)
    return scores.T * v_step
