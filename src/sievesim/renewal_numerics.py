"""Grid estimation of the renewal and intensity functions and their
convolution powers, plus the quantitative bound checks built on them.

U(t) counts walk points S_i <= t (origin included), V(t) = E N(t) counts
perturbed-walk points, and V_j is the j-fold Lebesgue-Stieltjes convolution
power of V, equal to the mean number of depth-j tree nodes born by t.
Both are estimated pointwise by Monte Carlo on uniform grids; stable laws
admit no closed-form CDF, so the grids carry their standard errors and all
bound checks allow an explicit noise-plus-discretization slack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .distributions import DerivedConstants, ModelParams, sample_w_pair, sample_xi
from .perturbed_walk import walk_points

__all__ = [
    "GridFunction",
    "estimate_V",
    "estimate_U",
    "convolve",
    "convolution_powers",
    "fit_two_term",
    "check_vj_bound_chain",
    "uniform_ratio_sup",
]

_BATCH = 4096


@dataclass
class GridFunction:
    """A nondecreasing function sampled on the uniform grid 0, h, 2h, ...

    se, when present, is the pointwise Monte Carlo standard error.
    """

    step: float
    values: np.ndarray
    se: np.ndarray | None = None

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if np.any(np.diff(self.values) < -1e-9):
            raise ValueError("grid values must be nondecreasing")

    @property
    def horizon(self) -> float:
        return (self.values.size - 1) * self.step

    def grid(self) -> np.ndarray:
        return np.arange(self.values.size) * self.step

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr < -1e-9) or np.any(x_arr > self.horizon * (1 + 1e-12) + 1e-9):
            raise ValueError("argument outside the grid range")
        return np.interp(x_arr, self.grid(), self.values)

    def laplace_stieltjes(self, s: float) -> float:
        """int e^(-s t) dG(t) over [0, horizon]: the atom at 0 carries mass
        values[0]; increments are scored at cell midpoints."""
        mids = (np.arange(self.values.size - 1) + 0.5) * self.step
        return float(self.values[0] + np.sum(np.exp(-s * mids) * np.diff(self.values)))


def _count_grid_mc(draw, horizon: float, step: float, n_replicas: int,
                   rng: np.random.Generator, origin_mass: bool):
    """Monte Carlo mean and SE of a counting process on the grid.

    The points of each replica are those of perturbed_walk.walk_points from
    the origin with increments draw(rng, n) -> (eta, xi); origin_mass adds
    a point at 0.  Only the (replica, bin) pairs of the points are kept,
    never a replicas x bins matrix.  Sorted by bin within each replica, the
    k-th point of a replica (k = 1, 2, ...) adds 1 to its count N(t) and
    2k - 1 to N(t)^2 at every grid point t at or after its bin, since
    N(t)^2 = sum over k <= N(t) of 2k - 1.  All sums are integers below
    2^53, so they are exact in float64.  Replicas run in batches of _BATCH,
    which fixes the sizes of the draw calls and hence the random stream.
    """
    if n_replicas < 100:
        raise ValueError("n_replicas must be at least 100")
    nbin = int(round(horizon / step))
    total = np.zeros(nbin + 1)
    totsq = np.zeros(nbin + 1)
    for start in range(0, n_replicas, _BATCH):
        nb = min(_BATCH, n_replicas - start)
        reps, pts, _ = walk_points(draw, np.zeros(nb), horizon, rng)
        bins = np.ceil(pts / step).astype(np.int64)
        if origin_mass:
            reps = np.concatenate([np.arange(nb), reps])
            bins = np.concatenate([np.zeros(nb, dtype=np.int64), bins])
        order = np.lexsort((bins, reps))
        reps, bins = reps[order], bins[order]
        rank = np.arange(reps.size) - np.searchsorted(reps, reps)  # k - 1
        total += np.cumsum(np.bincount(bins, minlength=nbin + 1))
        totsq += np.cumsum(np.bincount(bins, weights=2 * rank + 1, minlength=nbin + 1))
    mean = total / n_replicas
    var = np.maximum(totsq / n_replicas - mean ** 2, 0.0)
    se = np.sqrt(var / max(n_replicas - 1, 1))
    return mean, se


def estimate_V(params: ModelParams, horizon: float, step: float, n_replicas: int,
               rng: np.random.Generator) -> GridFunction:
    """Pointwise MC average of N(t) over independent walks; monotone by
    construction since every replica count is monotone."""
    mean, se = _count_grid_mc(functools.partial(sample_w_pair, params), horizon, step,
                              n_replicas, rng, origin_mass=False)
    return GridFunction(step=step, values=mean, se=se)


def estimate_U(params: ModelParams, horizon: float, step: float, n_replicas: int,
               rng: np.random.Generator) -> GridFunction:
    """Pointwise MC average of the number of walk points S_i <= t, i >= 0."""
    def draw(rng_, n):  # the points S_i themselves: eta = xi
        xi = sample_xi(params, rng_, n)
        return xi, xi

    mean, se = _count_grid_mc(draw, horizon, step, n_replicas, rng, origin_mass=True)
    return GridFunction(step=step, values=mean, se=se)


def convolve(a: GridFunction, b: GridFunction) -> GridFunction:
    """Lebesgue-Stieltjes convolution on the common grid.

    out[m] = sum_(i=1..m) a((m-i+1/2)h) (b[i]-b[i-1]), the left factor read
    at cell midpoints by linear interpolation; second-order accurate for
    continuous nondecreasing inputs and monotone by construction.
    """
    if abs(a.step - b.step) > 1e-9 * max(a.step, b.step):
        raise ValueError(f"grid steps differ: {a.step} vs {b.step}")
    if a.values[0] != 0.0 or b.values[0] != 0.0:
        raise ValueError("convolution requires both grids to vanish at 0")
    n = min(a.values.size, b.values.size)
    a_mid = 0.5 * (a.values[:n - 1] + a.values[1:n])
    db = np.diff(b.values[:n])
    out = np.zeros(n)
    out[1:] = np.convolve(a_mid, db)[:n - 1]
    return GridFunction(step=a.step, values=out)


def convolution_powers(v: GridFunction, j_max: int) -> list[GridFunction]:
    """[V_1, ..., V_(j_max)] with V_1 = v and V_j = V_(j-1) * V."""
    if j_max < 1:
        raise ValueError("j_max must be at least 1")
    powers = [GridFunction(step=v.step, values=v.values.copy(), se=v.se)]
    for _ in range(2, j_max + 1):
        powers.append(convolve(powers[-1], v))
    return powers


def fit_two_term(v: GridFunction, renewal_coef: float, alpha: float) -> float:
    """Smallest D with |v(t) - C t^alpha| <= D on the grid (t > 0)."""
    t = v.grid()[1:]
    return float(np.max(np.abs(v.values[1:] - renewal_coef * t ** alpha)))


def _power_term(consts: DerivedConstants, j: int, t: np.ndarray) -> np.ndarray:
    """rho_j * t^(alpha j) for t > 0, evaluated in log space."""
    return np.exp(consts.log_power_coefs[j] + consts.alpha * j * np.log(t))


def check_vj_bound_chain(v_list: list[GridFunction], consts: DerivedConstants,
                         residual_coef: float) -> tuple[list, int]:
    """Verify the deviation bounds of the convolution powers on the grid.

    With the two-term bound |V(t) - C t^alpha| <= D, D = residual_coef
    (measured by fit_two_term), for every power
    j <= len(v_list) and grid point t > 0 the binomial-sum deviation envelope
    sum_(i<j) binom(j,i) (C Gamma(alpha+1))^i D^(j-i) t^(alpha i) / Gamma(alpha i+1)
    is asserted; where the smallness condition
    2 D j (alpha(j-1)+1)^alpha <= C Gamma(alpha+1) t^alpha
    holds, the simplified 2.1-factor bound and the 3.31 growth envelope are
    asserted as well.  t = 0, where every V_j vanishes, is not checked.
    Violations beyond the slack
    eps = (hi - lo)/2 + 3 h Lipschitz (hi/lo: convolution chains of the
    estimate +/- 3 SE of V = v_list[0]) are reported, not raised.  Returns
    (violations, n_checked): one dict per violation, and the number of
    (bound, j, t) checks made.
    """
    v = v_list[0]
    j_max = len(v_list)
    alpha = consts.alpha
    coef, dd = consts.renewal_coef, residual_coef
    h = v.step
    t = v.grid()[1:]
    log_t = np.log(t)

    hi = GridFunction(step=h, values=np.maximum.accumulate(v.values + 3.0 * v.se))
    lo_vals = np.maximum.accumulate(np.maximum(v.values - 3.0 * v.se, 0.0))
    lo_vals[0] = 0.0
    lo = GridFunction(step=h, values=lo_vals)
    hi_pow = convolution_powers(hi, j_max)
    lo_pow = convolution_powers(lo, j_max)

    violations, n_checked = [], 0
    log_ga1 = gammaln(alpha + 1.0)
    log_c = math.log(coef)
    log_d = math.log(dd) if dd > 0.0 else -math.inf

    for j in range(1, j_max + 1):
        values = v_list[j - 1].values
        vj = values[1:]
        eps = 0.5 * (hi_pow[j - 1].values[1:] - lo_pow[j - 1].values[1:]) \
            + 3.0 * h * (np.diff(values) / h) + 1e-9
        target = _power_term(consts, j, t)
        lhs = np.abs(vj - target)

        # binomial deviation envelope, each term in log space
        rhs = np.zeros(t.size)
        for i in range(j):
            const = (gammaln(j + 1) - gammaln(i + 1) - gammaln(j - i + 1)
                     + i * log_ga1 - gammaln(alpha * i + 1.0)
                     + i * log_c + (j - i) * log_d)
            rhs += np.exp(const + alpha * i * log_t)

        # smallness condition for the simplified bounds
        cond_lhs = 2.0 * dd * j * (alpha * (j - 1) + 1.0) ** alpha
        cond = cond_lhs <= coef * math.exp(log_ga1) * t ** alpha
        const21 = (math.log(2.1) + log_d + (j - 1) * log_c + math.log(j)
                   + (j - 1) * log_ga1 - gammaln(alpha * (j - 1) + 1.0))
        rhs21 = np.exp(const21 + alpha * (j - 1) * log_t)

        for bound, applies, lhs_b, rhs_b in (
                ("deviation-envelope", True, lhs, rhs),
                ("simplified-2.1", cond, lhs, rhs21),
                ("growth-envelope", cond, vj, 3.31 * target)):
            for m in np.nonzero(applies & (lhs_b > rhs_b + eps))[0]:
                violations.append({
                    "bound": bound, "j": j, "t": float(t[m]), "lhs": float(lhs_b[m]),
                    "rhs": float(rhs_b[m]), "eps": float(eps[m]),
                })
        n_checked += t.size + 2 * int(cond.sum())
    return violations, n_checked


def uniform_ratio_sup(v_list: list[GridFunction], consts: DerivedConstants, j: int,
                      y_min: float) -> float:
    """sup over grid points y >= y_min of |V_j(y) / (rho_j y^(alpha j)) - 1|."""
    vj = v_list[j - 1]
    t = vj.grid()
    mask = t >= y_min
    if not mask.any():
        raise ValueError("y_min is beyond the grid horizon")
    target = _power_term(consts, j, t[mask])
    return float(np.max(np.abs(vj.values[mask] / target - 1.0)))
