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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .distributions import DerivedConstants, ModelParams, sample_w_pair, sample_xi
from .perturbed_walk import w_pair_draw, walk_points

__all__ = [
    "GridFunction",
    "estimate_V",
    "estimate_U",
    "convolve",
    "convolution_powers",
    "fit_two_term",
    "check_vj_bound_chain",
    "uniform_ratio_sup",
    "check_u_equation",
    "BoundReport",
    "UEquationReport",
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
        out = np.interp(x_arr, self.grid(), self.values)
        return float(out) if np.isscalar(x) else out

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
    if n_replicas < 100:
        raise ValueError("n_replicas must be at least 100")
    mean, se = _count_grid_mc(w_pair_draw(sample_w_pair, params), horizon, step,
                              n_replicas, rng, origin_mass=False)
    return GridFunction(step=step, values=mean, se=se)


def estimate_U(params: ModelParams, horizon: float, step: float, n_replicas: int,
               rng: np.random.Generator) -> GridFunction:
    """Pointwise MC average of the number of walk points S_i <= t, i >= 0."""
    if n_replicas < 100:
        raise ValueError("n_replicas must be at least 100")

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


def fit_two_term(v: GridFunction, renewal_coef: float, alpha: float,
                 beta: float) -> float:
    """Smallest D with |v(t) - C t^alpha| <= D t^beta on the grid (t > 0)."""
    if not 0.0 <= beta < alpha:
        raise ValueError("beta must lie in [0, alpha)")
    t = v.grid()[1:]
    dev = np.abs(v.values[1:] - renewal_coef * t ** alpha)
    return float(np.max(dev / t ** beta))


@dataclass
class BoundReport:
    """Outcome of the convolution-power bound checks."""

    n_checked: int
    violations: list = field(default_factory=list)
    uniform_sups: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations


def _log_t(t: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(t)


def _power_term(consts: DerivedConstants, j: int, t: np.ndarray) -> np.ndarray:
    """rho_j * t^(alpha j), evaluated in log space."""
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = np.exp(consts.log_power_coefs[j]
                      + consts.alpha * j * np.log(t[pos]))
    return out


def check_vj_bound_chain(v_list: list[GridFunction], consts: DerivedConstants) -> BoundReport:
    """Verify the deviation bounds of the convolution powers on the grid.

    For every power j <= len(v_list) and grid point t the binomial-sum
    deviation envelope is asserted; where the smallness condition
    2 D Gamma(beta+1) j (alpha(j-1)+beta+1)^(alpha-beta) <= C Gamma(alpha+1) t^(alpha-beta)
    holds, the simplified 2.1-factor bound and the 3.31 growth envelope are
    asserted as well.  Violations beyond the slack
    eps = (hi - lo)/2 + 3 h Lipschitz (hi/lo: convolution chains of the
    estimate +/- 3 SE) are reported, not raised.  For j <= 4 the sup of
    |V_j / (rho_j t^(alpha j)) - 1| over t >= horizon / 8 goes to
    uniform_sups[j].
    """
    if consts.residual_coef is None:
        raise ValueError("fit residual_coef (fit_two_term) before checking bounds")
    v = v_list[0]
    j_max = len(v_list)
    alpha, beta = consts.alpha, consts.residual_exp
    coef, dd = consts.renewal_coef, consts.residual_coef
    h = v.step
    t = v.grid()
    log_t = _log_t(t)

    se = v.se if v.se is not None else np.zeros_like(v.values)
    hi = GridFunction(step=h, values=np.maximum.accumulate(v.values + 3.0 * se))
    lo_vals = np.maximum.accumulate(np.maximum(v.values - 3.0 * se, 0.0))
    lo_vals[0] = 0.0
    lo = GridFunction(step=h, values=lo_vals)
    hi_pow = convolution_powers(hi, j_max)
    lo_pow = convolution_powers(lo, j_max)

    report = BoundReport(n_checked=0)
    log_ga1 = gammaln(alpha + 1.0)
    log_gb1 = gammaln(beta + 1.0)
    log_c = math.log(coef)
    log_d = math.log(dd) if dd > 0.0 else -math.inf

    for j in range(1, j_max + 1):
        vj = v_list[j - 1].values
        n = vj.size
        slope = np.zeros(n)
        slope[1:] = np.diff(vj) / h
        eps = 0.5 * (hi_pow[j - 1].values[:n] - lo_pow[j - 1].values[:n]) \
            + 3.0 * h * slope + 1e-9
        target = _power_term(consts, j, t[:n])
        lhs = np.abs(vj - target)

        # binomial deviation envelope, each term in log space
        rhs = np.zeros(n)
        for i in range(j):
            const = (gammaln(j + 1) - gammaln(i + 1) - gammaln(j - i + 1)
                     + i * log_ga1 + (j - i) * log_gb1
                     - gammaln(alpha * i + beta * (j - i) + 1.0)
                     + i * log_c + (j - i) * log_d)
            expo = alpha * i + beta * (j - i)
            term = np.zeros(n)
            pos = t[:n] > 0.0
            term[pos] = np.exp(const + expo * log_t[:n][pos])
            if expo == 0.0:
                term[~pos] = math.exp(const)
            rhs += term

        bad = lhs > rhs + eps
        bad[0] = False  # t = 0: both sides vanish
        for m in np.nonzero(bad)[0]:
            report.violations.append({
                "bound": "deviation-envelope", "j": j, "t": float(t[m]),
                "lhs": float(lhs[m]), "rhs": float(rhs[m]), "eps": float(eps[m]),
            })
        report.n_checked += n - 1

        # smallness condition for the simplified bounds
        cond_lhs = (2.0 * dd * math.exp(log_gb1) * j
                    * (alpha * (j - 1) + beta + 1.0) ** (alpha - beta))
        cond = np.zeros(n, dtype=bool)
        pos = t[:n] > 0.0
        cond[pos] = cond_lhs <= coef * math.exp(log_ga1) * t[:n][pos] ** (alpha - beta)
        if cond.any():
            const21 = (math.log(2.1) + log_d + (j - 1) * log_c + math.log(j)
                       + (j - 1) * log_ga1 + log_gb1
                       - gammaln(alpha * (j - 1) + beta + 1.0))
            rhs21 = np.zeros(n)
            rhs21[pos] = np.exp(const21 + (alpha * (j - 1) + beta) * log_t[:n][pos])
            bad21 = cond & (lhs > rhs21 + eps)
            for m in np.nonzero(bad21)[0]:
                report.violations.append({
                    "bound": "simplified-2.1", "j": j, "t": float(t[m]),
                    "lhs": float(lhs[m]), "rhs": float(rhs21[m]), "eps": float(eps[m]),
                })
            bad_env = cond & (vj > 3.31 * target + eps)
            for m in np.nonzero(bad_env)[0]:
                report.violations.append({
                    "bound": "growth-envelope", "j": j, "t": float(t[m]),
                    "lhs": float(vj[m]), "rhs": float(3.31 * target[m]), "eps": float(eps[m]),
                })
            report.n_checked += 2 * int(cond.sum())

        if j <= 4:
            y_min = v_list[j - 1].horizon / 8
            report.uniform_sups[j] = (y_min,
                                      uniform_ratio_sup(v_list, consts, j, y_min))
    return report


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


@dataclass
class UEquationReport:
    rows: list

    @property
    def passed(self) -> bool:
        return all(r["ok"] for r in self.rows)


def check_u_equation(params: ModelParams, t_list, n_mc: int, rng: np.random.Generator,
                     step: float | None = None) -> UEquationReport:
    """Dual-estimator check of the renewal function.

    The grid estimate of U(t) is compared with the average of
    Uhat(Z^-alpha t^alpha) over stable draws Z, where Uhat is the renewal
    function of the mean-one scaling walk: floor(x)+1 exactly for the stable
    law (degenerate scaling) and a Monte Carlo grid for the gamma mixture.
    Agreement is asserted within 4 combined standard errors.
    """
    from .distributions import WLaw, sample_positive_stable

    if params.law is WLaw.PARETO:
        raise ValueError("the scaling-walk identity holds for the stable and "
                         "gamma-mixture laws only")
    t_arr = np.asarray(t_list, dtype=float)
    horizon = float(t_arr.max())
    if step is None:
        step = horizon / 2 ** 12 if horizon > 0 else 1.0

    grid_u = (estimate_U(params, horizon, step, n_mc, rng)
              if horizon > 0 else None)

    z = sample_positive_stable(params.alpha, params.c, rng, n_mc)
    b = z ** (-params.alpha)

    uhat_grid = None
    if params.law is WLaw.GAMMA_MIXTURE:
        x_max = float(b.max()) * horizon ** params.alpha * 1.05 + 1.0
        x_step = x_max / 2 ** 12
        kappa = params.kappa

        def draw_gamma(rng_, n):
            inc = rng_.gamma(shape=kappa, scale=1.0 / kappa, size=n)
            return inc, inc

        mean, se = _count_grid_mc(draw_gamma, x_max, x_step, n_mc, rng, origin_mass=True)
        uhat_grid = GridFunction(step=x_step, values=mean, se=se)

    rows = []
    for t in t_arr:
        if t == 0.0:
            lhs, lhs_se = 1.0, 0.0
            rhs_draws = np.ones_like(b)
            uhat_se = 0.0
        else:
            idx = int(round(t / step))
            lhs = float(grid_u.values[idx])
            lhs_se = float(grid_u.se[idx])
            x = b * t ** params.alpha
            if params.law is WLaw.STABLE:
                rhs_draws = np.floor(x) + 1.0
                uhat_se = 0.0
            else:
                rhs_draws = uhat_grid(x)
                uhat_se = float(np.mean(uhat_grid.se[np.minimum(
                    np.round(x / uhat_grid.step).astype(np.int64),
                    uhat_grid.se.size - 1)]))
        rhs = float(np.mean(rhs_draws))
        rhs_se = float(np.std(rhs_draws) / math.sqrt(rhs_draws.size))
        se = math.sqrt(lhs_se ** 2 + rhs_se ** 2 + uhat_se ** 2)
        rows.append({
            "t": float(t), "lhs": lhs, "rhs": rhs, "combined_se": se,
            "ok": bool(abs(lhs - rhs) <= 4.0 * se + 1e-12),
        })
    return UEquationReport(rows=rows)
