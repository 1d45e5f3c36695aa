"""Reference computations used only by tests.

throw_balls_exact throws exactly n balls into a pruned tree, the reference
that the Poissonized occupancy is compared against; check_u_equation tests
the renewal grid against the scaling-walk identity for U.
"""

import math
from dataclasses import dataclass

import numpy as np

from sievesim.distributions import ModelParams, WLaw, sample_positive_stable
from sievesim.occupancy import OccupancyTree, _propagate_counts
from sievesim.renewal_numerics import GridFunction, _count_grid_mc, estimate_U

_EXACT_MODE_MAX_BALLS = 10 ** 7


def throw_balls_exact(tree: OccupancyTree, n: int, rng: np.random.Generator):
    """Throw exactly n balls: one multinomial over the retained deepest-level
    boxes plus one pruned bucket per level.  Returns (counts, bias_bound)
    like occupancy_poissonized.

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
    return level_counts, bias


@dataclass
class UEquationReport:
    rows: list

    @property
    def passed(self) -> bool:
        return all(r["ok"] for r in self.rows)


def check_u_equation(params: ModelParams, t_list, n_mc: int,
                     rng: np.random.Generator) -> UEquationReport:
    """Dual-estimator check of the renewal function.

    The grid estimate of U(t) is compared with the average of
    Uhat(Z^-alpha t^alpha) over stable draws Z, where Uhat is the renewal
    function of the mean-one scaling walk: floor(x)+1 exactly for the stable
    law (degenerate scaling) and a Monte Carlo grid for the gamma mixture.
    Agreement is asserted within 4 combined standard errors.  The U grid
    has step max(t_list) / 2^12.
    """
    if params.law is WLaw.PARETO:
        raise ValueError("the scaling-walk identity holds for the stable and "
                         "gamma-mixture laws only")
    t_arr = np.asarray(t_list, dtype=float)
    horizon = float(t_arr.max())
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
