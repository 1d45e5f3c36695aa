"""Experiment orchestration: configuration, runners, statistics, emission.

Every experiment fans replicas out over fixed-size chunks, each chunk owning
a counter-based substream keyed by (seed, experiment, index).  Results are
reduced in chunk order, so outputs are byte-identical for any worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.special import gamma as gamma_fn

from . import occupancy, perturbed_walk, renewal_numerics, stable_paths
from .distributions import (
    ModelParams,
    WLaw,
    constants,
    gamma_ratio_bound_holds,
    neg_moment_via_laplace,
    sample_positive_stable,
)
from .renewal_numerics import GridFunction
from .stats import ks_two_sample, rank_correlation
from .streams import substream

__all__ = [
    "DEFAULT_SEED",
    "ExperimentConfig",
    "Report",
    "run_theorem_main",
    "run_theorem2",
    "run_theorem3",
    "run_fixed_level_link",
    "run_appendix_checks",
    "emit",
]

DEFAULT_SEED = 20250809
_CHUNK = 64

# substream tags, one per consumer of randomness
_TAG_LIMIT = 0
_TAG_MAIN = 1
_TAG_GRID = 2
_TAG_WALK = 3
_TAG_TREE3 = 4
_TAG_LINK = 5
_TAG_APPENDIX = 6


@dataclass
class ExperimentConfig:
    """Shared configuration for the verification experiments.

    log_n_list doubles as the time horizon list for the walk-time
    experiments (the model identifies t with log n).  j_list gives the
    explicit depth per entry; when omitted the default rule
    floor(log_n^0.3) applies.
    """

    params: ModelParams = field(default_factory=ModelParams)
    log_n_list: tuple = (50.0, 150.0, 400.0)
    j_list: tuple | None = None
    u_list: tuple = (0.6, 1.0)
    replicas: int = 2000
    seed: int = DEFAULT_SEED
    threshold_rule: str = "nlog2n"
    limit_draws: int = 10000
    grid_replicas: int = 100000
    grid_step_frac: float = 2.0 ** -12
    fixed_level_js: tuple = (4, 16, 64)
    workers: int = 1
    fmt: str = "both"

    def __post_init__(self):
        self.log_n_list = tuple(float(x) for x in self.log_n_list)
        self.u_list = tuple(float(u) for u in self.u_list)
        # the default rule is the paper's own choice; warn near the cap only
        # for depths the caller chose
        chosen = self.j_list is not None
        if not chosen:
            self.j_list = tuple(max(1, math.floor(x ** 0.3)) for x in self.log_n_list)
        else:
            self.j_list = tuple(int(j) for j in self.j_list)
        if len(self.j_list) != len(self.log_n_list):
            raise ValueError("j_list must have one entry per log_n")
        if self.replicas < 100:
            raise ValueError("replicas must be at least 100")
        if self.fmt not in ("csv", "json", "both"):
            raise ValueError(f"unknown format {self.fmt!r}")
        consts = constants(self.params, i_max=8)
        beta = consts.residual_exp
        a = self.params.alpha
        cap_exp = min(1.0 / 3.0, (a - beta) / (a - beta + 1.0))
        for log_n, j in zip(self.log_n_list, self.j_list):
            if log_n <= 1.0:
                raise ValueError("log_n values must exceed 1")
            cap = log_n ** cap_exp
            if j > cap:
                raise ValueError(
                    f"j={j} exceeds the depth growth cap {cap:.3f} at log_n={log_n}")
            if chosen and j > 0.8 * cap:
                # stacklevel 3 skips the generated __init__ to name the caller
                warnings.warn(
                    f"j={j} is within 20% of the depth growth cap {cap:.3f} "
                    f"at log_n={log_n}", RuntimeWarning, stacklevel=3)
            for u in self.u_list:
                if math.floor(j * u) < 1:
                    raise ValueError(f"floor(j*u) < 1 for j={j}, u={u}")

    def neglog_threshold(self, log_n: float) -> float:
        rule = self.threshold_rule
        if rule == "nlog2n":
            # threshold 1 / (n (log n)^2)
            return log_n + 2.0 * math.log(log_n)
        if rule.startswith("offset:"):
            return log_n + float(rule.split(":", 1)[1])
        raise ValueError(f"unknown threshold rule {rule!r}")

    def config_hash(self) -> str:
        payload = asdict(self)
        payload["params"]["law"] = self.params.law.value
        # execution and output details do not change the results
        for key in ("workers", "fmt"):
            payload.pop(key, None)
        blob = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Report:
    """Result of one experiment: CSV rows, JSON summary, pass/fail checks."""

    experiment: str
    config_hash: str
    seed: int
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def add_rows(self, experiment: str, values, log_n_or_t="", j="", u="",
                 replica=None) -> None:
        """Append one CSV row per value.

        A column given as a list holds one entry per row; any other value
        fills the whole column.  Replicas are numbered 0, 1, ... unless given.
        """
        values = np.asarray(values, dtype=float).tolist()
        if replica is None:
            replica = list(range(len(values)))
        columns = [c if isinstance(c, list) else [c] * len(values)
                   for c in (log_n_or_t, j, u, replica)]
        for x, jj, uu, r, val in zip(*columns, values, strict=True):
            self.rows.append({"experiment": experiment, "log_n_or_t": x, "j": jj,
                              "u": uu, "replica": r, "value": val})

    def add_check(self, name: str, value, threshold, passed: bool) -> None:
        self.checks.append({"name": name, "value": value,
                            "threshold": threshold, "passed": bool(passed)})

    def check_at_most(self, name: str, value, bound) -> None:
        self.add_check(name, value, bound, value <= bound)

    def check_within(self, name: str, value, target: float, rel: float) -> None:
        """Pass when value is within the fraction rel of target."""
        self.add_check(name, value, f"{target:.6g}+-{rel:.0%}",
                       abs(value / target - 1.0) <= rel)

    def check_decreasing(self, name: str, seq) -> None:
        self.add_check(name, [round(v, 4) for v in seq], "strictly decreasing",
                       all(a > b for a, b in zip(seq, seq[1:])))

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def limit_mean_oracle(alpha: float, u: float) -> float:
    """Mean of the limit integral: (alpha u)^-alpha / Gamma(1-alpha)."""
    return (alpha * u) ** -alpha / gamma_fn(1.0 - alpha)


def _map_chunks(worker, args_list, workers: int):
    if workers <= 1:
        return [worker(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(worker, args_list))


def _chunk(args):
    kernel, static, seed, key, size = args
    return kernel(static, substream(seed, *key), size)


def _replicate(kernel, static, config: ExperimentConfig, tag: int, sub: int) -> list:
    """Run config.replicas replicas of a chunk kernel and join the results.

    kernel(static, rng, size) runs one chunk of at most _CHUNK replicas;
    chunk idx draws from substream (seed, tag, sub, idx).  The kernel
    returns a tuple of per-replica arrays, and each is concatenated across
    chunks in chunk order.
    """
    n = config.replicas
    args = [(kernel, static, config.seed, (tag, sub, idx), min(_CHUNK, n - start))
            for idx, start in enumerate(range(0, n, _CHUNK))]
    results = _map_chunks(_chunk, args, config.workers)
    return [np.concatenate(parts) for parts in zip(*results)]


def _grid(config: ExperimentConfig, estimate, sub: int) -> GridFunction:
    """estimate (estimate_U or estimate_V) on the grid [0, max log_n] of step
    grid_step_frac * max log_n, from substream (seed, _TAG_GRID, sub)."""
    horizon = max(config.log_n_list)
    return estimate(config.params, horizon, horizon * config.grid_step_frac,
                    config.grid_replicas, substream(config.seed, _TAG_GRID, sub))


def _intensity_powers(config: ExperimentConfig, sub: int, j_max: int) -> list:
    """[V_0, V_1, ..., V_j_max]: the convolution powers of the intensity grid
    from substream (seed, _TAG_GRID, sub), led by V_0 = 1, the depth-0
    weight.  A weighted sum against V_0 is a sum of exact 1.0s, so it
    equals the point count bit for bit."""
    v = _grid(config, renewal_numerics.estimate_V, sub)
    ones = GridFunction(step=v.step, values=np.ones_like(v.values))
    return [ones] + renewal_numerics.convolution_powers(v, max(j_max, 1))


def _require_limit_law(config: ExperimentConfig) -> None:
    if config.params.law is WLaw.PARETO:
        raise ValueError("theorem experiments require the stable or gamma-mixture law")


def _limit_sweep(report: Report, config: ExperimentConfig, key: tuple, coord: str,
                 stat: str, normalized) -> dict:
    """Compare normalized statistics with joint limit-law draws.

    The limit draws come from substream (seed, _TAG_LIMIT, *key) and go to
    the <experiment>/limit rows.  normalized(i) returns the statistics at
    the i-th (log_n, j) point shaped (replicas, len(u_list)); they go to the
    <experiment>/<stat> rows with their mean and KS distance to the limit
    in the summary, keyed by coord.  Returns the KS sequence of each u.
    """
    u_list = config.u_list
    lim_vals, _ = stable_paths.sample_limit_integrals(
        config.params.alpha, u_list, config.limit_draws,
        substream(config.seed, _TAG_LIMIT, *key))
    for k, u in enumerate(u_list):
        report.add_rows(f"{report.experiment}/limit", lim_vals[:, k], u=u)

    ks_by_u = {u: [] for u in u_list}
    for i, (x, j) in enumerate(zip(config.log_n_list, config.j_list)):
        norm = normalized(i)
        for k, u in enumerate(u_list):
            report.add_rows(f"{report.experiment}/{stat}", norm[:, k], x, j, u)
            ks = ks_two_sample(norm[:, k], lim_vals[:, k])
            ks_by_u[u].append(ks)
            report.summary[f"mean({coord}={x:g},u={u:g})"] = float(norm[:, k].mean())
            report.summary[f"ks({coord}={x:g},u={u:g})"] = float(ks)
    return ks_by_u


# ------------------------------------------------------------------- occupancy

def _occupancy_chunk(static, rng, size):
    params, log_n, max_level, neglog_t = static
    counts = np.empty((size, max_level), dtype=np.int64)
    bias = np.empty((size, max_level))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for r in range(size):
            tree = occupancy.expand_tree(params, max_level,
                                         neglog_threshold=neglog_t, rng=rng)
            res = occupancy.occupancy_poissonized(tree, log_n, rng)
            counts[r] = res.counts
            bias[r] = res.pruned_bias_bound
    return counts, bias


def _occupancy_levels(config: ExperimentConfig, i: int):
    """Poissonized counts at levels 1..max floor(j u) for the i-th log_n,
    shaped (replicas, levels), and per level the largest pruning bias bound
    as a fraction of the mean count."""
    log_n, j = config.log_n_list[i], config.j_list[i]
    max_level = max(math.floor(j * u) for u in config.u_list)
    static = (config.params, log_n, max_level, config.neglog_threshold(log_n))
    counts, bias = _replicate(_occupancy_chunk, static, config, _TAG_MAIN, i)
    return counts, bias.max(axis=0) / np.maximum(counts.mean(axis=0), 1e-12)


def run_occupancy_sim(config: ExperimentConfig) -> Report:
    """Raw Poissonized occupancy counts per level, with bias bounds."""
    report = Report("occupancy", config.config_hash(), config.seed)
    max_bias_frac = 0.0
    for i, log_n in enumerate(config.log_n_list):
        counts, bias_frac = _occupancy_levels(config, i)
        n_rep, max_level = counts.shape
        for level in range(1, max_level + 1):
            frac = float(bias_frac[level - 1])
            max_bias_frac = max(max_bias_frac, frac)
            report.summary[f"mean_count(log_n={log_n:g},level={level})"] = float(
                counts[:, level - 1].mean())
            report.summary[f"bias_frac(log_n={log_n:g},level={level})"] = frac
        report.add_rows("occupancy/count", counts.ravel(), log_n,
                        j=list(range(1, max_level + 1)) * n_rep,
                        replica=np.repeat(np.arange(n_rep), max_level).tolist())
    report.check_at_most("bias_fraction<=0.01", max_bias_frac, 0.01)
    return report


# ----------------------------------------------------------------- theorem-main

def run_theorem_main(config: ExperimentConfig) -> Report:
    """Distributional check of the depth-normalized occupancy counts against
    joint limit-law samples, across the configured log_n trajectory."""
    _require_limit_law(config)
    report = Report("theorem-main", config.config_hash(), config.seed)
    params, u_list = config.params, config.u_list
    consts = constants(params)

    def normalized(i):
        log_n, j = config.log_n_list[i], config.j_list[i]
        counts, bias_frac = _occupancy_levels(config, i)
        levels = [math.floor(j * u) for u in u_list]
        norm = np.array([[occupancy.normalize_counts(row[level - 1], log_n, params,
                                                     consts, j, u)
                          for level, u in zip(levels, u_list)] for row in counts])
        for level, u in zip(levels, u_list):
            report.summary[f"bias_frac(log_n={log_n:g},u={u:g})"] = float(
                bias_frac[level - 1])
        if len(u_list) >= 2:
            report.summary[f"rank_corr(log_n={log_n:g})"] = rank_correlation(
                norm[:, 0], norm[:, -1])
        return norm

    ks_by_u = _limit_sweep(report, config, (), "log_n", "count", normalized)
    largest = config.log_n_list[-1]
    for u in u_list:
        report.check_within(f"mean_within_15pct(u={u:g})",
                            report.summary[f"mean(log_n={largest:g},u={u:g})"],
                            limit_mean_oracle(params.alpha, u), 0.15)
        report.check_at_most(f"ks_final<=0.15(u={u:g})", ks_by_u[u][-1], 0.15)
        report.check_decreasing(f"ks_strictly_decreasing(u={u:g})", ks_by_u[u])
    max_bias = max(v for k, v in report.summary.items() if k.startswith("bias_frac"))
    report.check_at_most("bias_fraction<=0.01", max_bias, 0.01)
    return report


# -------------------------------------------------------------------- theorem-2

def _theorem2_chunk(static, rng, size):
    params, t, j, u_list, powers = static
    consts = constants(params)
    a = params.alpha
    levels = [math.floor(j * u) for u in u_list]
    # the depth-(level-1) intensity weighs each walk point
    grids = [powers[level - 1] for level in levels]
    scales = [math.exp(math.log(params.c) + a * math.log(j)
                       - consts.log_power_coefs[level - 1] - a * level * math.log(t))
              for level in levels]
    walk = perturbed_walk.generate_walk(params, t, rng, size)
    norm = np.column_stack([perturbed_walk.weighted_sum_statistic(walk, grid, t) * scale
                            for grid, scale in zip(grids, scales)])
    return (norm,)


def run_theorem2(config: ExperimentConfig) -> Report:
    """Check the weighted-sum statistic of the walk against the limit law."""
    _require_limit_law(config)
    report = Report("theorem-2", config.config_hash(), config.seed)
    u_list = config.u_list
    max_level = max(math.floor(j * u) for j in config.j_list for u in u_list)
    powers = _intensity_powers(config, 0, max_level - 1)

    def normalized(i):
        static = (config.params, config.log_n_list[i], config.j_list[i], u_list, powers)
        (norm,) = _replicate(_theorem2_chunk, static, config, _TAG_WALK, i)
        return norm

    ks_by_u = _limit_sweep(report, config, (1,), "t", "statistic", normalized)
    for u in u_list:
        report.summary[f"ks_trend(u={u:g})"] = [round(x, 4) for x in ks_by_u[u]]
        report.check_at_most(f"ks_final<=0.15(u={u:g})", ks_by_u[u][-1], 0.15)
    return report


# -------------------------------------------------------------------- theorem-3

def _theorem3_chunk(static, rng, size):
    params, t, j, v_prev = static
    consts = constants(params)
    a = params.alpha
    scale = math.exp(a * math.log(j) - consts.log_power_coefs[j - 1]
                     - a * j * math.log(t))
    diffs = np.empty(size)
    counts = np.empty(size)
    for r in range(size):
        tree = occupancy.expand_tree(params, j, neglog_threshold=t, rng=rng)
        n_j = occupancy.count_N_j(tree, t)[j - 1]
        weighted = float(np.sum(v_prev(t - tree.neglogs[0])))
        diffs[r] = (n_j - weighted) * scale
        counts[r] = n_j * scale
    return diffs, counts


def run_theorem3(config: ExperimentConfig) -> Report:
    """Check that depth-j birth counts track their walk-predicted means:
    the normalized difference should shrink as the horizon grows."""
    _require_limit_law(config)
    report = Report("theorem-3", config.config_hash(), config.seed)
    powers = _intensity_powers(config, 1, max(config.j_list) - 1)

    medians = []
    for i, (t, j) in enumerate(zip(config.log_n_list, config.j_list)):
        static = (config.params, t, j, powers[j - 1])
        diffs, counts = _replicate(_theorem3_chunk, static, config, _TAG_TREE3, i)
        med_diff = float(np.median(np.abs(diffs)))
        med_count = float(np.median(counts))
        p90 = float(np.quantile(np.abs(diffs), 0.9))
        medians.append(med_diff)
        report.summary[f"median_absdiff(t={t:g},j={j})"] = med_diff
        report.summary[f"p90_absdiff(t={t:g},j={j})"] = p90
        report.summary[f"median_count(t={t:g},j={j})"] = med_count
        report.add_rows("theorem-3/normdiff", diffs, t, j)

    # the loop leaves med_count at the largest horizon
    report.check_at_most("median_ratio<=0.2", medians[-1] / max(med_count, 1e-12), 0.2)
    report.check_decreasing("medians_decreasing", medians)
    return report


# ----------------------------------------------------------------- fixed level

def run_fixed_level_link(config: ExperimentConfig) -> Report:
    """Link between fixed-depth limits and the intermediate-depth limit:
    depth^alpha times the fixed-depth integral should approach the
    exponential integral as the depth grows."""
    report = Report("fixed-level", config.config_hash(), config.seed)
    a = config.params.alpha
    n = config.replicas
    rng = substream(config.seed, _TAG_LINK)
    ref, _ = stable_paths.sample_limit_integrals(a, [1.0], n, rng)
    ref = ref[:, 0]
    ks_seq = []
    means = []
    for j in config.fixed_level_js:
        draws = j ** a * stable_paths.sample_fixed_level_limits(a, j, n, rng)
        ks = ks_two_sample(draws, ref)
        ks_seq.append(ks)
        means.append(float(draws.mean()))
        report.summary[f"ks(j={j})"] = float(ks)
        report.summary[f"mean(j={j})"] = float(draws.mean())
        report.add_rows("fixed-level", draws, j=j)
    report.check_decreasing("ks_decreasing", ks_seq)
    report.check_within("mean_within_5pct", means[-1], limit_mean_oracle(a, 1.0), 0.05)
    return report


# ------------------------------------------------------------- renewal / bounds

def run_renewal(config: ExperimentConfig) -> Report:
    """Estimate the renewal and intensity grids and verify their
    Laplace-Stieltjes transforms against the defining identities."""
    from .distributions import laplace_xi, sample_w_pair

    report = Report("renewal", config.config_hash(), config.seed)
    grid_u = _grid(config, renewal_numerics.estimate_U, 2)
    grid_v = _grid(config, renewal_numerics.estimate_V, 3)
    pair = sample_w_pair(config.params, substream(config.seed, _TAG_GRID, 4), 10 ** 6)
    for s in (0.5, 1.0, 2.0):
        phi = float(laplace_xi(config.params, s))
        target_u = 1.0 / (1.0 - phi)
        target_v = float(np.mean(np.exp(-s * pair.neglog_1mw))) / (1.0 - phi)
        got_u = grid_u.laplace_stieltjes(s)
        got_v = grid_v.laplace_stieltjes(s)
        report.summary[f"transform_u(s={s:g})"] = got_u
        report.summary[f"transform_v(s={s:g})"] = got_v
        report.check_within(f"transform_u_within_2pct(s={s:g})", got_u, target_u, 0.02)
        report.check_within(f"transform_v_within_2pct(s={s:g})", got_v, target_v, 0.02)
    for gf, name in ((grid_u, "renewal/U"), (grid_v, "renewal/V")):
        report.add_rows(name, gf.values, log_n_or_t=gf.grid().tolist(), replica="")
    return report


def run_verify_bounds(config: ExperimentConfig) -> Report:
    """Fit the two-term residual and verify the bounds of V_1..V_6."""
    report = Report("verify-bounds", config.config_hash(), config.seed)
    j_max = 6
    grid_v = _grid(config, renewal_numerics.estimate_V, 3)
    consts = constants(config.params)
    consts.residual_coef = renewal_numerics.fit_two_term(
        grid_v, consts.renewal_coef, consts.alpha, consts.residual_exp)
    powers = renewal_numerics.convolution_powers(grid_v, j_max)
    chain = renewal_numerics.check_vj_bound_chain(powers, consts)
    report.summary["fitted_residual_coef"] = consts.residual_coef
    report.summary["n_checked"] = chain.n_checked
    report.summary["n_violations"] = len(chain.violations)
    report.summary["violations"] = chain.violations[:20]
    report.summary["uniform_sups"] = {str(j): v for j, v in chain.uniform_sups.items()}
    report.check_at_most("bound_chain_zero_violations", len(chain.violations), 0)
    if max(config.log_n_list) >= 100.0 + grid_v.step:
        sup4 = renewal_numerics.uniform_ratio_sup(powers, consts, 4, 100.0)
        report.summary["uniform_sup_j4_from_100"] = sup4
        report.check_at_most("uniform_sup_j4(y>=100)<=0.2", sup4, 0.2)
    return report


def run_limit_sample(config: ExperimentConfig) -> Report:
    """Emit joint limit-law samples at the configured u values."""
    report = Report("limit-sample", config.config_hash(), config.seed)
    rng = substream(config.seed, _TAG_LIMIT)
    vals, tails = stable_paths.sample_limit_integrals(
        config.params.alpha, config.u_list, config.replicas, rng)
    for k, u in enumerate(config.u_list):
        report.summary[f"mean(u={u:g})"] = float(vals[:, k].mean())
        report.summary[f"mean_tail_bound(u={u:g})"] = float(tails[:, k].mean())
        report.add_rows("limit-sample", vals[:, k], u=u)
    report.add_check("tail_bounds_reported", float(tails.max()), "finite",
                     bool(np.all(np.isfinite(tails))))
    return report


# -------------------------------------------------------------------- appendix

def run_appendix_checks(seed: int = DEFAULT_SEED) -> Report:
    """Deterministic gamma-ratio sweep plus negative-moment quadrature and
    Monte Carlo cross-checks."""
    cfg_hash = hashlib.sha256(f"appendix:{seed}".encode()).hexdigest()[:16]
    report = Report("appendix", cfg_hash, seed)

    grid = np.arange(0.0, 50.0 + 1e-9, 0.1)
    xs, ys = np.meshgrid(grid, grid, indexing="ij")
    holds, _, _ = gamma_ratio_bound_holds(xs.ravel(), ys.ravel())
    sweep_ok = bool(np.all(holds))
    report.add_check("gamma_ratio_sweep", int(holds.sum()), int(holds.size), sweep_ok)

    # exponential eta: E eta^-g = Gamma(1-g)
    worst = 0.0
    for g in np.arange(0.1, 0.95, 0.1):
        est = neg_moment_via_laplace(lambda s: 1.0 / (1.0 + s), float(g))
        worst = max(worst, abs(est / gamma_fn(1.0 - g) - 1.0))
    report.summary["neg_moment_exponential_max_rel_err"] = worst
    report.check_at_most("neg_moment_exponential", worst, 1e-6)

    # deterministic eta = 1
    est_one = neg_moment_via_laplace(lambda s: math.exp(-s), 1.0)
    report.add_check("neg_moment_deterministic", est_one, 1.0,
                     abs(est_one - 1.0) <= 1e-9)

    # stable law: E Z^-alpha equals the renewal coefficient
    params = ModelParams()
    consts = constants(params)
    a = params.alpha
    lap = lambda s: math.exp(-params.c * gamma_fn(1.0 - a) * s ** a)
    est_c = neg_moment_via_laplace(lap, a)
    report.add_check("neg_moment_stable_quadrature", est_c, consts.renewal_coef,
                     abs(est_c / consts.renewal_coef - 1.0) <= 1e-6)

    rng = substream(seed, _TAG_APPENDIX)
    z = sample_positive_stable(a, params.c, rng, 10 ** 6)
    draws = z ** -a
    mc = float(draws.mean())
    se = float(draws.std() / math.sqrt(draws.size))
    report.summary["neg_moment_mc_mean"] = mc
    report.summary["neg_moment_mc_se"] = se
    report.add_check("neg_moment_stable_mc", mc, f"{consts.renewal_coef:.6g}+-4se",
                     abs(mc - consts.renewal_coef) <= 4.0 * se)
    return report


# ------------------------------------------------------------------------ emit

_CSV_HEADER = "experiment,log_n_or_t,j,u,replica,value"


def _csv_cell(x) -> str:
    if x == "" or x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _json_default(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    return repr(x)


def emit(report: Report, fmt: str = "both", out_dir: str = ".") -> list[str]:
    """Write the report as CSV rows and/or a JSON summary.

    Output bytes depend only on the report content: identical configuration
    and seed give identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    if fmt not in ("csv", "json", "both"):
        raise ValueError(f"unknown format {fmt!r}")
    if fmt in ("csv", "both"):
        path = os.path.join(out_dir, f"{report.experiment}.csv")
        try:
            with open(path, "w") as fh:
                fh.write(_CSV_HEADER + "\n")
                for row in report.rows:
                    fh.write(",".join(_csv_cell(row[k]) for k in
                                      ("experiment", "log_n_or_t", "j", "u",
                                       "replica", "value")) + "\n")
        except OSError as exc:
            raise OSError(f"writing {path}: {exc}") from exc
        paths.append(path)
    if fmt in ("json", "both"):
        path = os.path.join(out_dir, f"{report.experiment}_summary.json")
        payload = {
            "experiment": report.experiment,
            "config_hash": report.config_hash,
            "seed": report.seed,
            "summary": report.summary,
            "checks": report.checks,
            "passed": report.passed,
        }
        try:
            with open(path, "w") as fh:
                json.dump(payload, fh, sort_keys=True, indent=2,
                          default=_json_default)
                fh.write("\n")
        except OSError as exc:
            raise OSError(f"writing {path}: {exc}") from exc
        paths.append(path)
    return paths
