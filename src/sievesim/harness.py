"""Experiment orchestration: configuration, runners, statistics, emission.

Every experiment fans replicas out over fixed-size chunks, each chunk owning
a counter-based substream keyed by (seed, experiment, index).  Results are
reduced in chunk order, so outputs are byte-identical for any worker count.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np
from scipy.special import gamma as gamma_fn

from . import occupancy, perturbed_walk, renewal_numerics, stable_paths
from .distributions import (
    DerivedConstants,
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
    "Row",
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
_LIMIT_DRAWS = 10 ** 4  # limit-law draws per sweep
_FIXED_LEVEL_JS = (4, 16, 64)  # depths of the fixed-level link

# substream tags, one per consumer of randomness
_TAG_LIMIT = 0
_TAG_MAIN = 1
_TAG_GRID = 2  # only sub 4, the eta draws of the renewal transform targets
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
    floor(log_n^0.3) applies.  Every depth must stay within the growth cap
    log_n^min(1/3, alpha/(alpha+1)): the paper's exponent
    min(1/3, (alpha-beta)/(alpha-beta+1)) at the two-term remainder
    exponent beta = 0 that constants documents.
    """

    params: ModelParams = field(default_factory=ModelParams)
    log_n_list: tuple = (50.0, 150.0, 400.0)
    j_list: tuple | None = None
    u_list: tuple = (0.6, 1.0)
    replicas: int = 2000
    seed: int = DEFAULT_SEED
    workers: int = 1

    def __post_init__(self):
        # counts are exact integers: a float count fails here, and a
        # numpy integer hashes like the equal Python int
        for name in ("replicas", "seed", "workers"):
            setattr(self, name, operator.index(getattr(self, name)))
        self.log_n_list = tuple(float(x) for x in self.log_n_list)
        self.u_list = tuple(float(u) for u in self.u_list)
        if not (self.log_n_list and all(map(math.isfinite, self.log_n_list))):
            raise ValueError(f"log_n_list must be non-empty and finite, got {self.log_n_list}")
        if not (self.u_list and all(map(math.isfinite, self.u_list))):
            raise ValueError(f"u_list must be non-empty and finite, got {self.u_list}")
        for name in ("log_n_list", "u_list"):
            # summary keys print each value as :g, so a repeat would overwrite a key
            labels = [f"{x:g}" for x in getattr(self, name)]
            if len(set(labels)) < len(labels):
                raise ValueError(f"{name} repeats a value at 6 significant digits: {labels}")
        # the default rule is the paper's own choice; warn near the cap only
        # for depths the caller chose
        chosen = self.j_list is not None
        js = self.j_list if chosen else [max(1, math.floor(x ** 0.3)) for x in self.log_n_list]
        try:  # like the counts, depths are exact integers
            self.j_list = tuple(operator.index(j) for j in js)
        except TypeError:
            raise TypeError(f"j_list must hold integers, got {js!r}") from None
        if len(self.j_list) != len(self.log_n_list):
            raise ValueError("j_list must have one entry per log_n")
        if self.replicas < 100:
            raise ValueError("replicas must be at least 100")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        a = self.params.alpha
        cap_exp = min(1.0 / 3.0, a / (a + 1.0))
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
        """-log of the pruning threshold 1 / (n (log n)^2), n = e^log_n."""
        return log_n + 2.0 * math.log(log_n)

    def config_hash(self) -> str:
        payload = asdict(self)
        payload["params"]["law"] = self.params.law.value
        # the worker count does not change the results
        del payload["workers"]
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Row(NamedTuple):
    """One CSV row; the fields are the CSV columns in order.  Each cell is
    "" (not applicable), an int or a Python float, so str() writes it
    exactly."""

    experiment: str
    log_n_or_t: float | str
    j: int | str
    u: float | str
    replica: int | str
    value: float


@dataclass
class Report:
    """Result of one experiment: CSV rows, JSON summary, pass/fail checks."""

    experiment: str
    config_hash: str
    seed: int
    rows: list[Row] = field(default_factory=list)
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
        self.rows.extend(Row(experiment, *cells)
                         for cells in zip(*columns, values, strict=True))

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


def _normalizer(params: ModelParams, consts: DerivedConstants, j: int, level: int,
                t: float, count: float) -> float:
    """The depth-normalized count c j^alpha count / (rho_(level-1)
    t^(alpha level)), evaluated in log space; 0.0 for a zero count.
    level is floor(j u) and t is log n or the walk time."""
    if count == 0:
        return 0.0
    a = params.alpha
    return math.exp(math.log(params.c) + a * math.log(j) + math.log(count)
                    - consts.log_power_coefs[level - 1] - a * level * math.log(t))


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


def _grid(config: ExperimentConfig, cells: int = 4096) -> tuple[GridFunction, GridFunction]:
    """The renewal and intensity grids (U, V) on [0, max log_n], solved on
    the given number of cells."""
    horizon = max(config.log_n_list)
    return renewal_numerics.renewal_grids(config.params, horizon, horizon / cells)


def _intensity_powers(config: ExperimentConfig, j_max: int) -> list:
    """[V_0, V_1, ..., V_j_max]: the convolution powers of the intensity grid,
    led by V_0 = 1, the depth-0 weight.  A weighted sum against V_0 is a
    sum of exact 1.0s, so it equals the point count bit for bit."""
    _, v = _grid(config)
    ones = GridFunction(step=v.step, values=np.ones_like(v.values))
    return [ones] + renewal_numerics.convolution_powers(v, max(j_max, 1))


def _require_limit_law(config: ExperimentConfig) -> None:
    if config.params.law is WLaw.PARETO:
        raise ValueError("theorem experiments require the stable or gamma-mixture law")


def _summarize(report: Report, stat: str, values, key: str, reference=None, **columns) -> tuple:
    """Add values as <stat> rows (columns as Report.add_rows takes them) and
    their mean to the summary under mean(<key>); given reference draws, also
    their KS distance to those under ks(<key>).  Every such key is written
    here.  Returns (mean, ks), ks None without reference draws."""
    report.add_rows(stat, values, **columns)
    mean = float(values.mean())
    report.summary[f"mean({key})"] = mean
    ks = None if reference is None else ks_two_sample(values, reference)
    if ks is not None:
        report.summary[f"ks({key})"] = ks
    return mean, ks


def _limit_sweep(report: Report, config: ExperimentConfig, key: tuple, coord: str,
                 stat: str, normalized) -> list:
    """Compare normalized statistics with joint limit-law draws.

    The limit draws come from substream (seed, _TAG_LIMIT, *key) and go to
    the <experiment>/limit rows.  normalized(i) returns the statistics at
    the i-th (log_n, j) point shaped (replicas, len(u_list)); _summarize
    writes each column as <experiment>/<stat> rows keyed by coord and u.
    Returns, per u, the pair (means, KS distances) along log_n_list.
    """
    u_list = config.u_list
    lim_vals, _ = stable_paths.sample_limit_integrals(
        config.params.alpha, u_list, _LIMIT_DRAWS,
        substream(config.seed, _TAG_LIMIT, *key))
    for k, u in enumerate(u_list):
        report.add_rows(f"{report.experiment}/limit", lim_vals[:, k], u=u)

    sweep = [[] for _ in u_list]  # per u, the (mean, ks) of each point
    for i, (x, j) in enumerate(zip(config.log_n_list, config.j_list)):
        norm = normalized(i)
        for k, u in enumerate(u_list):
            sweep[k].append(_summarize(report, f"{report.experiment}/{stat}", norm[:, k],
                                       f"{coord}={x:g},u={u:g}", lim_vals[:, k],
                                       log_n_or_t=x, j=j, u=u))
    return [tuple(zip(*pairs)) for pairs in sweep]


# ------------------------------------------------------------------- occupancy

def _occupancy_chunk(static, rng, size):
    params, log_n, max_level, neglog_t = static
    counts = np.empty((size, max_level), dtype=np.int64)
    bias = np.empty((size, max_level))
    for r in range(size):
        tree = occupancy.expand_tree(params, max_level, neglog_threshold=neglog_t, rng=rng)
        counts[r], bias[r] = occupancy.occupancy_poissonized(tree, log_n, rng)
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
    bias_fracs = []

    def normalized(i):
        log_n, j = config.log_n_list[i], config.j_list[i]
        counts, bias_frac = _occupancy_levels(config, i)
        levels = [math.floor(j * u) for u in u_list]
        norm = np.array([[_normalizer(params, consts, j, level, log_n, row[level - 1])
                          for level in levels] for row in counts])
        for level, u in zip(levels, u_list):
            bias_fracs.append(float(bias_frac[level - 1]))
            report.summary[f"bias_frac(log_n={log_n:g},u={u:g})"] = bias_fracs[-1]
        if len(u_list) >= 2:
            report.summary[f"rank_corr(log_n={log_n:g})"] = rank_correlation(
                norm[:, 0], norm[:, -1])
        return norm

    sweep = _limit_sweep(report, config, (), "log_n", "count", normalized)
    for u, (means, kss) in zip(u_list, sweep):
        report.check_within(f"mean_within_15pct(u={u:g})", means[-1],
                            limit_mean_oracle(params.alpha, u), 0.15)
        report.check_at_most(f"ks_final<=0.15(u={u:g})", kss[-1], 0.15)
        report.check_decreasing(f"ks_strictly_decreasing(u={u:g})", kss)
    report.check_at_most("bias_fraction<=0.01", max(bias_fracs), 0.01)
    return report


# -------------------------------------------------------------------- theorem-2

def _theorem2_chunk(static, rng, size):
    params, t, grids = static
    walk = perturbed_walk.generate_walk(params, t, rng, size)
    return (np.column_stack([perturbed_walk.weighted_sum_statistic(walk, g) for g in grids]),)


def run_theorem2(config: ExperimentConfig) -> Report:
    """Check the weighted-sum statistic of the walk against the limit law."""
    _require_limit_law(config)
    report = Report("theorem-2", config.config_hash(), config.seed)
    params, u_list = config.params, config.u_list
    consts = constants(params)
    max_level = max(math.floor(j * u) for j in config.j_list for u in u_list)
    powers = _intensity_powers(config, max_level - 1)

    def normalized(i):
        t, j = config.log_n_list[i], config.j_list[i]
        levels = [math.floor(j * u) for u in u_list]
        # the depth-(level-1) intensity weighs each walk point
        static = (params, t, [powers[level - 1] for level in levels])
        (sums,) = _replicate(_theorem2_chunk, static, config, _TAG_WALK, i)
        return sums * [_normalizer(params, consts, j, level, t, 1.0) for level in levels]

    sweep = _limit_sweep(report, config, (1,), "t", "statistic", normalized)
    for u, (_, kss) in zip(u_list, sweep):
        report.summary[f"ks_trend(u={u:g})"] = [round(x, 4) for x in kss]
        report.check_at_most(f"ks_final<=0.15(u={u:g})", kss[-1], 0.15)
    return report


# -------------------------------------------------------------------- theorem-3

def _theorem3_chunk(static, rng, size):
    params, t, j, v_prev = static
    diffs = np.empty(size)
    counts = np.empty(size)
    for r in range(size):
        # pruned at t, so every retained node is born by t
        tree = occupancy.expand_tree(params, j, neglog_threshold=t, rng=rng)
        counts[r] = tree.level_size(j)
        diffs[r] = counts[r] - float(np.sum(v_prev(t - tree.neglogs[0])))
    return diffs, counts


def run_theorem3(config: ExperimentConfig) -> Report:
    """Check that depth-j birth counts track their walk-predicted means:
    the normalized difference should shrink as the horizon grows."""
    _require_limit_law(config)
    report = Report("theorem-3", config.config_hash(), config.seed)
    consts = constants(config.params)
    powers = _intensity_powers(config, max(config.j_list) - 1)

    medians = []
    for i, (t, j) in enumerate(zip(config.log_n_list, config.j_list)):
        static = (config.params, t, j, powers[j - 1])
        diffs, counts = _replicate(_theorem3_chunk, static, config, _TAG_TREE3, i)
        scale = _normalizer(config.params, consts, j, j, t, 1.0)
        diffs *= scale
        counts *= scale
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
    joint = stable_paths.sample_fixed_level_limits(a, _FIXED_LEVEL_JS, n, rng)
    means, kss = zip(*(_summarize(report, "fixed-level", j ** a * column, f"j={j}", ref, j=j)
                       for j, column in zip(_FIXED_LEVEL_JS, joint.T)))
    report.check_decreasing("ks_decreasing", kss)
    report.check_within("mean_within_5pct", means[-1], limit_mean_oracle(a, 1.0), 0.05)
    return report


# ------------------------------------------------------------- renewal / bounds

def run_renewal(config: ExperimentConfig) -> Report:
    """Solve the renewal and intensity grids and verify their
    Laplace-Stieltjes transforms against the defining identities.

    Over half of V's mass can sit in its first cell, near 0, so that cell is
    scored by the closed-form law of eta; the targets come from eta draws,
    so the check still tests that law."""
    from .distributions import laplace_xi, sample_w_pair

    report = Report("renewal", config.config_hash(), config.seed)
    grid_u, grid_v = _grid(config)
    eta, _ = sample_w_pair(config.params, substream(config.seed, _TAG_GRID, 4), 10 ** 6)
    for s in (0.5, 1.0, 2.0):
        phi = float(laplace_xi(config.params, s))
        target_u = 1.0 / (1.0 - phi)
        target_v = float(np.mean(np.exp(-s * eta))) / (1.0 - phi)
        got_u = grid_u.laplace_stieltjes(s)
        got_v = grid_v.laplace_stieltjes(
            s, renewal_numerics.eta_first_cell(config.params, grid_v.step, s))
        report.summary[f"transform_u(s={s:g})"] = got_u
        report.summary[f"transform_v(s={s:g})"] = got_v
        report.check_within(f"transform_u_within_2pct(s={s:g})", got_u, target_u, 0.02)
        report.check_within(f"transform_v_within_2pct(s={s:g})", got_v, target_v, 0.02)
    for gf, name in ((grid_u, "renewal/U"), (grid_v, "renewal/V")):
        report.add_rows(name, gf.values, log_n_or_t=gf.grid().tolist(), replica="")
    return report


def run_verify_bounds(config: ExperimentConfig) -> Report:
    """Fit the two-term residual and verify the bounds of V_1..V_6.

    V's error scale, which the bound chain's slack reads, is its refinement
    difference |V_h - V_(h/2)|."""
    report = Report("verify-bounds", config.config_hash(), config.seed)
    j_max = 6
    _, grid_v = _grid(config)
    _, fine = _grid(config, 8192)
    grid_v.se = np.abs(grid_v.values - fine.values[::2])
    consts = constants(config.params)
    residual_coef = renewal_numerics.fit_two_term(grid_v, consts.renewal_coef, consts.alpha)
    powers = renewal_numerics.convolution_powers(grid_v, j_max)
    violations, n_checked = renewal_numerics.check_vj_bound_chain(powers, consts,
                                                                  residual_coef)
    report.summary["fitted_residual_coef"] = residual_coef
    report.summary["v_refinement_max"] = float(grid_v.se.max())
    report.summary["n_checked"] = n_checked
    report.summary["n_violations"] = len(violations)
    report.summary["violations"] = violations[:20]
    y_min = grid_v.horizon / 8
    report.summary["uniform_sups"] = {
        str(j): (y_min, renewal_numerics.uniform_ratio_sup(powers, consts, j, y_min))
        for j in range(1, 5)}
    report.check_at_most("bound_chain_zero_violations", len(violations), 0)
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
        report.summary[f"mean_tail_bound(u={u:g})"] = float(tails[:, k].mean())
        _summarize(report, "limit-sample", vals[:, k], f"u={u:g}", u=u)
    report.add_check("tail_bounds_reported", float(tails.max()), "finite",
                     bool(np.all(np.isfinite(tails))))
    return report


# -------------------------------------------------------------------- appendix

def run_appendix_checks(config: ExperimentConfig) -> Report:
    """Deterministic gamma-ratio sweep plus negative-moment quadrature and
    Monte Carlo cross-checks; of the config only the seed is read."""
    seed = config.seed
    cfg_hash = hashlib.sha256(f"appendix:{seed}".encode()).hexdigest()[:16]
    report = Report("appendix", cfg_hash, seed)

    grid = np.arange(0.0, 50.0 + 1e-9, 0.1)
    xs, ys = np.meshgrid(grid, grid, indexing="ij")
    holds = gamma_ratio_bound_holds(xs.ravel(), ys.ravel())
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

def emit(report: Report, fmt: str = "both", out_dir: str = ".") -> list[str]:
    """Write the report as CSV rows and/or a JSON summary.

    Output bytes depend only on the report content: identical configuration
    and seed give identical files.
    """
    if fmt not in ("csv", "json", "both"):
        raise ValueError(f"unknown format {fmt!r}")
    stem = os.path.join(out_dir, report.experiment)
    outputs = []  # (path, lines); the CSV lines stream from the rows
    if fmt in ("csv", "both"):
        outputs.append((f"{stem}.csv", itertools.chain(
            [",".join(Row._fields) + "\n"],
            (f"{e},{x},{j},{u},{r},{v}\n" for e, x, j, u, r, v in report.rows))))
    if fmt in ("json", "both"):
        payload = {
            "experiment": report.experiment,
            "config_hash": report.config_hash,
            "seed": report.seed,
            "summary": report.summary,
            "checks": report.checks,
            "passed": report.passed,
        }
        outputs.append((f"{stem}_summary.json",
                        [json.dumps(payload, sort_keys=True, indent=2), "\n"]))
    os.makedirs(out_dir, exist_ok=True)
    for path, lines in outputs:
        try:
            with open(path, "w") as fh:
                fh.writelines(lines)
        except OSError as exc:
            raise OSError(f"writing {path}: {exc}") from exc
    return [path for path, _ in outputs]
