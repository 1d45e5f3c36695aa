"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Defaults throughout: alpha = 0.5, c = 1, the stable law, and the repo seed.
Criteria 4b, 7i/7ii and 8a measure quantities whose finite-size calibration
turned out optimistic; they are asserted exactly as specified, and their
failures (a second-order renewal term) are explained in the "Acceptance
suite" section of README.md.
"""

import math
import resource
import time
import warnings

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from sievesim import harness
from sievesim.distributions import (
    ModelParams,
    WLaw,
    constants,
    gamma_ratio_bound_holds,
    neg_moment_via_laplace,
    sample_positive_stable,
)
from sievesim.harness import DEFAULT_SEED, ExperimentConfig, emit
from sievesim.occupancy import expand_tree, occupancy_poissonized
from sievesim.renewal_numerics import (
    check_vj_bound_chain,
    convolution_powers,
    estimate_V,
    fit_two_term,
    uniform_ratio_sup,
)
from sievesim.stats import ks_two_sample
from sievesim.streams import substream

from count_oracles import check_u_equation, throw_balls_exact
from inverse_oracles import inverse_at_level, self_similarity_check


def announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def acceptance_grid():
    """Intensity grid to horizon 800 at 1e5 replicas, with fitted residual."""
    t0 = time.perf_counter()
    params = ModelParams()
    v = estimate_V(params, 800.0, 800.0 / 4096, 10 ** 5, substream(DEFAULT_SEED, 40))
    consts = constants(params)
    residual_coef = fit_two_term(v, consts.renewal_coef, consts.alpha)
    powers = convolution_powers(v, 6)
    return {"v": v, "consts": consts, "residual_coef": residual_coef, "powers": powers,
            "build_seconds": time.perf_counter() - t0}


def test_criterion_01_gamma_ratio_sweep():
    t0 = time.perf_counter()
    grid = np.arange(0.0, 50.0 + 1e-9, 0.1)
    xs, ys = np.meshgrid(grid, grid, indexing="ij")
    holds = gamma_ratio_bound_holds(xs.ravel(), ys.ravel())
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(holds)) and elapsed < 5.0
    announce("1 gamma-ratio sweep", ok,
             f"{int(holds.sum())}/{holds.size} hold, {elapsed:.2f}s")
    assert np.all(holds)
    assert elapsed < 5.0


def test_criterion_02_negative_moment_formula():
    t0 = time.perf_counter()
    worst = 0.0
    for g in np.arange(0.1, 0.95, 0.1):
        est = neg_moment_via_laplace(lambda s: 1.0 / (1.0 + s), float(g))
        worst = max(worst, abs(est / gamma_fn(1.0 - float(g)) - 1.0))
    rng = substream(DEFAULT_SEED, 41)
    z = sample_positive_stable(0.5, 1.0, rng, 10 ** 6)
    draws = z ** -0.5
    mc, se = draws.mean(), draws.std() / 1000.0
    target = 2 / math.pi
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and abs(mc - target) <= 4 * se and elapsed < 60.0
    announce("2 negative-moment formula", ok,
             f"max rel err {worst:.2e}, MC {mc:.5f} vs {target:.5f} "
             f"(4se {4 * se:.4f}), {elapsed:.1f}s")
    assert worst <= 1e-6
    assert abs(mc - target) <= 4 * se
    assert elapsed < 60.0


def test_criterion_03_transform_identities():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(log_n_list=(30.0,), j_list=(2,), u_list=(1.0,),
                           replicas=100, seed=DEFAULT_SEED)
    report = harness.run_renewal(cfg)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 300.0
    worst = max(abs(c["value"]) for c in report.checks)
    announce("3 transform identities", ok,
             f"{sum(c['passed'] for c in report.checks)}/{len(report.checks)} "
             f"within 2%, {elapsed:.1f}s")
    assert report.passed, [c for c in report.checks if not c["passed"]]
    assert elapsed < 300.0


def test_criterion_04a_convolution_bound_chain(acceptance_grid):
    t0 = time.perf_counter()
    violations, n_checked = check_vj_bound_chain(
        acceptance_grid["powers"], acceptance_grid["consts"], acceptance_grid["residual_coef"])
    relevant = [v for v in violations if v["t"] <= 400.0]
    elapsed = time.perf_counter() - t0 + acceptance_grid["build_seconds"]
    ok = not relevant and elapsed < 900.0
    announce("4a convolution-power bound chain", ok,
             f"{len(relevant)} violations (t<=400) over {n_checked} checks, "
             f"D={acceptance_grid['residual_coef']:.3f}, {elapsed:.1f}s")
    assert not relevant, relevant[:3]
    assert elapsed < 900.0


def test_criterion_04b_uniform_ratio_sup(acceptance_grid):
    sup4 = uniform_ratio_sup(acceptance_grid["powers"], acceptance_grid["consts"],
                             4, 100.0)
    ok = sup4 <= 0.2
    announce("4b uniform ratio sup (j=4, y>=100, horizon 800)", ok,
             f"measured {sup4:.3f} vs 0.2")
    assert sup4 <= 0.2, (
        f"sup is {sup4:.3f}: the second-order renewal term (V(t) - C sqrt(t) "
        f"-> 1/2) keeps the depth-4 ratio near 5.3/sqrt(y) + 9.4/y, about "
        f"0.63 at y=100, so 0.2 is not attainable at this scale; see README.md, "
        f"Acceptance suite")


def test_criterion_05_u_equation():
    t0 = time.perf_counter()
    rep_a = check_u_equation(ModelParams(), [25.0, 100.0, 400.0], 10 ** 5,
                             substream(DEFAULT_SEED, 42))
    rep_b = check_u_equation(ModelParams(law=WLaw.GAMMA_MIXTURE, kappa=2.0),
                             [25.0, 100.0, 400.0], 10 ** 5,
                             substream(DEFAULT_SEED, 43))
    elapsed = time.perf_counter() - t0
    ok = rep_a.passed and rep_b.passed
    detail = "; ".join(
        f"{tag} t={r['t']:g}: |{r['lhs']:.3f}-{r['rhs']:.3f}|<=4*{r['combined_se']:.3f}"
        for tag, rep in (("a", rep_a), ("b", rep_b)) for r in rep.rows)
    announce("5 scaling-walk identity", ok, f"{detail}, {elapsed:.1f}s")
    assert rep_a.passed, rep_a.rows
    assert rep_b.passed, rep_b.rows


def test_criterion_06_exact_vs_poissonized():
    t0 = time.perf_counter()
    params = ModelParams()
    n = 10 ** 4
    neglog_t = math.log(n) + 2.0 * math.log(math.log(n))
    rng = substream(DEFAULT_SEED, 44)
    reps = 2000
    exact = np.empty((reps, 2))
    poisson = np.empty((reps, 2))
    for r in range(reps):
        tree = expand_tree(params, 2, neglog_threshold=neglog_t, rng=rng)
        exact[r], _ = throw_balls_exact(tree, n, rng)
        poisson[r], _ = occupancy_poissonized(tree, math.log(n), rng)
    elapsed = time.perf_counter() - t0
    ks1 = ks_two_sample(exact[:, 0], poisson[:, 0])
    ks2 = ks_two_sample(exact[:, 1], poisson[:, 1])
    ok = ks1 <= 0.05 and ks2 <= 0.05 and elapsed < 600.0
    announce("6 exact vs Poissonized occupancy", ok,
             f"KS(j=1)={ks1:.3f}, KS(j=2)={ks2:.3f}, {elapsed:.1f}s")
    assert ks1 <= 0.05 and ks2 <= 0.05
    assert elapsed < 600.0


@pytest.fixture(scope="module")
def theorem_main_report():
    cfg = ExperimentConfig(log_n_list=(50.0, 150.0, 400.0), j_list=(3, 4, 6),
                           u_list=(0.6, 1.0), replicas=2000, seed=DEFAULT_SEED)
    t0 = time.perf_counter()
    report = harness.run_theorem_main(cfg)
    return report, time.perf_counter() - t0


def test_criterion_07i_theorem_main_mean(theorem_main_report):
    report, _ = theorem_main_report
    checks = [c for c in report.checks if c["name"].startswith("mean_within_15pct")]
    ok = all(c["passed"] for c in checks)
    detail = ", ".join(f"{c['name']}={c['value']:.3f} target {c['threshold']}"
                       for c in checks)
    announce("7i normalized-count mean within 15%", ok, detail)
    assert ok, (
        f"{detail}: the mean of the depth-normalized count exceeds the limit "
        f"mean by the second-order series (about +(j/2)(rho_(j-1)/rho_j)/sqrt(log n), "
        f"+20-51% at these depths), so 15% is not attainable at this scale; "
        f"see README.md, Acceptance suite")


def test_criterion_07ii_theorem_main_ks(theorem_main_report):
    report, _ = theorem_main_report
    checks = [c for c in report.checks
              if c["name"].startswith(("ks_final", "ks_strictly"))]
    ok = all(c["passed"] for c in checks)
    detail = ", ".join(f"{c['name']}={c['value']}" for c in checks)
    announce("7ii theorem-main KS levels and trend", ok, detail)
    assert ok, (
        f"{detail}: the distributional distance inherits the mean shift of "
        f"criterion 7i and does not fall below 0.15 (nor decrease "
        f"monotonically) at log n <= 400; see README.md, Acceptance suite")


def test_criterion_07iii_theorem_main_bias_runtime_memory(theorem_main_report):
    report, elapsed = theorem_main_report
    bias = next(c for c in report.checks if c["name"] == "bias_fraction<=0.01")
    max_rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 ** 2
    ok = bias["passed"] and elapsed < 1800.0 and max_rss_gb < 8.0
    announce("7iii pruning bias / runtime / memory", ok,
             f"max bias fraction {bias['value']:.2e}, {elapsed:.0f}s, "
             f"peak rss {max_rss_gb:.2f} GB")
    assert bias["passed"]
    assert elapsed < 1800.0
    assert max_rss_gb < 8.0


@pytest.fixture(scope="module")
def walk_theorem_reports():
    cfg2 = ExperimentConfig(log_n_list=(100.0, 200.0, 400.0), j_list=(3, 4, 5),
                            u_list=(1.0,), replicas=2000, seed=DEFAULT_SEED)
    cfg3 = ExperimentConfig(log_n_list=(100.0, 200.0, 400.0), j_list=(3, 4, 5),
                            u_list=(1.0,), replicas=1200, seed=DEFAULT_SEED)
    t0 = time.perf_counter()
    rep2 = harness.run_theorem2(cfg2)
    rep3 = harness.run_theorem3(cfg3)
    return rep2, rep3, time.perf_counter() - t0


def test_criterion_08a_weighted_sum_ks(walk_theorem_reports):
    rep2, _, _ = walk_theorem_reports
    ks = rep2.summary["ks(t=400,u=1)"]
    ok = ks <= 0.15
    announce("8a weighted-sum statistic KS at t=400, j=5", ok,
             f"KS={ks:.3f} vs 0.15, trend {rep2.summary['ks_trend(u=1)']}")
    assert ks <= 0.15, (
        f"KS={ks:.3f}: the prelimit mean sits ~35% above the limit mean at "
        f"(t=400, j=5) (second-order renewal term), which alone shifts the "
        f"CDFs by more than 0.15; see README.md, Acceptance suite")


def test_criterion_08b_birth_count_coupling(walk_theorem_reports):
    _, rep3, elapsed = walk_theorem_reports
    ratio = next(c for c in rep3.checks if c["name"] == "median_ratio<=0.2")
    trend = next(c for c in rep3.checks if c["name"] == "medians_decreasing")
    ok = ratio["passed"] and trend["passed"] and elapsed < 1200.0
    announce("8b birth-count vs weighted-sum coupling", ok,
             f"median ratio {ratio['value']:.3f} vs 0.2, medians {trend['value']}, "
             f"{elapsed:.0f}s total for criterion 8")
    assert ratio["passed"], ratio
    assert trend["passed"], trend
    assert elapsed < 1200.0


def test_criterion_09_inverse_subordinator_laws():
    t0 = time.perf_counter()
    rng = substream(DEFAULT_SEED, 45)
    ks_a = self_similarity_check(0.5, 2.0, 10 ** 5, rng)
    ks_b = self_similarity_check(0.8, 10.0, 10 ** 5, rng)

    draws = inverse_at_level(0.5, 1.0, 10 ** 5, rng, v_step=5e-4)
    se = draws.std() / math.sqrt(draws.size)
    mean_dev = draws.mean() - 2 / math.pi

    cfg = ExperimentConfig(replicas=10 ** 5, seed=DEFAULT_SEED)
    link = harness.run_fixed_level_link(cfg)
    elapsed = time.perf_counter() - t0
    link_ok = link.passed
    ok = (ks_a <= 0.02 and ks_b <= 0.02
          and -4 * se <= mean_dev <= 4 * se + 5e-4 and link_ok)
    announce("9 inverse-subordinator laws", ok,
             f"selfsim KS {ks_a:.4f}/{ks_b:.4f}, mean dev {mean_dev:.4f} "
             f"(4se {4 * se:.4f}), link {[c['value'] for c in link.checks]}, "
             f"{elapsed:.0f}s")
    assert ks_a <= 0.02 and ks_b <= 0.02
    assert -4 * se <= mean_dev <= 4 * se + 5e-4
    assert link_ok, link.checks


def test_criterion_10_determinism_across_workers(tmp_path):
    t0 = time.perf_counter()
    digests = []
    for workers in (1, 4, 16):
        # a warning raised by the run fails the criterion instead of hiding
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = ExperimentConfig(log_n_list=(25.0,), j_list=(2,), u_list=(1.0,),
                                   replicas=128, workers=workers, seed=DEFAULT_SEED)
            report = harness.run_theorem_main(cfg)
        out = tmp_path / f"workers{workers}"
        paths = emit(report, "both", str(out))
        import hashlib

        blob = b"".join((out / p.split("/")[-1]).read_bytes()
                        for p in sorted(paths))
        digests.append(hashlib.sha256(blob).hexdigest())
    elapsed = time.perf_counter() - t0
    ok = len(set(digests)) == 1
    announce("10 determinism across 1/4/16 workers", ok,
             f"digest {digests[0][:12]}..., {elapsed:.0f}s")
    assert len(set(digests)) == 1
