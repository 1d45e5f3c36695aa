import math

import numpy as np
import pytest
from scipy.integrate import quad

from sievesim.distributions import sample_positive_stable
from sievesim.stable_paths import (
    _BATCH,
    _WAVE,
    _accumulate_crossings,
    inverse_mean_coef,
    sample_fixed_level_limits,
    sample_limit_integrals,
)
from sievesim.stats import ks_two_sample

from inverse_oracles import inverse_at_level, inverse_marginal_exact, self_similarity_check


def limit_grid(alpha, u_min):
    """The limit sampler's fixed grid (y_horizon, y_step, v_step): horizon
    40/(alpha u_min), both steps horizon / 2^14."""
    y_horizon = 40.0 / (alpha * u_min)
    return y_horizon, y_horizon / 2 ** 14, y_horizon / 2 ** 14


def limit_integrals_on_grid(alpha, u, n_draws, rng, y_horizon, y_step, v_step):
    """Limit-integral draws at one u on a given grid, scored by the same
    crossing kernel and exponential table as sample_limit_integrals."""
    table = np.exp(-alpha * u * np.arange(round(y_horizon / y_step) + 1) * y_step)
    scores, _ = _accumulate_crossings(alpha, n_draws, y_horizon, y_step, v_step,
                                      [table], rng)
    return v_step * scores[0]


def limit_mean_quadrature(alpha, u):
    """Independent oracle: a u int_0^inf C y^a e^(-a u y) dy with
    C = inverse_mean_coef(alpha), by numeric quadrature."""
    coef = inverse_mean_coef(alpha)
    val, _ = quad(lambda y: alpha * u * coef * y ** alpha * math.exp(-alpha * u * y),
                  0.0, np.inf, limit=200)
    return val


def crossings_reference(alpha, n_paths, y_horizon, y_step, v_step, tables, rng):
    """The wave kernel written with fresh temporaries and np.where masks;
    _accumulate_crossings must match it bit for bit."""
    n_tab = len(tables)
    m = int(round(y_horizon / y_step))
    scores = np.zeros((n_tab, n_paths))
    counts = np.zeros(n_paths)
    for start in range(0, n_paths, _BATCH):
        nb = min(_BATCH, n_paths - start)
        acc = np.zeros((n_tab, nb))
        cnt = np.ones(nb)
        for i, table in enumerate(tables):
            acc[i] += table[0]
        z = np.zeros(nb)
        act = np.arange(nb)
        while act.size:
            inc = sample_positive_stable(alpha, v_step, rng, (act.size, _WAVE))
            zp = z[act, None] + np.cumsum(inc, axis=1)
            below = zp <= y_horizon
            idx = np.where(below, np.minimum(np.ceil(zp / y_step), m).astype(np.int64), 0)
            for i, table in enumerate(tables):
                acc[i, act] += np.where(below, table[idx], 0.0).sum(axis=1)
            cnt[act] += below.sum(axis=1)
            z[act] = zp[:, -1]
            act = act[z[act] <= y_horizon]
        scores[:, start:start + nb] = acc
        counts[start:start + nb] = cnt
    return scores, counts


class TestCrossingKernel:
    @pytest.mark.parametrize("alpha", [0.5, 0.8])
    @pytest.mark.parametrize("n_tables", [0, 1, 3])
    def test_matches_reference(self, alpha, n_tables):
        # the horizon sits between grid points, so the index clamp at m is
        # reached; more paths than one batch holds
        y_horizon = 1.7
        y_step = y_horizon / 130.3
        m = int(round(y_horizon / y_step))
        tables = [np.exp(-(k + 0.5) * np.arange(m + 1) * y_step) for k in range(n_tables)]
        v_step = inverse_mean_coef(alpha) * y_horizon ** alpha / 40.0
        n_paths = _BATCH + 1500
        rng_new, rng_ref = np.random.default_rng(71), np.random.default_rng(71)
        scores, counts = _accumulate_crossings(alpha, n_paths, y_horizon, y_step, v_step,
                                               tables, rng_new)
        ref_scores, ref_counts = crossings_reference(alpha, n_paths, y_horizon, y_step,
                                                     v_step, tables, rng_ref)
        assert scores.shape == (n_tables, n_paths)
        assert np.array_equal(scores, ref_scores)
        assert np.array_equal(counts, ref_counts)
        assert rng_new.random() == rng_ref.random()


class TestSubordinatorPath:
    def test_infinite_divisibility(self, rng):
        # two half-step increments vs one full-step increment
        full = sample_positive_stable(0.5, 0.2, rng, 10 ** 5)
        halves = (sample_positive_stable(0.5, 0.1, rng, 10 ** 5)
                  + sample_positive_stable(0.5, 0.1, rng, 10 ** 5))
        assert ks_two_sample(full, halves) <= 0.01

    def test_inverse_mean_coef(self):
        # MC mean of Z(1)^-alpha equals the coefficient (duality at y=1)
        rng = np.random.default_rng(5)
        z = sample_positive_stable(0.5, 1.0, rng, 10 ** 6)
        draws = z ** -0.5
        se = draws.std() / 1000
        assert abs(draws.mean() - inverse_mean_coef(0.5)) <= 4 * se


class TestInvertPath:
    def test_marginal_duality(self, rng):
        # grid first passage at level 1 vs the exact marginal (1/Z(1))^alpha
        draws = inverse_at_level(0.5, 1.0, 10 ** 5, rng, v_step=2e-3)
        ref = inverse_marginal_exact(0.5, 1.0, 10 ** 5, rng)
        assert ks_two_sample(draws, ref) <= 0.02

    def test_mean_matches_power_law(self, rng):
        # E inverse(y) = coef * y^alpha at y in {0.5, 1, 2}
        coef = inverse_mean_coef(0.5)
        for y in (0.5, 1.0, 2.0):
            scale = coef * y ** 0.5
            v_step = scale / 256.0
            draws = inverse_at_level(0.5, y, 10 ** 5, rng, v_step=v_step)
            se = draws.std() / math.sqrt(draws.size)
            # upward discretization bias is at most one v_step
            assert -4 * se <= draws.mean() - scale <= 4 * se + v_step


class TestLimitIntegral:
    def test_mean_u1_u2(self, rng):
        vals, tails = sample_limit_integrals(0.5, [1.0, 2.0], 10 ** 5, rng)
        y_horizon, y_step, v_step = limit_grid(0.5, 1.0)
        for k, u in enumerate((1.0, 2.0)):
            oracle = limit_mean_quadrature(0.5, u)
            se = vals[:, k].std() / math.sqrt(vals.shape[0])
            bias = v_step + 0.5 * u * y_step * oracle
            assert abs(vals[:, k].mean() - oracle) <= 4 * se + bias, f"u={u}"
        assert np.all(tails >= 0)

    def test_analytic_oracle_values(self):
        assert limit_mean_quadrature(0.5, 1.0) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-9)
        assert limit_mean_quadrature(0.5, 2.0) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-9)

    def test_pathwise_monotone_in_u(self, rng):
        vals, _ = sample_limit_integrals(0.5, [0.5, 1.0, 2.0, 4.0], 2000, rng)
        assert np.all(np.diff(vals, axis=1) <= 0)

    def test_single_draw_interface(self, rng):
        vals, tails = sample_limit_integrals(0.5, [1.0], 1, rng)
        assert vals.shape == (1, 1) and tails.shape == (1, 1)
        assert vals[0, 0] > 0

    def test_truncation_gate(self, rng):
        # as alpha u -> 0 the tail bound over the estimate tends to
        # e^-40 / (alpha u), which is 8.5e-3 at u = 1e-15
        with pytest.raises(ValueError, match="truncation too coarse"):
            sample_limit_integrals(0.5, [1e-15], 50, rng)

    def test_fixed_grid_is_the_kernel_grid(self):
        # the sampler's draws are the kernel's on limit_grid, bit for bit
        vals, _ = sample_limit_integrals(0.5, [1.0], 500, np.random.default_rng(73))
        ref = limit_integrals_on_grid(0.5, 1.0, 500, np.random.default_rng(73),
                                      *limit_grid(0.5, 1.0))
        assert np.array_equal(vals[:, 0], ref)

    def test_grid_refinement_stability(self, rng):
        # halving both grids moves the mean by less than the combined
        # discretization bound plus Monte Carlo noise
        y_horizon, y_step, v_step = limit_grid(0.5, 1.0)
        a = limit_integrals_on_grid(0.5, 1.0, 2 * 10 ** 4, rng, y_horizon, y_step, v_step)
        b = limit_integrals_on_grid(0.5, 1.0, 2 * 10 ** 4, rng,
                                    y_horizon, y_step / 2, v_step / 2)
        se = math.hypot(a.std() / math.sqrt(a.size), b.std() / math.sqrt(b.size))
        bound = v_step + 0.5 * y_step * 1.0
        assert abs(a.mean() - b.mean()) <= 4 * se + bound

    def test_rejects_bad_u(self, rng):
        with pytest.raises(ValueError):
            sample_limit_integrals(0.5, [], 10, rng)
        with pytest.raises(ValueError):
            sample_limit_integrals(0.5, [0.0], 10, rng)


class TestFixedLevel:
    def test_depth_one_is_first_passage(self, rng):
        # integrand 1: the draw is exactly the grid passage time of level 1
        v_step = inverse_mean_coef(0.5) / 1024.0
        draws = sample_fixed_level_limits(0.5, [1], 2 * 10 ** 4, rng)[:, 0]
        ticks = draws / v_step
        assert np.allclose(ticks, np.round(ticks), atol=1e-6)
        ref = inverse_marginal_exact(0.5, 1.0, 2 * 10 ** 4, rng)
        assert ks_two_sample(draws, ref) <= 0.03

    def test_depth_one_mean(self, rng):
        draws = sample_fixed_level_limits(0.5, [1], 3 * 10 ** 4, rng)[:, 0]
        coef = inverse_mean_coef(0.5)
        se = draws.std() / math.sqrt(draws.size)
        v_step = coef / 1024.0
        assert -3 * se <= draws.mean() - coef <= 3 * se + v_step

    def test_depth_mean_oracle(self, rng):
        # E[j^a I_j] = j^a coef a B(a, a(j-1)+1) via quadrature
        j, alpha = 8, 0.5
        coef = inverse_mean_coef(alpha)
        oracle, _ = quad(lambda y: coef * alpha * y ** (alpha - 1)
                         * (1 - y) ** (alpha * (j - 1)), 0.0, 1.0, limit=200)
        draws = sample_fixed_level_limits(alpha, [j], 4 * 10 ** 4, rng)[:, 0]
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - oracle) <= 4 * se + coef / 512.0

    def test_depth_one_baseline(self, rng):
        # depth 1 is the raw inverse value: clearly distinct from the limit
        # that j^alpha times the depth-j draw approaches
        ref = sample_limit_integrals(0.5, [1.0], 3000, rng)[0][:, 0]
        joint = sample_fixed_level_limits(0.5, (1, 16), 3000, rng)
        ks1, ks16 = (ks_two_sample(j ** 0.5 * col, ref) for j, col in zip((1, 16), joint.T))
        assert ks1 > 3 * ks16
        assert ks1 > 0.05

    def test_rejects_bad_depth(self, rng):
        for js in ([0], [4, 0], []):
            with pytest.raises(ValueError):
                sample_fixed_level_limits(0.5, js, 10, rng)

    def test_joint_depths_share_paths(self):
        js, n, v_step = (1, 4, 16), 3000, inverse_mean_coef(0.5) / 1024.0
        draws = sample_fixed_level_limits(0.5, js, n, np.random.default_rng(72))
        assert draws.shape == (n, len(js))
        # the integrand decreases in j, so every path orders its draws
        assert np.all(np.diff(draws, axis=1) <= 0.0)
        ticks = draws[:, 0] / v_step
        assert np.allclose(ticks, np.round(ticks), rtol=0.0, atol=1e-9)
        # the paths do not depend on the depths: the first column is the
        # single-depth draw on the same stream
        alone = sample_fixed_level_limits(0.5, js[:1], n, np.random.default_rng(72))
        assert np.array_equal(draws[:, 0], alone[:, 0])


class TestSelfSimilarity:
    def test_same_law_baseline(self, rng):
        ks = self_similarity_check(0.5, 1.0, 2 * 10 ** 4, rng)
        assert ks <= 0.02

    def test_scaling_pair(self, rng):
        ks = self_similarity_check(0.5, 2.0, 2 * 10 ** 4, rng)
        assert ks <= 0.02

    def test_rejects_bad_j(self, rng):
        with pytest.raises(ValueError):
            self_similarity_check(0.5, 0.0, 10, rng)

