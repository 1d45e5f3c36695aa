import math

import numpy as np
import pytest
from scipy.integrate import quad

from sievesim.distributions import sample_positive_stable
from sievesim.stable_paths import (
    default_limit_grid,
    inverse_mean_coef,
    sample_fixed_level_limits,
    sample_limit_integrals,
)
from sievesim.stats import ks_two_sample

from inverse_oracles import inverse_at_level, inverse_marginal_exact, self_similarity_check


def limit_mean_quadrature(alpha, u):
    """Independent oracle: a u int_0^inf C y^a e^(-a u y) dy with
    C = inverse_mean_coef(alpha), by numeric quadrature."""
    coef = inverse_mean_coef(alpha)
    val, _ = quad(lambda y: alpha * u * coef * y ** alpha * math.exp(-alpha * u * y),
                  0.0, np.inf, limit=200)
    return val


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
        y_horizon, y_step, v_step = default_limit_grid(0.5, 1.0)
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
        with pytest.raises(ValueError, match="truncation too coarse"):
            sample_limit_integrals(0.5, [1.0], 50, rng,
                                   y_horizon=2.0, y_step=2.0 / 256, v_step=2.0 / 256)

    def test_grid_refinement_stability(self, rng):
        # halving both grids moves the mean by less than the combined
        # discretization bound plus Monte Carlo noise
        y_horizon, y_step, v_step = default_limit_grid(0.5, 1.0)
        a, _ = sample_limit_integrals(0.5, [1.0], 2 * 10 ** 4, rng,
                                      y_horizon, y_step, v_step)
        b, _ = sample_limit_integrals(0.5, [1.0], 2 * 10 ** 4, rng,
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
        draws = sample_fixed_level_limits(0.5, 1, 2 * 10 ** 4, rng, v_step=v_step)
        ticks = draws / v_step
        assert np.allclose(ticks, np.round(ticks), atol=1e-6)
        ref = inverse_marginal_exact(0.5, 1.0, 2 * 10 ** 4, rng)
        assert ks_two_sample(draws, ref) <= 0.03

    def test_depth_one_mean(self, rng):
        draws = sample_fixed_level_limits(0.5, 1, 3 * 10 ** 4, rng)
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
        draws = sample_fixed_level_limits(alpha, j, 4 * 10 ** 4, rng)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - oracle) <= 4 * se + coef / 512.0

    def test_rejects_bad_depth(self, rng):
        with pytest.raises(ValueError):
            sample_fixed_level_limits(0.5, 0, 10, rng)


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

