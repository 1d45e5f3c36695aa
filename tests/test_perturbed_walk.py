import functools
import math

import numpy as np
import pytest

from sievesim.distributions import sample_w_pair, sample_xi
from sievesim.perturbed_walk import (
    WalkPath,
    generate_walk,
    walk_points,
    weighted_sum_statistic,
)
from sievesim.renewal_numerics import GridFunction, estimate_V
from sievesim.stats import ks_two_sample
from sievesim.streams import substream

from inverse_oracles import inverse_at_level


def scripted(etas, xis):
    """A walk_points draw that replays fixed (eta, xi) waves and records the
    size of every request."""
    waves = iter(zip(etas, xis))
    sizes = []

    def draw(rng, n):
        eta, xi = next(waves)
        eta, xi = np.atleast_1d(np.asarray(eta, float)), np.atleast_1d(np.asarray(xi, float))
        assert eta.size == xi.size == n
        sizes.append(n)
        return eta, xi
    draw.sizes = sizes
    return draw


def count_N(walk: WalkPath, t: float) -> np.ndarray:
    """Points at or below t, per walk."""
    if t > walk.horizon:
        raise ValueError(f"t={t} is beyond the walk horizon {walk.horizon}")
    return np.bincount(walk.owner[walk.t_values <= t], minlength=walk.n_walks)


class TestAssembly:
    def test_exact_stopping_rule(self):
        draw = scripted([0.5, 4.0, 0.1], [1.0, 2.0, 5.0])
        owner, points, exit_mass = walk_points(draw, np.zeros(1), 6.0, None)
        # S = 0,1,3,8: stop at S_3 = 8 > 6; T = 0.5, 5.0, 3.1 all <= 6
        assert np.allclose(np.sort(points), [0.5, 3.1, 5.0])
        assert np.array_equal(owner, [0, 0, 0])
        assert draw.sizes == [1, 1, 1]
        assert exit_mass == pytest.approx(math.exp(-8.0), rel=1e-15)

    def test_points_beyond_horizon_filtered(self):
        # T_2 = 1 + 3 = 4 > 2 is dropped, but S_2 = 1.5 <= 2, so the walk
        # goes on and keeps T_3 = 1.5 + 0.2
        draw = scripted([0.5, 3.0, 0.2], [1.0, 0.5, 5.0])
        _, points, exit_mass = walk_points(draw, np.zeros(1), 2.0, None)
        assert np.allclose(points, [0.5, 1.7])
        assert exit_mass == pytest.approx(math.exp(-4.0) + math.exp(-6.5), rel=1e-15)

    def test_first_point_beyond_horizon(self):
        owner, points, _ = walk_points(scripted([2.0], [5.0]), np.zeros(1), 1.0, None)
        assert points.size == 0
        assert owner.size == 0 and owner.dtype == np.int64

    def test_waves_shrink_with_live_walks(self):
        # walks shifted by 0, 1, 2 with unit steps leave a horizon of 2.5
        # after 3, 2 and 1 waves; points come back in generation order
        draw = scripted([np.full(3, 0.25), np.full(2, 0.25), [0.25]],
                        [np.ones(3), np.ones(2), [1.0]])
        owner, points, _ = walk_points(draw, np.array([0.0, 1.0, 2.0]), 2.5, None)
        assert draw.sizes == [3, 2, 1]
        assert np.array_equal(owner, [0, 1, 2, 0, 1, 0])
        assert np.allclose(points, [0.25, 1.25, 2.25, 1.25, 2.25, 2.25])

    def test_ledger_identity(self, case_a, case_b2):
        # children kept below the horizon plus the exit mass are the whole
        # stick-breaking mass of the parents
        for i, params in enumerate([case_a, case_b2]):
            rng = substream(30, i)
            starts = rng.uniform(0.0, 8.0, 500)
            _, points, exit_mass = walk_points(functools.partial(sample_w_pair, params),
                                               starts, 12.0, rng)
            total = float(np.sum(np.exp(-starts)))
            kept = float(np.sum(np.exp(-points)))
            assert kept + exit_mass == pytest.approx(total, rel=1e-12)
            assert 0.0 < exit_mass < total

    def test_starts_unchanged(self, case_a):
        starts = substream(31, 0).uniform(0.0, 8.0, 300)
        before = starts.copy()
        walk_points(functools.partial(sample_w_pair, case_a), starts, 12.0,
                    substream(31, 1))
        assert np.array_equal(starts, before)

    def test_shared_eta_xi_array(self, case_a):
        # a draw may hand back one array as both eta and xi (the U grid does):
        # the walk must give what it gives for two separate copies
        def shared(rng, n):
            xi = sample_xi(case_a, rng, n)
            return xi, xi

        def copies(rng, n):
            xi = sample_xi(case_a, rng, n)
            return xi.copy(), xi.copy()

        starts = substream(32, 0).uniform(0.0, 8.0, 300)
        got = walk_points(shared, starts, 40.0, substream(32, 1))
        ref = walk_points(copies, starts, 40.0, substream(32, 1))
        assert got[1].size > starts.size
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
        assert got[2] == ref[2]


class TestGenerateWalk:
    def test_invariants(self, rng, case_a):
        walk = generate_walk(case_a, 50.0, rng, 200)
        assert walk.n_walks == 200 and walk.owner.size == walk.t_values.size
        assert np.all((walk.owner >= 0) & (walk.owner < 200))
        assert np.all(walk.t_values <= 50.0)
        assert np.all(walk.t_values > 0)

    def test_horizon_validation(self, rng, case_a):
        with pytest.raises(ValueError):
            generate_walk(case_a, 0.0, rng, 10)


class TestCountN:
    def test_boundaries(self):
        # with unit weights the statistic counts the points, one of them at
        # the horizon; the grid must reach the horizon
        walk = WalkPath(horizon=9.0, n_walks=1, owner=np.zeros(3, dtype=np.int64),
                        t_values=np.array([2.0, 5.0, 9.0]))
        assert weighted_sum_statistic(walk, GridFunction(step=1.0, values=np.ones(10)))[0] == 3
        with pytest.raises(ValueError, match="grid"):
            weighted_sum_statistic(walk, GridFunction(step=1.0, values=np.ones(9)))

    def test_monotone_in_t(self, rng, case_a):
        walk = generate_walk(case_a, 100.0, rng, 50)
        counts = np.array([count_N(walk, t) for t in np.linspace(0, 100, 33)])
        assert np.all(np.diff(counts, axis=0) >= 0)

    def test_mean_matches_intensity_grid(self, case_a):
        # dual estimators of the same mean: walk counts vs the grid
        grid = estimate_V(case_a, 1000.0, 1000.0 / 4096, 20000, substream(1, 0))
        n_rep = 10 ** 4
        walk = generate_walk(case_a, 1000.0, substream(1, 1), n_rep)
        for t in (10.0, 100.0, 1000.0):
            vals = count_N(walk, t)
            se_mc = vals.std() / math.sqrt(n_rep)
            idx = int(round(t / grid.step))
            se = math.hypot(se_mc, grid.se[idx])
            assert abs(vals.mean() - grid.values[idx]) <= 4 * se, f"t={t}"

    def test_scaled_counts_match_inverse_marginals(self, case_a):
        # c (t/j)^-alpha N(y t/j) against inverse-subordinator draws; the
        # reference is sampled on the same value lattice c (t/j)^-alpha Z so
        # the comparison is not dominated by the count granularity
        t, j = 1e4, 10
        s = t / j
        rng = substream(2, 0)
        n_rep = 10 ** 4
        lattice = case_a.c * s ** -case_a.alpha
        walk = generate_walk(case_a, 2.0 * s, rng, n_rep)
        for y in (0.5, 1.0, 2.0):
            scaled = lattice * count_N(walk, y * s)
            ref = inverse_at_level(case_a.alpha, y, n_rep, rng, v_step=lattice)
            assert ks_two_sample(scaled, ref) <= 0.05, f"y={y}"


class TestWeightedSum:
    def test_depth_zero_weights_reduce_to_count(self, rng, case_a):
        ones = GridFunction(step=1.0, values=np.ones(101))
        walk = generate_walk(case_a, 100.0, rng, 100)
        stat = weighted_sum_statistic(walk, ones)
        assert np.array_equal(stat, count_N(walk, 100.0))

    def test_empty_walk(self):
        # walks 0 and 2 have no points; walk 1 has one
        walk = WalkPath(horizon=5.0, n_walks=3, owner=np.array([1]),
                        t_values=np.array([4.5]))
        ones = GridFunction(step=1.0, values=np.ones(6))
        assert np.array_equal(weighted_sum_statistic(walk, ones), [0.0, 1.0, 0.0])
        empty = WalkPath(horizon=5.0, n_walks=2, owner=np.empty(0, dtype=np.int64),
                         t_values=np.empty(0))
        assert np.array_equal(weighted_sum_statistic(empty, ones), [0.0, 0.0])

    def test_matches_per_walk_sum(self, grids400, case_a):
        v4 = grids400["powers"][3]
        t = 300.0
        walk = generate_walk(case_a, t, substream(3, 1), 500)
        stat = weighted_sum_statistic(walk, v4)
        for r in range(walk.n_walks):
            pts = walk.t_values[walk.owner == r]
            ref = float(np.sum(v4(t - pts))) if pts.size else 0.0
            assert stat[r] == pytest.approx(ref, rel=1e-12, abs=0.0), f"walk {r}"

    def test_grid_coverage_error(self, rng, case_a):
        walk = generate_walk(case_a, 100.0, rng, 10)
        short = GridFunction(step=1.0, values=np.ones(11))
        with pytest.raises(ValueError, match="grid"):
            weighted_sum_statistic(walk, short)

    def test_mean_matches_convolution_power(self, grids400, case_a):
        # E of the weighted sum with depth-4 weights equals the depth-5 power
        # on the grid: two independent estimators of the same quantity
        v4 = grids400["powers"][3]
        v5 = grids400["powers"][4]
        t = 400.0
        n_rep = 3000
        stats = weighted_sum_statistic(generate_walk(case_a, t, substream(3, 0), n_rep), v4)
        grid_pred = v5.values[-1]
        se_mc = stats.std() / math.sqrt(n_rep)
        # the grid prediction inherits roughly j-fold the relative SE of the
        # base grid; combine both error sources
        rel = 5.0 * grids400["v"].se[-1] / grids400["v"].values[-1]
        se = math.hypot(se_mc, rel * grid_pred)
        assert abs(stats.mean() - grid_pred) <= 4 * se
