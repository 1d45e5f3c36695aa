import math
import warnings

import numpy as np
import pytest

from sievesim import occupancy
from sievesim.distributions import ModelParams
from sievesim.occupancy import OccupancyTree, expand_tree, occupancy_poissonized
from sievesim.streams import substream

from count_oracles import throw_balls_exact


def check_conservation(tree, atol=1e-9):
    """Retained mass plus the pruned mass reachable at each level is 1."""
    for j in range(1, tree.max_level + 1):
        total = float(np.sum(np.exp(-tree.neglogs[j - 1]))) + tree.pruned_mass(j)
        assert 1.0 - 1e-6 <= total <= 1.0 + atol, f"mass at level {j} off: {total}"


@pytest.fixture
def small_tree(case_a):
    return expand_tree(case_a, 3, neglog_threshold=20.0, rng=substream(20, 0))


class TestExpandTree:
    def test_mass_conservation(self, case_a, case_b2):
        for i, params in enumerate([case_a, case_b2,
                                    ModelParams(alpha=0.8, c=0.5),
                                    ModelParams(alpha=0.3, c=2.0)]):
            tree = expand_tree(params, 3, neglog_threshold=15.0, rng=substream(21, i))
            check_conservation(tree, atol=1e-9)

    def test_child_heavier_than_parent_neglog(self, small_tree):
        # every child's -log mass exceeds its parent's; the increment can be
        # as small as |log(1-W)| ~ 1e-300, which is absorbed by float
        # addition, so equality is allowed at float resolution
        parent_neglog = np.zeros(1)
        for j in range(1, 4):
            nl = small_tree.neglogs[j - 1]
            assert np.all(nl >= parent_neglog[small_tree.parents[j - 1]])
            assert np.all(nl <= 20.0)
            parent_neglog = nl

    def test_threshold_above_all_sticks_prunes_everything(self, case_a):
        # with the threshold this close to 1 the realized first-level masses
        # are all pruned for this seed; all mass lands in the ledger
        tree = expand_tree(case_a, 2, neglog_threshold=1e-13, rng=substream(22, 0))
        assert tree.level_size(1) == 0
        assert tree.pruned_mass(1) == pytest.approx(1.0, abs=1e-9)

    def test_argument_validation(self, case_a, rng):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                expand_tree(case_a, 2, neglog_threshold=bad, rng=rng)
        with pytest.raises(ValueError):
            expand_tree(case_a, 0, neglog_threshold=1.0, rng=rng)

    def test_node_cap(self, case_a, monkeypatch):
        monkeypatch.setattr(occupancy, "_NODE_CAP", 3)
        with pytest.raises(RuntimeError, match="cap"):
            expand_tree(case_a, 2, neglog_threshold=100.0, rng=substream(24, 0))

    def test_determinism(self, case_a):
        a = expand_tree(case_a, 3, neglog_threshold=18.0, rng=substream(25, 0))
        b = expand_tree(case_a, 3, neglog_threshold=18.0, rng=substream(25, 0))
        for j in range(3):
            assert np.array_equal(a.neglogs[j], b.neglogs[j])
            assert np.array_equal(a.parents[j], b.parents[j])
        assert np.array_equal(a.pruned_at, b.pruned_at)

    def test_mean_counts_match_grid(self, grids400, case_a):
        # pruned at t, a tree retains exactly the nodes born by t, so
        # E(level size j) is the depth-j convolution power at t: tree
        # counting vs the grid, 200 replicas
        t = 25.0
        rng = substream(26, 0)
        counts = np.empty((200, 3))
        for r in range(200):
            tree = expand_tree(case_a, 3, neglog_threshold=t, rng=rng)
            counts[r] = [tree.level_size(j) for j in (1, 2, 3)]
        for j in (1, 2, 3):
            grid_val = grids400["powers"][j - 1](t)
            se = counts[:, j - 1].std() / math.sqrt(200)
            assert abs(counts[:, j - 1].mean() - grid_val) <= 4 * se + 0.02 * grid_val, f"j={j}"


class TestThrowBallsExact:
    def test_single_ball(self, small_tree):
        counts, bias = throw_balls_exact(small_tree, 1, substream(27, 0))
        total = counts + (bias > 0)
        assert np.all(counts <= 1)
        assert np.all(total >= counts)

    def test_nesting_and_ball_bound(self, small_tree):
        rng = substream(27, 1)
        for n in (10, 1000):
            counts, bias = throw_balls_exact(small_tree, n, rng)
            assert np.all(np.diff(counts) >= 0)
            assert counts[-1] <= n
            assert np.all(np.diff(bias) >= 0)

    def test_ball_count_bounds(self, small_tree, rng):
        with pytest.raises(ValueError):
            throw_balls_exact(small_tree, 0, rng)
        with pytest.raises(ValueError):
            throw_balls_exact(small_tree, 10 ** 7 + 1, rng)


class TestPoissonized:
    def test_nesting_invariant(self, small_tree):
        rng = substream(28, 0)
        for _ in range(50):
            counts, _ = occupancy_poissonized(small_tree, 8.0, rng)
            assert np.all(np.diff(counts) >= 0)

    def test_saturation(self, case_a):
        # overwhelming ball mass occupies every retained box
        tree = expand_tree(case_a, 2, neglog_threshold=10.0, rng=substream(28, 1))
        counts, _ = occupancy_poissonized(tree, 80.0, substream(28, 2))
        assert counts[-1] == tree.level_size(2)
        assert counts[0] == tree.level_size(1)

    def test_huge_log_n_is_warning_free(self):
        # at log n = 1000 the argument log n - neglog far exceeds 36, where
        # the occupation probability is exactly 1; nothing may overflow
        neglogs = np.array([1.0, 500.0, 963.0, 1200.0, 1500.0])
        tree = OccupancyTree(max_level=1, parents=[np.zeros(neglogs.size, dtype=np.int64)],
                             neglogs=[neglogs], pruned_at=np.zeros(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts, _ = occupancy_poissonized(tree, 1000.0, substream(28, 3))
        # the last two leaves have probability below 1e-80
        assert counts[0] == np.count_nonzero(1000.0 - neglogs > 36.0) == 3

    def test_mean_first_level_matches_grid(self, grids400, case_a):
        # Poissonized occupancy at depth 1: the mean count is the intensity
        # grid at log n within a few percent
        log_n = 400.0
        rng = substream(29, 0)
        neglog_t = log_n + 2 * math.log(log_n)
        n_rep = 2000
        counts = np.empty(n_rep)
        for r in range(n_rep):
            tree = expand_tree(case_a, 1, neglog_threshold=neglog_t, rng=rng)
            counts[r] = occupancy_poissonized(tree, log_n, rng)[0][0]
        grid_val = grids400["v"].values[-1]  # V(400)
        assert abs(counts.mean() / grid_val - 1.0) <= 0.05

    def test_pruned_bias_bound_sound(self, case_a):
        # refining the threshold tenfold moves the mean counts by less than
        # the reported bias bound (plus Monte Carlo noise)
        log_n = 25.0
        reps = 400
        means = {}
        biases = {}
        ses = {}
        for tag, extra in (("coarse", 0.0), ("fine", math.log(10.0))):
            rng = substream(31, 0)  # same stream: paired comparison
            neglog_t = log_n + 2 * math.log(log_n) + extra
            counts = np.empty((reps, 2))
            bias = np.empty((reps, 2))
            for r in range(reps):
                tree = expand_tree(case_a, 2, neglog_threshold=neglog_t, rng=rng)
                counts[r], bias[r] = occupancy_poissonized(tree, log_n, rng)
            means[tag] = counts.mean(axis=0)
            biases[tag] = bias.mean(axis=0)
            ses[tag] = counts.std(axis=0) / math.sqrt(reps)
        for j in (0, 1):
            shift = abs(means["fine"][j] - means["coarse"][j])
            noise = 3 * math.hypot(ses["fine"][j], ses["coarse"][j])
            assert shift <= biases["coarse"][j] + noise, f"level {j + 1}"

    def test_log_n_validation(self, small_tree, rng):
        with pytest.raises(ValueError):
            occupancy_poissonized(small_tree, 0.0, rng)
