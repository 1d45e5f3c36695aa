import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erfc, gammainc
from scipy.special import gamma as gamma_fn
from scipy.stats import binom

from sievesim.distributions import ModelParams, WLaw, constants, laplace_xi, sample_w_pair
from sievesim.renewal_numerics import (
    _BATCH,
    GridFunction,
    _count_grid_mc,
    _zolotarev_mean,
    check_vj_bound_chain,
    convolution_powers,
    convolve,
    estimate_U,
    estimate_V,
    eta_first_cell,
    fit_two_term,
    renewal_grids,
    uniform_ratio_sup,
    xi_cdf,
)
from sievesim.streams import substream

from count_oracles import check_u_equation


# --- exact lattice toy model: xi uniform on {1,2}, eta = 1/2 ---------------
#
# Walk sums are S_m = m + Binomial(m, 1/2); birth times of depth-d nodes are
# sums of d independent walk prefixes plus d/2, so every mean count is an
# explicitly enumerable binomial series.

def toy_v(t):
    total = 0.0
    m = 0
    while m <= t - 0.5:
        total += binom.cdf(math.floor(t - 0.5 - m), m, 0.5) if m else float(t >= 0.5)
        m += 1
    return total


def toy_v_depth(t, depth):
    total = 0.0
    m = 0
    while m <= t - 0.5 * depth:
        weight = math.comb(m + depth - 1, depth - 1)
        total += weight * (binom.cdf(math.floor(t - 0.5 * depth - m), m, 0.5)
                           if m else float(t >= 0.5 * depth))
        m += 1
    return total


class TestToyEnumeration:
    def test_convolution_matches_exact_enumeration(self):
        # step incommensurate with the birth-time lattice, so atoms fall
        # strictly inside cells; away from the atoms the kernel then has to
        # reproduce the enumerated depth-2 and depth-3 means exactly
        h = 3.0 / 256
        t = np.arange(0, int(12 / h) + 1) * h
        v1 = GridFunction(step=h, values=np.array([toy_v(x) for x in t]))
        powers = convolution_powers(v1, 3)
        for depth, offset in ((2, 0.0), (3, 0.5)):
            exact = np.array([toy_v_depth(x, depth) for x in t])
            # depth-d birth times sit on the lattice (integers + offset);
            # each convolution stage smears an atom by one more cell
            dist = np.abs(t - offset - np.round(t - offset))
            away = dist > 1.5 * h * (depth - 1)
            err = np.abs(powers[depth - 1].values - exact)[away]
            assert np.max(err) <= 1e-9, f"depth {depth}"


class TestXiCdf:
    def test_zolotarev_matches_erfc_at_half(self):
        # the general-alpha integral against the alpha = 1/2 closed form
        x = np.linspace(400.0 / 4096, 800.0, 20001)
        zol = _zolotarev_mean(0.5, 1.0, np.log(x), lambda lam: np.exp(-lam))
        assert np.max(np.abs(zol - erfc(np.sqrt(math.pi / (4.0 * x))))) <= 1e-10

    def test_pareto_closed_form(self):
        params = ModelParams(law=WLaw.PARETO, alpha=0.7, c=2.0)
        x = np.array([0.0, 1.0, 2.0 ** (1 / 0.7), 3.0, 50.0])
        want = np.maximum(1.0 - 2.0 * np.maximum(x, 1e-300) ** -0.7, 0.0)
        assert np.array_equal(xi_cdf(params, x), want)

    @pytest.mark.parametrize("alpha", [0.5, 0.8])
    def test_mixture_table_against_quadrature(self, alpha):
        # P(xi <= x) = int q(s) P(X <= e^(alpha (log x - s))) ds by adaptive
        # quadrature, with q the density of log Z from the 256-node rule;
        # the x are off the table's nodes, and some below its first node
        params = ModelParams(alpha=alpha, law=WLaw.GAMMA_MIXTURE, kappa=2.0)
        b = 1.0 - alpha

        def q(s):
            return _zolotarev_mean(alpha, 1.0, np.array([s]),
                                   lambda lam: alpha / b * lam * np.exp(-lam))[0]

        xs = np.exp(np.array([-65.3, -13.1, -7.77, -2.31, -0.4, 0.9, 3.3, 6.61]))
        got = xi_cdf(params, xs)
        for x, g in zip(xs, got):
            want = quad(lambda s: q(s) * gammainc(2.0, 2.0 * math.exp(alpha * (math.log(x) - s))),
                        -15.0, 80.0, points=[math.log(x)], limit=1000,
                        epsabs=1e-16, epsrel=1e-12)[0]
            assert abs(g - want) <= 1e-9, x

    def test_mixture_matches_monte_carlo(self, case_b2, rng):
        from sievesim.distributions import sample_xi

        draws = np.sort(sample_xi(case_b2, rng, 10 ** 5))
        x = np.array([0.05, 0.5, 2.0, 10.0, 100.0])
        emp = np.searchsorted(draws, x, side="right") / draws.size
        f = xi_cdf(case_b2, x)
        assert np.all(np.abs(emp - f) <= 4.0 * np.sqrt(f * (1 - f) / draws.size) + 1e-12)

    def test_no_warning_at_zero(self, case_a, case_b2):
        # the golden digests run with warnings as errors
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for params in (case_a, ModelParams(alpha=0.8), case_b2,
                           ModelParams(law=WLaw.PARETO)):
                assert xi_cdf(params, np.array([0.0]))[0] == 0.0
                u, v = renewal_grids(params, 2.0, 2.0 / 64)
                assert u.values[0] == 1.0 and v.values[0] == 0.0


SOLVER_LAWS = {
    "a-half": ModelParams(),
    "a-0.8": ModelParams(alpha=0.8),
    "b-kappa2": ModelParams(law=WLaw.GAMMA_MIXTURE, kappa=2.0),
}


class TestRenewalGrids:
    @pytest.fixture(scope="class")
    def solved(self):
        return {name: renewal_grids(p, 400.0, 400.0 / 4096) for name, p in SOLVER_LAWS.items()}

    @pytest.mark.parametrize("name", list(SOLVER_LAWS))
    def test_against_monte_carlo(self, solved, name):
        # both grids within 4 SE of the Monte Carlo oracle at every point
        # where that oracle has a nonzero SE
        params = SOLVER_LAWS[name]
        for k, (grid, estimate) in enumerate(zip(solved[name], (estimate_U, estimate_V))):
            mc = estimate(params, 400.0, 400.0 / 4096, 10 ** 5, substream(14, k))
            ok = mc.se > 0.0
            z = (grid.values[ok] - mc.values[ok]) / mc.se[ok]
            assert np.max(np.abs(z)) <= 4.0, (estimate.__name__, float(np.max(np.abs(z))))

    @pytest.mark.parametrize("name", list(SOLVER_LAWS))
    def test_refinement(self, solved, name):
        u_fine, v_fine = renewal_grids(SOLVER_LAWS[name], 400.0, 400.0 / 8192)
        u, v = solved[name]
        assert np.max(np.abs(v.values - v_fine.values[::2])) <= 5e-4
        assert np.max(np.abs(u.values - u_fine.values[::2])) <= 5e-4

    def test_second_order_constant(self, case_a, consts_a):
        # 1/(1 - e^-Phi) = 1/Phi + 1/2 + O(Phi): V(t) - C sqrt(t) -> 1/2
        _, v = renewal_grids(case_a, 800.0, 800.0 / 4096)
        assert v.values[-1] - consts_a.renewal_coef * math.sqrt(800.0) == pytest.approx(
            0.5, abs=0.002)

    @pytest.mark.parametrize("alpha", [0.5, 0.8])
    def test_second_order_constant_gamma_mixture(self, alpha):
        # the mixture's 1/(1 - phi(s)) = 1/Phi + (kappa+1)/(2 kappa) + O(Phi):
        # V(t) - C t^alpha -> 3/4 at kappa = 2, not the stable law's 1/2
        params = ModelParams(alpha=alpha, law=WLaw.GAMMA_MIXTURE, kappa=2.0)
        _, v = renewal_grids(params, 800.0, 800.0 / 4096)
        dev = v.values[-1] - constants(params).renewal_coef * 800.0 ** alpha
        assert dev == pytest.approx(0.75, abs=0.01)

    def test_bound_chain_on_solved_grid(self, solved, consts_a):
        # zero violations with a zero error scale, and the depth-4 sup of
        # the acceptance suite's criterion 4b
        v = solved["a-half"][1]
        powers = convolution_powers(GridFunction(step=v.step, values=v.values,
                                                 se=np.zeros_like(v.values)), 6)
        d = fit_two_term(v, consts_a.renewal_coef, 0.5)
        assert d == pytest.approx(0.503, abs=0.002)
        violations, _ = check_vj_bound_chain(powers, consts_a, d)
        assert not violations, violations[:3]
        assert uniform_ratio_sup(powers, consts_a, 4, 100.0) == pytest.approx(0.633, abs=0.002)

    @pytest.mark.parametrize("name", list(SOLVER_LAWS))
    def test_transforms(self, solved, name):
        # U against its exact transform 1/(1 - phi(s)), and V at s = 1, where
        # E e^-eta = 1 - E e^-xi makes its transform exactly 1
        params = SOLVER_LAWS[name]
        u, v = solved[name]
        for s in (0.5, 1.0, 2.0):
            target = 1.0 / (1.0 - laplace_xi(params, s))
            assert u.laplace_stieltjes(s) == pytest.approx(target, rel=2e-3), s
        one = v.laplace_stieltjes(1.0, eta_first_cell(params, v.step, 1.0))
        assert one == pytest.approx(1.0, rel=3e-3)

    def test_first_cell_is_the_eta_law(self, case_a, rng):
        h = 400.0 / 4096
        eta, _ = sample_w_pair(case_a, rng, 10 ** 6)
        eta = eta[eta <= h]
        for s in (0.5, 2.0):
            disc = np.exp(-s * eta)
            assert abs(eta_first_cell(case_a, h, s) - disc.mean()) <= 4 * disc.std() / math.sqrt(
                eta.size)


class TestEstimation:
    def test_v_grid_basics(self, grids400):
        v = grids400["v"]
        assert v.values[0] == 0.0
        assert np.all(np.diff(v.values) >= 0)
        assert v.se is not None and v.se[0] == 0.0

    def test_u_grid_origin(self, case_a):
        u = estimate_U(case_a, 50.0, 50.0 / 512, 500, substream(10, 0))
        assert u.values[0] >= 1.0

    def test_replica_floor(self, case_a, rng):
        with pytest.raises(ValueError):
            estimate_V(case_a, 10.0, 0.1, 99, rng)

    def test_two_term_deviation_band(self, grids400, consts_a):
        # V(400) - C*sqrt(400) approaches a positive constant near 1/2
        # (transform expansion of the renewal series); the first-order
        # asymptotics alone would put this at 0
        v = grids400["v"]
        dev = v.values[-1] - consts_a.renewal_coef * math.sqrt(400.0)
        assert 0.25 <= dev <= 0.85

    def test_ratio_to_leading_term_shrinks(self, grids400, consts_a):
        v = grids400["v"]
        t = v.grid()
        ratio = lambda tt: (v(tt) / (consts_a.renewal_coef * math.sqrt(tt)))
        assert ratio(400.0) - 1.0 < ratio(100.0) - 1.0 < ratio(25.0) - 1.0
        assert ratio(400.0) == pytest.approx(1.0, abs=0.08)


def dense_count_grid(draw, horizon, step, n_replicas, rng, origin_mass):
    """Reference for _count_grid_mc: a dense replicas x bins count matrix per
    batch, cumsummed along the bins, filled by its own walk loop."""
    nbin = int(round(horizon / step))
    total, totsq = np.zeros(nbin + 1), np.zeros(nbin + 1)
    for start in range(0, n_replicas, _BATCH):
        nb = min(_BATCH, n_replicas - start)
        counts = np.zeros((nb, nbin + 1))
        counts[:, 0] = 1.0 if origin_mass else 0.0
        s, act = np.zeros(nb), np.arange(nb)
        while act.size:
            eta, xi = draw(rng, act.size)
            pts = s[act] + eta
            ok = pts <= horizon
            np.add.at(counts, (act[ok], np.ceil(pts[ok] / step).astype(np.int64)), 1.0)
            s[act] += xi
            act = act[s[act] <= horizon]
        counts = np.cumsum(counts, axis=1)
        total += counts.sum(axis=0)
        totsq += (counts ** 2).sum(axis=0)
    mean = total / n_replicas
    var = np.maximum(totsq / n_replicas - mean ** 2, 0.0)
    return mean, np.sqrt(var / max(n_replicas - 1, 1))


def draw_v_style(rng_, n):
    # perturbed-walk points T = S + eta arrive out of order within a replica
    return sample_w_pair(ModelParams(), rng_, n)


def draw_u_style(rng_, n):
    xi = rng_.exponential(1.0, n)
    return xi, xi


def draw_lattice(rng_, n):
    # integer points and increments, some zero: several points share a unit bin
    xi = rng_.integers(0, 2, n).astype(float)
    return rng_.integers(0, 3, n), xi


class TestCountGridOracle:
    @pytest.mark.parametrize("draw, horizon, step, n_replicas, origin_mass", [
        (draw_v_style, 20.0, 20.0 / 256, 600, False),
        (draw_u_style, 20.0, 20.0 / 256, 600, True),
        (draw_lattice, 30.0, 1.0, 600, False),
        (draw_v_style, 5.0, 5.0 / 64, _BATCH + 37, False),
    ], ids=["out-of-order", "origin-mass", "shared-bins", "batch-boundary"])
    def test_matches_dense_reference(self, draw, horizon, step, n_replicas, origin_mass):
        got = _count_grid_mc(draw, horizon, step, n_replicas, substream(21, 0),
                             origin_mass)
        want = dense_count_grid(draw, horizon, step, n_replicas, substream(21, 0),
                                origin_mass)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert np.all(got[1][1:] > 0.0)  # the squared counts are really exercised


class TestTransforms:
    @pytest.fixture(scope="class")
    def fine_grids(self, case_a):
        h = 30.0 / 4096
        return (estimate_U(case_a, 30.0, h, 10 ** 5, substream(11, 0)),
                estimate_V(case_a, 30.0, h, 10 ** 5, substream(11, 1)))

    def test_u_transform(self, fine_grids, case_a):
        grid_u, _ = fine_grids
        for s in (0.5, 1.0, 2.0):
            target = 1.0 / (1.0 - laplace_xi(case_a, s))
            assert abs(grid_u.laplace_stieltjes(s) / target - 1.0) <= 0.02, f"s={s}"

    def test_v_transform(self, fine_grids, case_a):
        _, grid_v = fine_grids
        eta, _ = sample_w_pair(case_a, substream(11, 2), 10 ** 6)
        for s in (0.5, 1.0, 2.0):
            target = (np.mean(np.exp(-s * eta))
                      / (1.0 - laplace_xi(case_a, s)))
            assert abs(grid_v.laplace_stieltjes(s) / target - 1.0) <= 0.02, f"s={s}"

    def test_v_transform_at_one_is_unity(self, fine_grids):
        # E e^-eta = 1 - E e^-xi for stick-breaking pairs, so the intensity
        # transform at s=1 is exactly 1
        _, grid_v = fine_grids
        assert grid_v.laplace_stieltjes(1.0) == pytest.approx(1.0, rel=0.02)


class TestConvolve:
    def test_identity_measure(self):
        h = 0.01
        n = 201
        t = np.arange(n) * h
        a = GridFunction(step=h, values=np.sqrt(t))
        delta = np.zeros(n)
        delta[1:] = 1.0  # unit mass in the first cell
        b = GridFunction(step=h, values=delta)
        out = convolve(a, b)
        # convolving with a unit point mass returns a, read half a cell
        # early through the interpolated midpoint
        mid = 0.5 * (a.values[:-1] + a.values[1:])
        assert np.max(np.abs(out.values[1:] - mid)) <= 1e-12
        slope = np.diff(a.values)
        assert np.max(np.abs(out.values[1:] - a.values[1:])) <= 0.51 * slope.max()
        assert np.all(np.abs(out.values[1:] - a.values[1:]) <= 0.51 * slope + 1e-15)

    def test_linear_times_linear(self):
        h = 0.02
        t = np.arange(101) * h
        a = GridFunction(step=h, values=t.copy())
        out = convolve(a, a)
        # midpoint rule integrates a linear integrand exactly
        assert np.max(np.abs(out.values - t ** 2 / 2)) <= 1e-12

    def test_commutativity_on_smooth_powers(self):
        h = 2.0 / 512
        t = np.arange(513) * h
        a = GridFunction(step=h, values=t ** 0.7)
        b = GridFunction(step=h, values=t ** 2.3)
        ab = convolve(a, b).values
        ba = convolve(b, a).values
        assert np.max(np.abs(ab - ba)) <= 5e-3 * max(ab.max(), 1.0)

    def test_step_mismatch(self):
        a = GridFunction(step=0.1, values=np.array([0.0, 1.0]))
        b = GridFunction(step=0.2, values=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            convolve(a, b)

    def test_zero_at_origin_required(self):
        a = GridFunction(step=0.1, values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            convolve(a, a)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=24),
           st.lists(st.floats(0.0, 1.0), min_size=4, max_size=24))
    def test_monotone_preserved(self, inc_a, inc_b):
        n = min(len(inc_a), len(inc_b))
        a = GridFunction(step=0.5, values=np.concatenate([[0.0], np.cumsum(inc_a[:n])]))
        b = GridFunction(step=0.5, values=np.concatenate([[0.0], np.cumsum(inc_b[:n])]))
        out = convolve(a, b)
        assert out.values[0] == 0.0
        assert np.all(np.diff(out.values) >= -1e-12)


class TestConvolutionPowers:
    def test_first_power_is_input(self, grids400):
        assert np.array_equal(grids400["powers"][0].values, grids400["v"].values)

    def test_depth4_ratio_band(self, grids400):
        # transform-series oracle: the depth-4 power at t=200 exceeds its
        # leading term by the second-order series ~ 1.43; see README.md,
        # Acceptance suite
        consts = grids400["consts"]
        v4 = grids400["powers"][3]
        idx = int(round(200.0 / v4.step))
        ratio = v4.values[idx] / (math.exp(consts.log_power_coefs[4]) * 200.0 ** 2)
        assert 1.30 <= ratio <= 1.55

    def test_growth_envelope_where_condition_holds(self, grids400):
        # the 3.31 envelope is only claimed under the smallness condition on
        # (j, t); for small t the ratio provably diverges (the intensity
        # vanishes logarithmically, the power envelope polynomially)
        consts = grids400["consts"]
        dd = grids400["residual_coef"]
        coef = consts.renewal_coef
        checked = 0
        for j in range(1, 7):
            vj = grids400["powers"][j - 1]
            t = vj.grid()[1:]
            cond = (2.0 * dd * j * (0.5 * (j - 1) + 1.0) ** 0.5
                    <= coef * gamma_fn(1.5) * np.sqrt(t))
            target = math.exp(consts.log_power_coefs[j]) * t ** (0.5 * j)
            assert np.all(vj.values[1:][cond] <= 3.31 * target[cond]), f"j={j}"
            checked += int(cond.sum())
        assert checked > 10 ** 4


class TestFitAndBounds:
    def test_exact_power_gives_zero(self, consts_a):
        h = 0.1
        t = np.arange(101) * h
        v = GridFunction(step=h, values=consts_a.renewal_coef * np.sqrt(t))
        assert fit_two_term(v, consts_a.renewal_coef, 0.5) == 0.0

    def test_fit_revalidates_by_construction(self, grids400, consts_a):
        v = grids400["v"]
        d = fit_two_term(v, consts_a.renewal_coef, 0.5)
        t = v.grid()[1:]
        assert np.all(np.abs(v.values[1:] - consts_a.renewal_coef * np.sqrt(t))
                      <= d + 1e-12)

    def test_fit_stable_under_horizon_doubling(self, grids400, case_a, consts_a):
        d400 = grids400["residual_coef"]
        v800 = estimate_V(case_a, 800.0, 800.0 / 4096, 30000, substream(12, 0))
        d800 = fit_two_term(v800, consts_a.renewal_coef, 0.5)
        assert 0.8 <= d800 / d400 <= 1.25

    def test_bound_chain_no_violations(self, grids400):
        powers = grids400["powers"]
        violations, n_checked = check_vj_bound_chain(powers, grids400["consts"],
                                                     grids400["residual_coef"])
        assert not violations, violations[:3]
        assert n_checked > 10 ** 4
        # the deviation envelope alone checks every grid point t > 0 once per
        # depth; more checks mean the simplified bounds were exercised too
        assert n_checked > sum(p.values.size - 1 for p in powers)

    def test_bound_chain_reports_violations(self, grids400):
        # V_2 scaled by 1.5 breaks the deviation envelope at depth 2; the
        # checks made do not depend on the values checked
        powers = list(grids400["powers"])
        powers[1] = GridFunction(step=powers[1].step, values=1.5 * powers[1].values)
        args = (grids400["consts"], grids400["residual_coef"])
        violations, n_checked = check_vj_bound_chain(powers, *args)
        assert any(v["bound"] == "deviation-envelope" and v["j"] == 2 for v in violations)
        for v in violations:
            assert set(v) == {"bound", "j", "t", "lhs", "rhs", "eps"}
            assert v["lhs"] > v["rhs"] + v["eps"]
        assert n_checked == check_vj_bound_chain(grids400["powers"], *args)[1]

    def test_uniform_ratio_shrinks_with_horizon(self, grids400, case_a, consts_a):
        # sup over y >= gamma*horizon of |V_4 ratio - 1| decreases as the
        # horizon grows (same gamma = 1/8)
        sup400 = uniform_ratio_sup(grids400["powers"], grids400["consts"], 4, 50.0)
        v800 = estimate_V(case_a, 800.0, 800.0 / 4096, 30000, substream(12, 0))
        powers800 = convolution_powers(v800, 4)
        sup800 = uniform_ratio_sup(powers800, grids400["consts"], 4, 100.0)
        assert sup800 < sup400

    def test_uniform_ratio_argument_check(self, grids400):
        with pytest.raises(ValueError):
            uniform_ratio_sup(grids400["powers"], grids400["consts"], 4, 1e6)


class TestUEquation:
    def test_t_zero_trivial(self, case_a, rng):
        report = check_u_equation(case_a, [0.0], 200, rng)
        row = report.rows[0]
        assert row["lhs"] == 1.0 and row["rhs"] == 1.0 and row["ok"]

    def test_case_a(self, case_a):
        report = check_u_equation(case_a, [25.0, 100.0], 3 * 10 ** 4, substream(13, 0))
        assert report.passed, report.rows

    def test_case_b(self, case_b2):
        report = check_u_equation(case_b2, [25.0, 100.0], 3 * 10 ** 4, substream(13, 1))
        assert report.passed, report.rows

    def test_rejects_pareto(self, rng):
        with pytest.raises(ValueError):
            check_u_equation(ModelParams(law=WLaw.PARETO), [10.0], 200, rng)


class TestGridFunction:
    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            GridFunction(step=0.1, values=np.array([0.0, 1.0, 0.5]))

    def test_range_check(self):
        g = GridFunction(step=0.5, values=np.array([0.0, 1.0, 2.0]))
        assert g(0.75) == pytest.approx(1.5)
        with pytest.raises(ValueError):
            g(2.0)
        with pytest.raises(ValueError):
            g(-0.5)
