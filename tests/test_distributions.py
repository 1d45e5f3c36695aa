import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erfc, gamma as gamma_fn, gammaln
from scipy.stats import kstest

from sievesim.distributions import (
    _TINY,
    ModelParams,
    WLaw,
    _kanter,
    constants,
    gamma_ratio_bound_holds,
    laplace_xi,
    neg_moment_via_laplace,
    sample_positive_stable,
    sample_w_pair,
    sample_xi,
    w_pair_from_xi,
)
from sievesim.stats import ks_two_sample
from sievesim.streams import substream


def mc_se(x):
    return x.std() / math.sqrt(x.size)


def kanter_reference(alpha, time_scale, rng, n):
    """Kanter's representation as plain array expressions, one temporary per
    operation; the in-place sampler must match it bit for bit."""
    u = np.pi * rng.random(n)
    u = np.maximum(u, 1e-100)
    e = np.maximum(rng.standard_exponential(n), _TINY)
    log_a = (alpha * np.log(np.sin(alpha * u))
             + (1.0 - alpha) * np.log(np.sin((1.0 - alpha) * u))
             - np.log(np.sin(u))) / (1.0 - alpha)
    log_std = (1.0 - alpha) / alpha * (log_a - np.log(e))
    log_scale = (math.log(time_scale) + math.log(gamma_fn(1.0 - alpha))) / alpha
    return np.exp(log_scale + log_std)


class TestPositiveStable:
    def test_laplace_transform_mc(self, rng):
        # defining property: E e^-Z = exp(-Gamma(1-alpha) * 1^alpha)
        z = sample_positive_stable(0.5, 1.0, rng, 10 ** 6)
        vals = np.exp(-z)
        oracle = math.exp(-gamma_fn(0.5))
        assert abs(vals.mean() - oracle) <= 3 * mc_se(vals)

    @pytest.mark.parametrize("time_scale", [1.0, 5e-4])
    def test_half_matches_exact_cdf(self, time_scale):
        # alpha = 1/2 is the Levy law: P{Z <= x} = erfc(sqrt(pi t^2 / (4 x)))
        n = 10 ** 5
        z = sample_positive_stable(0.5, time_scale, substream(46, 0), n)
        d = kstest(z, lambda x: erfc(np.sqrt(np.pi * time_scale ** 2 / (4 * x)))).statistic
        assert d <= 1.628 / math.sqrt(n)  # the one-sample 1% critical value

    @pytest.mark.parametrize("time_scale", [1.0, 5e-4])
    def test_half_matches_kanter_in_law(self, time_scale):
        # the Levy draw against Kanter's construction on an independent stream
        n = 10 ** 5
        half = sample_positive_stable(0.5, time_scale, substream(46, 1), n)
        kanter = _kanter(0.5, time_scale, substream(46, 2), n)
        assert ks_two_sample(half, kanter) <= 1.628 * math.sqrt(2 / n)

    @pytest.mark.parametrize("a,b", [(1, 999), (1000, 2500), (4097, 3)])
    def test_half_split_invariant(self, a, b):
        # one normal per value: two calls on one stream give the values of a
        # single call of the summed size, and leave the stream at the same point
        rng_split, rng_one = substream(46, 3), substream(46, 3)
        split = np.concatenate([sample_positive_stable(0.5, 5e-4, rng_split, a),
                                sample_positive_stable(0.5, 5e-4, rng_split, b)])
        assert np.array_equal(split, sample_positive_stable(0.5, 5e-4, rng_one, a + b))
        assert rng_split.random() == rng_one.random()

    def test_half_zero_normal_is_infinite(self):
        class Zeros:
            def standard_normal(self, size):
                return np.array([0.0, 1.0])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = sample_positive_stable(0.5, 1.0, Zeros(), 2)
        assert z[0] == np.inf and z[1] == math.pi / 2

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.8, 0.95])
    @pytest.mark.parametrize("time_scale", [1e-4, 0.003, 1.0, 7.0])
    def test_kanter_in_place_matches_reference(self, alpha, time_scale):
        # same draws, same operations in the same order: equal bits and the
        # stream left at the same point
        rng_new, rng_ref = substream(47, 0), substream(47, 0)
        for size in (1000, (300, 256)):
            new = _kanter(alpha, time_scale, rng_new, size)
            ref = kanter_reference(alpha, time_scale, rng_ref, size)
            assert new.shape == ref.shape
            assert np.array_equal(new, ref)
        assert rng_new.random() == rng_ref.random()

    def test_time_scaling(self, rng):
        # Z(c t) has the law of t^(1/alpha) Z(c)
        alpha, c, t = 0.7, 0.7, 3.0
        a = sample_positive_stable(alpha, c * t, rng, 10 ** 5)
        b = t ** (1 / alpha) * sample_positive_stable(alpha, c, rng, 10 ** 5)
        assert ks_two_sample(a, b) <= 0.01

    def test_positivity_and_shapes(self, rng):
        z = sample_positive_stable(0.5, 1.0, rng, 1000)
        assert np.all(z > 0)
        assert sample_positive_stable(0.5, 1.0, rng, 1).shape == (1,)
        assert sample_positive_stable(0.3, 2.0, rng, (4, 5)).shape == (4, 5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.3, -0.1])
    def test_alpha_validation(self, rng, alpha):
        with pytest.raises(ValueError):
            sample_positive_stable(alpha, 1.0, rng, 1)

    def test_time_scale_validation(self, rng):
        with pytest.raises(ValueError):
            sample_positive_stable(0.5, 0.0, rng, 1)


class TestSampleXi:
    @pytest.mark.parametrize("params", [
        ModelParams(),
        ModelParams(law=WLaw.GAMMA_MIXTURE, kappa=2.0),
        ModelParams(law=WLaw.PARETO),
    ], ids=["a", "b", "pareto"])
    def test_laplace_match(self, rng, params):
        xi = sample_xi(params, rng, 10 ** 6)
        assert np.all(xi > 0)
        for s in (0.25, 1.0, 4.0):
            vals = np.exp(-s * xi)
            target = laplace_xi(params, s)
            assert abs(vals.mean() - target) <= 4 * mc_se(vals), f"s={s}"

    def test_case_b_laplace_value(self):
        # (1 + (c/kappa) Gamma(1-alpha) s^alpha)^-kappa at s=1, kappa=2
        params = ModelParams(law=WLaw.GAMMA_MIXTURE, kappa=2.0)
        oracle = (1.0 + 0.5 * gamma_fn(0.5)) ** -2
        assert laplace_xi(params, 1.0) == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(0.28107, abs=5e-6)

    def test_case_b_kappa1_laplace_value(self):
        params = ModelParams(law=WLaw.GAMMA_MIXTURE, kappa=1.0)
        oracle = 1.0 / (1.0 + gamma_fn(0.5) * 2.0)
        assert laplace_xi(params, 4.0) == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(0.22003, abs=5e-6)

    def test_laplace_at_zero_and_monotone(self):
        for params in (ModelParams(), ModelParams(law=WLaw.GAMMA_MIXTURE, kappa=0.7),
                       ModelParams(law=WLaw.PARETO)):
            s = np.array([0.0, 0.1, 0.5, 1.0, 3.0, 10.0])
            vals = laplace_xi(params, s)
            assert vals[0] == pytest.approx(1.0, abs=1e-9)
            assert np.all(np.diff(vals) < 0)
            assert np.all((vals > 0) & (vals <= 1))

    def test_pareto_laplace_closed_form(self):
        # alpha = 1/2, c = 1: E e^(-s xi) = e^-s - sqrt(pi s) erfc(sqrt s)
        s = np.array([0.0, 1e-6, 0.01, 0.5, 2.0, 50.0])
        vals = laplace_xi(ModelParams(law=WLaw.PARETO, alpha=0.5, c=1.0), s)
        oracle = np.exp(-s) - np.sqrt(np.pi * s) * erfc(np.sqrt(s))
        assert np.all(vals <= 1.0)
        assert np.all(np.abs(vals / oracle - 1.0) <= 1e-11)
        for alpha, c in ((0.8, 0.5), (0.3, 2.0)):
            assert np.all(laplace_xi(ModelParams(law=WLaw.PARETO, alpha=alpha, c=c), s) <= 1.0)

    def test_pareto_exact_tail(self, rng):
        params = ModelParams(law=WLaw.PARETO, alpha=0.5, c=1.0)
        xi = sample_xi(params, rng, 10 ** 6)
        t0 = params.c ** (1 / params.alpha)
        assert xi.min() >= t0
        for t in (1.5 * t0, 4.0 * t0, 20.0 * t0):
            target = min(1.0, params.c * t ** -params.alpha)
            hat = np.mean(xi > t)
            se = math.sqrt(target * (1 - target) / xi.size)
            assert abs(hat - target) <= 4 * se

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ModelParams(alpha=1.2)
        with pytest.raises(ValueError):
            ModelParams(c=-1.0)
        with pytest.raises(ValueError):
            ModelParams(law=WLaw.GAMMA_MIXTURE)  # kappa missing
        with pytest.raises(ValueError):
            ModelParams(kappa=2.0)  # kappa without the mixture law


class TestWPair:
    def test_symmetry_point(self):
        eta, _ = w_pair_from_xi(np.array([math.log(2.0)]))
        assert eta[0] == pytest.approx(math.log(2.0), rel=1e-14)

    def test_identities_12_digits(self):
        # the stored eta must satisfy eta = -log(1-w), w = e^-xi, to 12
        # significant digits; mpmath provides the reference values
        import mpmath

        mpmath.mp.dps = 40
        xis = np.logspace(-8, math.log10(50.0), 60)
        etas, _ = w_pair_from_xi(xis)
        for xi, w, eta in zip(xis, np.exp(-xis), etas):
            identity = float(-mpmath.log(1 - mpmath.mpf(float(w))))
            assert eta == pytest.approx(identity, rel=1e-12)
            # accuracy against the exact eta(xi) is limited by the ulp of w
            # near 1: |d eta| ~ eps / ((1-w) |log(1-w)|) relative
            exact = float(-mpmath.log(1 - mpmath.e ** (-mpmath.mpf(float(xi)))))
            float_limit = 4 * 2.3e-16 / ((1 - w) * abs(math.log1p(-w)))
            assert eta == pytest.approx(exact, rel=max(1e-12, float_limit))

    def test_monotone_and_never_zero(self):
        xi = np.logspace(-18, math.log10(800.0), 400)
        eta, _ = w_pair_from_xi(xi)
        assert np.all(eta > 0)
        assert np.all(np.diff(eta) <= 0)  # eta decreasing in xi

    def test_mixed_array_matches_scalar_path(self):
        # w rounds to 1 at 1e-20 and 1e-17, so eta comes from -log(xi) there;
        # w underflows to 0 at 800, so eta is floored at the smallest double
        xi = np.array([1e-20, 0.3, 1e-17, 2.0, 800.0, 1e-8, 40.0])
        eta, xi_out = w_pair_from_xi(xi)
        for k, x in enumerate(xi):
            one_eta, one_xi = w_pair_from_xi(np.array([x]))
            assert (xi_out[k], eta[k]) == (one_xi[0], one_eta[0]), f"xi={x}"
        assert np.exp(-xi[2]) == 1.0
        assert eta[2] == -math.log(1e-17)
        assert eta[4] == 5e-324

    def test_extreme_underflow(self):
        xi = np.array([800.0])
        eta, _ = w_pair_from_xi(xi)
        assert np.exp(-xi)[0] == 0.0
        assert eta[0] > 0

    def test_case_b_eta_tail(self, rng):
        # tail of |log(1-W)| at x=5 for the kappa=1 mixture:
        # quadrature oracle plus the exponential-tail constant
        params = ModelParams(law=WLaw.GAMMA_MIXTURE, kappa=1.0)
        x = 5.0
        eps = -math.log1p(-math.exp(-x))  # P{eta > x} = P{xi < eps}
        # xi =d Z(1) X^2 with X ~ Exp(1); P{Z <= z} = erfc(sqrt(pi/(4 z)))
        oracle = quad(lambda v: math.exp(-v) * erfc(v * math.sqrt(math.pi / (4 * eps))),
                      0.0, 50.0, limit=200)[0]
        asym = (1.0 / (gamma_fn(0.5) * gamma_fn(1.5))) * math.exp(-0.5 * x)
        # the exponential asymptote has a next-order relative correction of
        # about sqrt(pi)/(4k) with k = sqrt(pi/(4 eps)), ~4% at x=5
        correction = math.sqrt(math.pi) / (4 * math.sqrt(math.pi / (4 * eps)))
        assert oracle == pytest.approx(asym, rel=1.5 * correction)
        eta, _ = sample_w_pair(params, rng, 10 ** 6)
        hat = np.mean(eta > x)
        se = math.sqrt(oracle * (1 - oracle) / 10 ** 6)
        assert abs(hat - oracle) <= 4 * se


class TestConstants:
    def test_closed_forms_alpha_half(self, consts_a):
        assert consts_a.renewal_coef == pytest.approx(2 / math.pi, rel=1e-12)
        rho = np.exp(consts_a.log_power_coefs)
        assert rho[0] == 1.0
        assert rho[1] == pytest.approx(consts_a.renewal_coef, rel=1e-12)
        assert rho[2] == pytest.approx(1 / math.pi, rel=1e-12)
        assert rho[3] == pytest.approx(4 / (3 * math.pi ** 2), rel=1e-12)
        assert rho[3] == pytest.approx(0.135095, abs=5e-7)

    def test_recursion_in_log_space(self):
        for alpha, c in ((0.5, 1.0), (0.3, 2.0), (0.8, 0.4)):
            law = ModelParams(alpha=alpha, c=c)
            cs = constants(law)
            lp = cs.log_power_coefs
            i = np.arange(256)
            lhs = lp[1:] + gammaln(alpha * (i + 1) + 1)
            rhs = (lp[:-1] + math.log(cs.renewal_coef) + gammaln(alpha + 1)
                   + gammaln(alpha * i + 1))
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_mc_negative_moment_equals_renewal_coef(self, rng, consts_a):
        z = sample_positive_stable(0.5, 1.0, rng, 10 ** 6)
        draws = z ** -0.5
        assert abs(draws.mean() - consts_a.renewal_coef) <= 4 * mc_se(draws)


class TestNegMoment:
    def test_exponential_eta(self):
        est = neg_moment_via_laplace(lambda s: 1.0 / (1.0 + s), 0.5)
        assert est == pytest.approx(math.sqrt(math.pi), rel=1e-6)

    def test_deterministic_eta(self):
        assert neg_moment_via_laplace(lambda s: math.exp(-s), 1.0) == pytest.approx(1.0, rel=1e-9)

    def test_stable_gives_renewal_coef(self, consts_a):
        lap = lambda s: math.exp(-gamma_fn(0.5) * math.sqrt(s))
        est = neg_moment_via_laplace(lap, 0.5)
        assert est == pytest.approx(consts_a.renewal_coef, rel=1e-9)

    def test_divergence_detected(self):
        assert neg_moment_via_laplace(lambda s: 1.0, 0.5) == math.inf
        assert neg_moment_via_laplace(lambda s: 1.0 / (1.0 + s), 1.5) == math.inf

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            neg_moment_via_laplace(lambda s: 1.0, 0.0)


class TestGammaRatioBound:
    def test_trivial_origin(self):
        # Gamma(1)/Gamma(1) = 1 <= 1.1
        assert gamma_ratio_bound_holds(np.array([0.0]), np.array([0.0]))[0]

    def test_integer_point(self):
        # Gamma(6)/Gamma(4) = 20 <= 1.1 * 6^2
        assert gamma_ratio_bound_holds(np.array([3.0]), np.array([2.0]))[0]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gamma_ratio_bound_holds(np.array([-1.0]), np.array([0.0]))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(0.0, 80.0), st.floats(0.0, 80.0))
    def test_holds_everywhere(self, x, y):
        assert gamma_ratio_bound_holds(np.array([x]), np.array([y]))[0]
