"""Laws of the stick-breaking factor W and derived quantities.

The model is driven by a random W in (0,1) whose negative log has a heavy
(regularly varying, index alpha in (0,1)) tail.  This module houses the
exact samplers for W and its two negative logs, the Laplace transforms,
the constants that normalize box counts at growing depth, and two
special-function checks (a negative-moment quadrature formula and a
gamma-ratio inequality) used by the verification harness.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn
from scipy.special import gammaln

__all__ = [
    "WLaw",
    "ModelParams",
    "DerivedConstants",
    "WPair",
    "sample_positive_stable",
    "sample_xi",
    "sample_w_pair",
    "w_pair_from_xi",
    "laplace_xi",
    "constants",
    "neg_moment_via_laplace",
    "gamma_ratio_bound_holds",
]

# Smallest positive double; used so |log(1-W)| is never reported as exactly 0.
_TINY = 5e-324


class WLaw(enum.Enum):
    """Supported laws of W, identified by the distribution of |log W|."""

    STABLE = "a"            # |log W| one-sided alpha-stable
    GAMMA_MIXTURE = "b"     # |log W| a gamma scale mixture of stables
    PARETO = "pareto"       # exact Pareto tail, stress case only


@dataclass(frozen=True)
class ModelParams:
    """Law of W: the case, the tail index alpha, the tail constant c.

    P{|log W| > t} ~ c * t^-alpha as t -> infinity in every case; kappa is
    the gamma-mixture shape and is required exactly in the mixture case.
    """

    law: WLaw = WLaw.STABLE
    alpha: float = 0.5
    c: float = 1.0
    kappa: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if not self.c > 0.0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.law is WLaw.GAMMA_MIXTURE:
            if self.kappa is None or not self.kappa > 0.0:
                raise ValueError("gamma-mixture law requires kappa > 0")
        elif self.kappa is not None:
            raise ValueError(f"kappa is only meaningful for the gamma-mixture law, got {self.kappa}")


@dataclass
class DerivedConstants:
    """Constants controlling the growth of mean counts at depth.

    renewal_coef is the coefficient of t^alpha in the renewal function;
    exp(log_power_coefs[j]) is the coefficient of t^(alpha*j) in the j-fold
    convolution power of the intensity function (log_power_coefs[0] = 0).
    residual_exp is the exponent of the two-term remainder bound
    |V(t) - renewal_coef * t^alpha| <= residual_coef * t^residual_exp;
    residual_coef is measured from a grid estimate, not derived.
    """

    alpha: float
    c: float
    renewal_coef: float
    log_power_coefs: np.ndarray
    residual_exp: float
    residual_exp_verified: bool
    residual_coef: float | None = None


@dataclass
class WPair:
    """Draws of W with both negative logs, as equal-shape arrays."""

    w: np.ndarray
    neglog_w: np.ndarray      # |log W|, strictly positive
    neglog_1mw: np.ndarray    # |log(1-W)|, strictly positive


def _validate_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")


def sample_positive_stable(alpha: float, time_scale: float, rng: np.random.Generator,
                           size) -> np.ndarray:
    """Draw from the one-sided stable law with log-Laplace transform
    -time_scale * Gamma(1-alpha) * s^alpha.

    Exact Kanter construction from one uniform and one exponential draw;
    no series truncation.  At alpha = 1/2 it collapses exactly to
    pi time_scale^2 / (4 E cos^2(pi U / 2)), the Levy law
    pi time_scale^2 / (2 N^2) with N = sqrt(2E) cos(pi U / 2) built by
    Box-Muller from the same two draws; that closed form is evaluated
    there.  size is an int or a shape tuple.
    """
    _validate_alpha(alpha)
    if not time_scale > 0.0:
        raise ValueError(f"time_scale must be positive, got {time_scale}")
    if alpha != 0.5:
        return _kanter(alpha, time_scale, rng, size)
    out = rng.random(size)
    e = np.maximum(rng.standard_exponential(size), _TINY)
    out *= np.pi / 2
    np.cos(out, out=out)
    np.square(out, out=out)
    out *= e
    np.divide(np.pi / 4 * time_scale ** 2, out, out=out)
    return out


def _kanter(alpha: float, time_scale: float, rng: np.random.Generator, n):
    """Kanter's representation for any alpha in (0,1), on n draws each of a
    uniform and then an exponential."""
    u = np.pi * rng.random(n)
    u = np.maximum(u, 1e-100)  # sin terms vanish at 0; the event has probability 0
    e = np.maximum(rng.standard_exponential(n), _TINY)
    log_a = (alpha * np.log(np.sin(alpha * u))
             + (1.0 - alpha) * np.log(np.sin((1.0 - alpha) * u))
             - np.log(np.sin(u))) / (1.0 - alpha)
    log_std = (1.0 - alpha) / alpha * (log_a - np.log(e))
    log_scale = (math.log(time_scale) + math.log(gamma_fn(1.0 - alpha))) / alpha
    return np.exp(log_scale + log_std)


def sample_xi(params: ModelParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw |log W| under the given law."""
    if params.law is WLaw.STABLE:
        return sample_positive_stable(params.alpha, params.c, rng, size)
    if params.law is WLaw.GAMMA_MIXTURE:
        z = sample_positive_stable(params.alpha, params.c, rng, size)
        x = rng.gamma(shape=params.kappa, scale=1.0 / params.kappa, size=size)
        return z * x ** (1.0 / params.alpha)
    # exact tail P{xi > t} = min(1, c t^-alpha), support [c^(1/alpha), inf)
    u = 1.0 - rng.random(size)
    return (params.c / u) ** (1.0 / params.alpha)


def w_pair_from_xi(xi) -> WPair:
    """Map |log W| draws to a WPair, stable against under/overflow.

    For w so close to 1 that 1-w rounds to 0 the complementary log is taken
    as -log(xi), and for w underflowing to 0 it is floored at the smallest
    positive double so it is never exactly 0.
    """
    xi_arr = np.asarray(xi, dtype=float)
    w = np.exp(-xi_arr)
    eta = np.negative(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log1p(eta, out=eta)
    np.negative(eta, out=eta)
    near_one = w >= 1.0
    if near_one.any():
        eta[near_one] = -np.log(np.maximum(xi_arr[near_one], _TINY))
    np.maximum(eta, _TINY, out=eta)
    return WPair(w=w, neglog_w=xi_arr, neglog_1mw=eta)


def sample_w_pair(params: ModelParams, rng: np.random.Generator, size: int) -> WPair:
    """Draw W together with both negative logs."""
    return w_pair_from_xi(sample_xi(params, rng, size))


def laplace_xi(params: ModelParams, s):
    """E exp(-s |log W|) for s >= 0 (vectorized in s)."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0.0):
        raise ValueError("s must be nonnegative")
    a, c = params.alpha, params.c
    if params.law is WLaw.STABLE:
        out = np.exp(-c * gamma_fn(1.0 - a) * s_arr ** a)
    elif params.law is WLaw.GAMMA_MIXTURE:
        k = params.kappa
        out = (1.0 + (c / k) * gamma_fn(1.0 - a) * s_arr ** a) ** (-k)
    else:
        t0 = c ** (1.0 / a)
        def one(sv):
            if sv == 0.0:
                return 1.0
            # tail density a*c*t^(-a-1) on [t0, inf)
            val, _ = quad(lambda t: math.exp(-sv * t) * a * c * t ** (-a - 1.0),
                          t0, np.inf, limit=200)
            return val
        out = np.vectorize(one)(s_arr)
    return float(out) if np.isscalar(s) else out


def constants(params: ModelParams, i_max: int = 256) -> DerivedConstants:
    """Derived constants for the given law, computed in log space.

    renewal_coef = 1 / (c * Gamma(1+alpha) * Gamma(1-alpha)); the depth
    coefficients rho_i = exp(log_power_coefs[i]) satisfy rho_0 = 1 and
    rho_i = (renewal_coef * Gamma(alpha+1))^i / Gamma(alpha*i + 1).
    The residual exponent is 0 for the stable and gamma-mixture laws; for
    the Pareto stress case it is not derivable and is flagged unverified.
    """
    a, c = params.alpha, params.c
    log_coef = -(math.log(c) + gammaln(1.0 + a) + gammaln(1.0 - a))
    i = np.arange(i_max + 1)
    log_power = i * (log_coef + gammaln(1.0 + a)) - gammaln(a * i + 1.0)
    verified = params.law in (WLaw.STABLE, WLaw.GAMMA_MIXTURE)
    return DerivedConstants(
        alpha=a,
        c=c,
        renewal_coef=math.exp(log_coef),
        log_power_coefs=log_power,
        residual_exp=0.0,
        residual_exp_verified=verified,
    )


def neg_moment_via_laplace(laplace, gamma_exp: float, rel_tol: float = 1e-10,
                           max_decades: int = 30) -> float:
    """E eta^-gamma from the Laplace transform of eta by adaptive quadrature.

    Evaluates gamma/Gamma(1+gamma) * int_0^inf s^(gamma-1) laplace(s) ds.
    The integrable endpoint singularity is removed by substitution on [0,1];
    the tail is accumulated decade by decade with a growth test on the
    partial integrals: non-shrinking blocks mean divergence (returns inf).
    Shrinking blocks that have not converged by the cap decay like a power,
    so the remaining tail is summed by geometric extrapolation (exact for a
    pure power).
    """
    if not gamma_exp > 0.0:
        raise ValueError("gamma_exp must be positive")
    g = gamma_exp
    # int_0^1 s^(g-1) l(s) ds = (1/g) int_0^1 l(x^(1/g)) dx
    head, _ = quad(lambda x: laplace(x ** (1.0 / g)), 0.0, 1.0, limit=200)
    head /= g
    total = head
    prev_block = math.inf
    lo = 1.0
    block = 0.0
    stalls = 0  # consecutive decades without real decay
    for _ in range(max_decades):
        hi = lo * 10.0
        block, _ = quad(lambda s: s ** (g - 1.0) * laplace(s), lo, hi, limit=200)
        total += block
        if block <= rel_tol * max(total, 1e-300):
            return g / gamma_fn(1.0 + g) * total
        stalls = stalls + 1 if block >= prev_block * (1.0 - 1e-6) else 0
        if stalls >= 3:
            return math.inf
        prev_block, prev_prev = block, prev_block
        lo = hi
    ratio = block / prev_prev
    if not 0.0 < ratio < 1.0:
        return math.inf
    total += block * ratio / (1.0 - ratio)
    return g / gamma_fn(1.0 + g) * total


def gamma_ratio_bound_holds(x, y):
    """Check Gamma(x+1+y)/Gamma(x+1) <= 1.1*(x+1+y)^y for x,y >= 0.

    Evaluated through log-gamma so large arguments cannot overflow.
    Returns (holds, lhs, rhs); all three vectorize over array input.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if np.any(x_arr < 0.0) or np.any(y_arr < 0.0):
        raise ValueError("x and y must be nonnegative")
    log_lhs = gammaln(x_arr + 1.0 + y_arr) - gammaln(x_arr + 1.0)
    log_rhs = math.log(1.1) + y_arr * np.log(x_arr + 1.0 + y_arr)
    holds = log_lhs <= log_rhs + 1e-12
    lhs, rhs = np.exp(log_lhs), np.exp(log_rhs)
    if np.isscalar(x) and np.isscalar(y):
        return bool(holds), float(lhs), float(rhs)
    return holds, lhs, rhs
