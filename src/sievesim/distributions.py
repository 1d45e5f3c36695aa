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
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc, gammaln

__all__ = [
    "WLaw",
    "ModelParams",
    "DerivedConstants",
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
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if self.law is WLaw.GAMMA_MIXTURE:
            if self.kappa is None or not 0.0 < self.kappa < math.inf:
                raise ValueError(f"gamma-mixture law requires 0 < kappa < inf, got {self.kappa}")
        elif self.kappa is not None:
            raise ValueError(f"kappa is only meaningful for the gamma-mixture law, got {self.kappa}")


@dataclass
class DerivedConstants:
    """Constants controlling the growth of mean counts at depth.

    renewal_coef is the coefficient of t^alpha in the renewal function;
    exp(log_power_coefs[j]) is the coefficient of t^(alpha*j) in the j-fold
    convolution power of the intensity function (log_power_coefs[0] = 0).
    """

    alpha: float
    renewal_coef: float
    log_power_coefs: np.ndarray


def sample_positive_stable(alpha: float, time_scale: float, rng: np.random.Generator,
                           size) -> np.ndarray:
    """Draw from the one-sided stable law with log-Laplace transform
    -time_scale * Gamma(1-alpha) * s^alpha.

    Exact, with no series truncation.  At alpha = 1/2 this is the Levy law
    pi time_scale^2 / (2 N^2), drawn from one standard normal N per value;
    numpy's normals are generated one value at a time, so a draw split
    into pieces gets the same values as one call.  N = 0 gives +inf.  Every
    other alpha uses Kanter's construction from one uniform and one
    exponential.  size is an int or a shape tuple.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if not time_scale > 0.0:
        raise ValueError(f"time_scale must be positive, got {time_scale}")
    if alpha != 0.5:
        return _kanter(alpha, time_scale, rng, size)
    out = rng.standard_normal(size)
    np.square(out, out=out)
    with np.errstate(divide="ignore"):
        np.divide(np.pi / 2 * time_scale ** 2, out, out=out)
    return out


def _kanter(alpha: float, time_scale: float, rng: np.random.Generator, n):
    """Kanter's representation for any alpha in (0,1), on n draws each of a
    uniform and then an exponential.

    Evaluates exp(log_scale + (1-alpha)/alpha * (log_a - log E)) with
    log_a = (alpha log sin(alpha U) + (1-alpha) log sin((1-alpha) U)
    - log sin U) / (1-alpha), in place on two scratch arrays.
    """
    b = 1.0 - alpha
    u = rng.random(n)
    u *= np.pi
    np.maximum(u, 1e-100, out=u)  # sin terms vanish at 0; the event has probability 0
    e = rng.standard_exponential(n)
    np.maximum(e, _TINY, out=e)
    log_a = np.multiply(alpha, u)
    np.log(np.sin(log_a, out=log_a), out=log_a)
    log_a *= alpha
    tmp = np.multiply(b, u)
    np.log(np.sin(tmp, out=tmp), out=tmp)
    tmp *= b
    log_a += tmp
    log_a -= np.log(np.sin(u, out=u), out=u)
    log_a /= b
    log_a -= np.log(e, out=e)
    log_a *= b / alpha
    log_a += (math.log(time_scale) + math.log(gamma_fn(b))) / alpha
    return np.exp(log_a, out=log_a)


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


def w_pair_from_xi(xi) -> tuple[np.ndarray, np.ndarray]:
    """Map |log W| draws xi to the walk_points increment pair (eta, xi),
    with eta = |log(1-W)| strictly positive and stable against under/overflow.

    For w = e^-xi so close to 1 that 1-w rounds to 0 the complementary log
    is taken as -log(xi), and for w underflowing to 0 it is floored at the
    smallest positive double so it is never exactly 0.
    """
    xi_arr = np.asarray(xi, dtype=float)
    eta = np.negative(xi_arr)
    np.exp(eta, out=eta)  # w
    np.negative(eta, out=eta)
    with np.errstate(divide="ignore"):
        np.log1p(eta, out=eta)
    near_one = eta == -np.inf  # 1 - w rounded to 0
    np.negative(eta, out=eta)
    if near_one.any():
        eta[near_one] = -np.log(np.maximum(xi_arr[near_one], _TINY))
    np.maximum(eta, _TINY, out=eta)
    return eta, xi_arr


def sample_w_pair(params: ModelParams, rng: np.random.Generator,
                  size: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw W as the pair (eta, xi) = (|log(1-W)|, |log W|); see w_pair_from_xi."""
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
        # tail density a*c*t^(-a-1) on [t0, inf); integrating by parts gives
        # e^(-s t0) - c s^a Gamma(1-a, s t0), and the upper incomplete gamma
        # Gamma(1-a, x) is Gamma(1-a) * gammaincc(1-a, x)
        t0 = c ** (1.0 / a)
        out = (np.exp(-s_arr * t0)
               - c * gamma_fn(1.0 - a) * s_arr ** a * gammaincc(1.0 - a, s_arr * t0))
    return out


def constants(params: ModelParams) -> DerivedConstants:
    """Derived constants for the given law, computed in log space.

    renewal_coef = 1 / (c * Gamma(1+alpha) * Gamma(1-alpha)); the depth
    coefficients rho_i = exp(log_power_coefs[i]) satisfy rho_0 = 1 and
    rho_i = (renewal_coef * Gamma(alpha+1))^i / Gamma(alpha*i + 1),
    tabulated for i = 0..256.  For the stable and gamma-mixture laws the
    remainder V(t) - renewal_coef * t^alpha is bounded (it tends to 1/2),
    so the two-term bound has exponent 0; for the Pareto stress case no
    such bound is derived.
    """
    a = params.alpha
    log_coef = -(math.log(params.c) + gammaln(1.0 + a) + gammaln(1.0 - a))
    i = np.arange(257)
    log_power = i * (log_coef + gammaln(1.0 + a)) - gammaln(a * i + 1.0)
    return DerivedConstants(alpha=a, renewal_coef=math.exp(log_coef),
                            log_power_coefs=log_power)


def neg_moment_via_laplace(laplace, gamma_exp: float) -> float:
    """E eta^-gamma from the Laplace transform of eta by adaptive quadrature.

    Evaluates gamma/Gamma(1+gamma) * int_0^inf s^(gamma-1) laplace(s) ds.
    The integrable endpoint singularity is removed by substitution on [0,1];
    the tail [1, inf) goes to quad's infinite-range rule, and an
    IntegrationWarning there means divergence (returns inf).
    """
    from scipy.integrate import IntegrationWarning, quad  # only the appendix integrates

    if not gamma_exp > 0.0:
        raise ValueError("gamma_exp must be positive")
    g = gamma_exp
    # int_0^1 s^(g-1) l(s) ds = (1/g) int_0^1 l(x^(1/g)) dx
    head, _ = quad(lambda x: laplace(x ** (1.0 / g)), 0.0, 1.0, limit=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            tail, _ = quad(lambda s: s ** (g - 1.0) * laplace(s), 1.0, np.inf, limit=200)
        except IntegrationWarning:
            return math.inf
    return g / gamma_fn(1.0 + g) * (head / g + tail)


def gamma_ratio_bound_holds(x, y):
    """Check Gamma(x+1+y)/Gamma(x+1) <= 1.1*(x+1+y)^y for x,y >= 0.

    Evaluated through log-gamma so large arguments cannot overflow.
    Returns the boolean array holds, shaped like the broadcast input.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if np.any(x_arr < 0.0) or np.any(y_arr < 0.0):
        raise ValueError("x and y must be nonnegative")
    log_lhs = gammaln(x_arr + 1.0 + y_arr) - gammaln(x_arr + 1.0)
    log_rhs = math.log(1.1) + y_arr * np.log(x_arr + 1.0 + y_arr)
    return log_lhs <= log_rhs + 1e-12
