import numpy as np
import pytest

from sievesim.distributions import ModelParams, WLaw, constants
from sievesim.renewal_numerics import convolution_powers, estimate_V, fit_two_term
from sievesim.streams import substream

TEST_SEED = 424243


@pytest.fixture
def rng():
    return np.random.default_rng(TEST_SEED)


@pytest.fixture(scope="session")
def case_a():
    return ModelParams()


@pytest.fixture(scope="session")
def case_b2():
    return ModelParams(law=WLaw.GAMMA_MIXTURE, kappa=2.0)


@pytest.fixture(scope="session")
def consts_a(case_a):
    return constants(case_a)


@pytest.fixture(scope="session")
def grids400(case_a, consts_a):
    """Shared intensity grid on [0, 400] with its convolution powers."""
    v = estimate_V(case_a, 400.0, 400.0 / 4096, 30000, substream(TEST_SEED, 100))
    return {"v": v, "powers": convolution_powers(v, 6), "consts": consts_a,
            "residual_coef": fit_two_term(v, consts_a.renewal_coef, consts_a.alpha)}
