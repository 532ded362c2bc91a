# hardyheat before numpy: importing it pins BLAS to one thread, which numpy
# reads once, when it loads; loaded first, numpy would start the machine's
# default thread count, and in-process CLI runs would round as no console
# run does
from hardyheat import kernel, solver

import numpy as np
import pytest
from hardyheat.kernel import build_profile


@pytest.fixture(scope="session")
def prof_1_05():
    return build_profile(1, 0.5, 50.0, 321)


@pytest.fixture(scope="session")
def prof_3_05():
    return build_profile(3, 0.5, 50.0, 321)


@pytest.fixture(scope="session")
def prof_2_05():
    return build_profile(2, 0.5, 50.0, 321)


@pytest.fixture(scope="session")
def prof_2_025():
    return build_profile(2, 0.25, 50.0, 161)


@pytest.fixture(scope="session")
def prof_2_075():
    return build_profile(2, 0.75, 50.0, 161)


@pytest.fixture(scope="session")
def prof_3_025():
    return build_profile(3, 0.25, 50.0, 321)


@pytest.fixture(scope="session")
def prof_1_025():
    return build_profile(1, 0.25, 60.0, 321)


@pytest.fixture
def matrix_builds(monkeypatch):
    """Empty the ground-state operator cache and record the arguments of
    every collocation-matrix build the solver makes."""
    calls = []
    build = solver.build_ground_state_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    solver.ground_state_operator.cache_clear()
    monkeypatch.setattr(solver, "build_ground_state_matrix", counted)
    yield calls
    solver.ground_state_operator.cache_clear()


@pytest.fixture
def perturbed_series(monkeypatch):
    """The far-field series with its leading coefficient 1e-6 (relative)
    off, for every kernel table built in the test."""
    exact = kernel.tail_series_coefficients

    def perturbed(*args):
        c = exact(*args)
        c[0] *= 1.0 + 1e-6
        return c

    monkeypatch.setattr(kernel, "tail_series_coefficients", perturbed)


def poisson_profile(N, sigma):
    """Closed-form s=1/2 kernel profile (the Poisson kernel)."""
    import math
    c = math.gamma((N + 1) / 2.0) / math.pi ** ((N + 1) / 2.0)
    sigma = np.asarray(sigma, dtype=float)
    return c * (1.0 + sigma ** 2) ** (-(N + 1) / 2.0)


def poisson_profile_derivative(N, sigma):
    import math
    c = math.gamma((N + 1) / 2.0) / math.pi ** ((N + 1) / 2.0)
    sigma = np.asarray(sigma, dtype=float)
    return -c * (N + 1) * sigma * (1.0 + sigma ** 2) ** (-(N + 3) / 2.0)
