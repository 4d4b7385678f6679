"""Shared fixtures: expensive eigendecompositions are built once per session."""

import numpy as np
import pytest

from boson_decay import (
    DiscreteBath,
    ExactPropagator,
    SpectralDensitySpec,
    SystemMode,
    discretize_bath,
)

GAMMA = 1.0


@pytest.fixture(scope="session")
def wwa_system():
    return SystemMode(omega_b=100.0)


@pytest.fixture(scope="session")
def wwa_bath():
    """Broadband regime used by the coefficient acceptance checks."""
    spec = SpectralDensitySpec(gamma=GAMMA, band_center=100.0, half_bandwidth=20.0)
    return discretize_bath(spec, 2000)


@pytest.fixture(scope="session")
def wwa_propagator(wwa_system, wwa_bath):
    return ExactPropagator(wwa_system, wwa_bath)


@pytest.fixture(scope="session")
def wwa_grid():
    return np.linspace(0.0, 5.0, 21)


@pytest.fixture(scope="session")
def wwa_coefficients(wwa_propagator, wwa_grid):
    return wwa_propagator.evaluate(wwa_grid)


@pytest.fixture(scope="session")
def small_system():
    return SystemMode(omega_b=10.0)


@pytest.fixture(scope="session")
def small_bath(small_system):
    """Three-mode bath small enough for the dense Fock-space oracle."""
    spec = SpectralDensitySpec(gamma=GAMMA, band_center=10.0, half_bandwidth=2.0)
    return discretize_bath(spec, 3)


@pytest.fixture(scope="session")
def small_propagator(small_system, small_bath):
    return ExactPropagator(small_system, small_bath)


@pytest.fixture(scope="session")
def thermal_system():
    return SystemMode(omega_b=800.0)


@pytest.fixture(scope="session")
def thermal_bath():
    """Band far above zero frequency, as the slow-varying approximation needs."""
    spec = SpectralDensitySpec(gamma=GAMMA, band_center=800.0, half_bandwidth=80.0)
    return discretize_bath(spec, 800)


@pytest.fixture(scope="session")
def thermal_propagator(thermal_system, thermal_bath):
    return ExactPropagator(thermal_system, thermal_bath)


@pytest.fixture
def rabi_pair():
    """Single resonant mode: survival probability oscillates as cos^2(xi t)."""
    system = SystemMode(omega_b=100.0)
    spec = SpectralDensitySpec(gamma=np.pi, band_center=100.0, half_bandwidth=1.0)
    bath = DiscreteBath(omegas=np.array([100.0]), xis=np.array([np.sqrt(2.0)]), spec=spec)
    return system, bath
