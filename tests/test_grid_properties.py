"""Property tests: every law evaluated on a time grid equals its per-time result.

The formula functions broadcast over the leading time axis of grid-shaped
``PropagatorCoefficients``; row i of a grid result must match the same
function applied to the coefficients at time i alone, to 1e-13. The closed
forms of the time alone must match their per-time results bit for bit, and the
number-basis laws their per-n results too. The dense Fock-space oracle
evaluated on a grid must match a per-time reference built from the explicit
sector unitaries, to 1e-12.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boson_decay import (
    CoherentState,
    EffectiveHamiltonian,
    CoherentSuperposition,
    DensityMatrixFock,
    ExactPropagator,
    FockSpaceOracle,
    FockState,
    SpectralDensitySpec,
    SystemMode,
    ThermalSpec,
    analytic_propagator,
    analytic_survival,
    coherent_decay,
    conditional_mean_number,
    conditional_wavefunction,
    discretize_bath,
    dissipation_sum,
    exact_thermal_moments,
    excited_bath_evolution,
    fock_populations,
    fock_survival,
    monte_carlo_moments,
    sample_thermal_bath,
    thermal_factor_closed,
    thermal_factor_discrete,
    thermal_mean_number,
    unitarity_defect,
)
from boson_decay import thermal as thermal_module

TOL = 1e-13
MC_SAMPLES = 1 << 15
MC_TEST_BLOCK_BYTES = 1 << 16  # at most 4096 samples per block: every estimate spans 8+ blocks

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def small_runs(draw, min_times=1):
    """A random small bath with its propagator, a thermal spec and a time grid."""
    omega_b = draw(st.floats(5.0, 20.0, **finite))
    spec = SpectralDensitySpec(
        gamma=draw(st.floats(0.2, 2.0, **finite)),
        band_center=omega_b + draw(st.floats(-0.5, 0.5, **finite)),
        half_bandwidth=draw(st.floats(0.5, 4.0, **finite)),
    )
    system = SystemMode(omega_b)
    bath = discretize_bath(spec, draw(st.integers(1, 6)))
    thermal = ThermalSpec.for_system(draw(st.floats(0.05, 3.0, **finite)) / omega_b, omega_b)
    times = np.array(draw(st.lists(st.floats(0.0, 5.0, **finite), min_size=min_times, max_size=8)))
    alpha = complex(draw(st.floats(-2.0, 2.0, **finite)), draw(st.floats(-2.0, 2.0, **finite)))
    return system, bath, ExactPropagator(system, bath), thermal, times, alpha


def _rows_match(grid_values, per_time_values):
    np.testing.assert_allclose(grid_values, np.array(per_time_values), rtol=TOL, atol=TOL)


@settings(max_examples=40, deadline=None)
@given(small_runs())
def test_propagator_laws_match_per_time(run):
    system, bath, propagator, thermal, times, alpha = run
    grid = propagator.evaluate(times)
    single = [propagator.evaluate(t) for t in times]
    assert grid.survival.shape == times.shape
    assert grid.absorption.shape == times.shape + (bath.n_modes,)
    _rows_match(grid.survival, [c.survival for c in single])
    _rows_match(grid.absorption, [c.absorption for c in single])
    _rows_match(dissipation_sum(grid), [dissipation_sum(c) for c in single])
    _rows_match(unitarity_defect(grid), [unitarity_defect(c) for c in single])
    gamma = bath.spec.gamma
    _rows_match(
        analytic_survival(system, gamma, times),
        [analytic_survival(system, gamma, t) for t in times],
    )
    label, mean = coherent_decay(alpha, grid.survival)
    per_time = [coherent_decay(alpha, c.survival) for c in single]
    _rows_match(label, [x[0] for x in per_time])
    _rows_match(mean, [x[1] for x in per_time])
    lambdas = np.zeros(bath.n_modes, dtype=complex)
    lambdas[-1] = 0.5 - 0.25j
    labels = excited_bath_evolution(alpha, lambdas, propagator, times)
    per_time = [excited_bath_evolution(alpha, lambdas, propagator, t) for t in times]
    _rows_match(labels.system_label, [x.system_label for x in per_time])
    _rows_match(labels.bath_labels, [x.bath_labels for x in per_time])


@settings(max_examples=40, deadline=None)
@given(small_runs())
def test_thermal_laws_match_per_time(run):
    system, bath, propagator, thermal, times, alpha = run
    grid = propagator.evaluate(times)
    single = [propagator.evaluate(t) for t in times]
    gamma = bath.spec.gamma
    _rows_match(
        thermal_factor_discrete(bath, thermal, grid).value,
        [thermal_factor_discrete(bath, thermal, c).value for c in single],
    )
    phi = thermal_factor_closed(thermal.n_th, gamma, times)
    phis = [thermal_factor_closed(thermal.n_th, gamma, t) for t in times]
    _rows_match(phi.value, [p.value for p in phis])
    survival = analytic_survival(system, gamma, times)
    _rows_match(
        conditional_mean_number(alpha, survival, phi),
        [conditional_mean_number(alpha, u, p) for u, p in zip(survival, phis)],
    )
    exact = exact_thermal_moments(alpha, bath, thermal, grid)
    per_time = [exact_thermal_moments(alpha, bath, thermal, c) for c in single]
    _rows_match(exact.mean_amplitude, [m.mean_amplitude for m in per_time])
    _rows_match(exact.occupation, [m.occupation for m in per_time])


def _rows_equal(grid_values, per_time_values):
    assert np.array_equal(grid_values, np.array(per_time_values))


@settings(max_examples=40, deadline=None)
@given(small_runs(), st.integers(0, 40))
def test_closed_forms_match_per_time_bitwise(run, n):
    """The laws of time alone give, at each time of a grid, the bits of that time alone."""
    system, bath, _, thermal, times, alpha = run
    gamma, n_th = bath.spec.gamma, thermal.n_th
    _rows_equal(fock_survival(n, gamma, times), [fock_survival(n, gamma, t) for t in times])
    _rows_equal(
        thermal_mean_number(n, n_th, gamma, times),
        [thermal_mean_number(n, n_th, gamma, t) for t in times],
    )
    heff = EffectiveHamiltonian(system.omega_b, gamma, n_th)
    for law, state in ((heff.evolve_fock, n), (heff.evolve_coherent, alpha)):
        grid, per_time = law(state, times), [law(state, t) for t in times]
        for index in range(len(grid) - 1):  # every field but the time-independent decay_time
            _rows_equal(grid[index], [x[index] for x in per_time])
        assert grid.decay_time == per_time[0].decay_time
    phi = thermal_factor_closed(n_th, gamma, times)
    survival = analytic_survival(system, gamma, times)
    weight, label = conditional_wavefunction(alpha, survival, phi)
    per_time = [
        conditional_wavefunction(alpha, u, thermal_factor_closed(n_th, gamma, t))
        for u, t in zip(survival, times)
    ]
    _rows_equal(weight, [x[0] for x in per_time])
    _rows_equal(label, [x[1] for x in per_time])
    closed = analytic_propagator(system, gamma, bath, times)
    per_time = [analytic_propagator(system, gamma, bath, t) for t in times]
    assert closed.absorption.shape == times.shape + (bath.n_modes,)
    _rows_equal(closed.survival, [c.survival for c in per_time])
    _rows_equal(closed.absorption, [c.absorption for c in per_time])


@pytest.mark.filterwarnings("ignore:effective-Hamiltonian evolution requested beyond")
@settings(max_examples=40, deadline=None)
@given(small_runs(), st.integers(0, 12))
def test_number_basis_laws_match_per_time_and_per_n_bitwise(run, n_max):
    """evolve_fock over an array of n gives the bits of each n alone, and
    evolve_superposition over a grid gives the bits of each time alone."""
    system, bath, _, thermal, times, alpha = run
    heff = EffectiveHamiltonian(system.omega_b, bath.spec.gamma, thermal.n_th)
    ns = np.arange(n_max + 1)
    fock = heff.evolve_fock(ns, times[:, None])
    per_n = [heff.evolve_fock(n, times) for n in ns]
    assert fock.amplitude.shape == times.shape + ns.shape
    for index in range(len(fock) - 1):  # amplitude and mean number: (T, n) against (n, T)
        _rows_equal(fock[index].T, [x[index] for x in per_n])
    _rows_equal(fock.decay_time, [x.decay_time for x in per_n])
    state = CoherentSuperposition(((1.0, alpha), (0.5j, -alpha)))
    rho, pre_trace = heff.evolve_superposition(state, times)
    per_time = [heff.evolve_superposition(state, t) for t in times]
    assert rho.entries.shape == times.shape + (rho.dim, rho.dim)
    _rows_equal(rho.entries, [r.entries for r, _ in per_time])
    _rows_equal(pre_trace, [p for _, p in per_time])


@settings(max_examples=15, deadline=None)
@given(small_runs(min_times=3), st.integers(0, 2**32 - 1))
def test_monte_carlo_matches_per_time_across_blocks(run, seed):
    system, bath, propagator, thermal, times, alpha = run
    samples = sample_thermal_bath(bath, thermal, MC_SAMPLES, seed)
    grid = propagator.evaluate(times)
    with mock.patch.object(thermal_module, "MC_BLOCK_BYTES", MC_TEST_BLOCK_BYTES):
        assert thermal_module._block_rows(bath.n_modes, times.size) < MC_SAMPLES
        moments, errors = monte_carlo_moments(alpha, thermal, grid, samples)
        per_time = [
            monte_carlo_moments(alpha, thermal, propagator.evaluate(t), samples) for t in times
        ]
    _rows_match(moments.mean_amplitude, [m.mean_amplitude for m, _ in per_time])
    _rows_match(moments.occupation, [m.occupation for m, _ in per_time])
    _rows_match(errors.mean_amplitude, [e.mean_amplitude for _, e in per_time])
    _rows_match(errors.occupation, [e.occupation for _, e in per_time])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 500),
    st.lists(st.floats(0.0, 1.0, **finite), min_size=1, max_size=6),
)
def test_binomial_rows_match_per_time_and_sum_to_one(n, probabilities):
    p = np.array(probabilities)
    grid = fock_populations(n, p)
    assert grid.probs.shape == (p.size, n + 1)
    _rows_match(grid.probs, [fock_populations(n, x).probs for x in p])
    assert np.all(np.isfinite(grid.probs)) and np.all(grid.probs >= 0.0)
    assert np.max(np.abs(grid.probs.sum(axis=1) - 1.0)) <= 1e-12
    np.testing.assert_allclose(grid.mean, n * p, rtol=1e-10, atol=1e-10 * max(n, 1))
    assert np.all(grid.probs[p == 1.0, -1] == 1.0) and np.all(grid.probs[p == 0.0, 0] == 1.0)


@st.composite
def oracle_runs(draw):
    """A random bath of at most three modes, an initial state, the oracle and a time grid."""
    omega_b = draw(st.floats(5.0, 20.0, **finite))
    spec = SpectralDensitySpec(
        gamma=draw(st.floats(0.2, 2.0, **finite)),
        band_center=omega_b + draw(st.floats(-0.5, 0.5, **finite)),
        half_bandwidth=draw(st.floats(0.5, 4.0, **finite)),
    )
    bath = discretize_bath(spec, draw(st.integers(1, 3)))
    small = st.floats(-0.2, 0.2, **finite)
    labels = st.builds(complex, small, small)
    kind = draw(st.sampled_from(["fock", "coherent", "superposition"]))
    if kind == "fock":
        n = draw(st.integers(0, 4))
        initial, n_max = FockState(n), n + draw(st.integers(0, 2))
    elif kind == "coherent":
        initial, n_max = CoherentState(draw(labels)), 6
    else:
        terms = ((1.0, draw(labels)), (draw(labels), draw(labels)))
        initial, n_max = CoherentSuperposition(terms), 6
    times = np.array(draw(st.lists(st.floats(0.0, 5.0, **finite), min_size=1, max_size=6)))
    return FockSpaceOracle(SystemMode(omega_b), bath, n_max), initial, times


def _reference_density(oracle, initial, t):
    """Reduced state at one time from the explicit sector unitaries (v e^{-i lambda t}) v^T."""
    vacuum = (0,) * oracle.bath.n_modes
    table = np.zeros((oracle.n_max + 1, len(oracle._bath_strings)), dtype=complex)
    for m, amp in oracle._initial_amplitudes(initial).items():
        sector = oracle._sectors[m]
        v = sector["eigenvectors"]
        vec = np.zeros(len(v), dtype=complex)
        vec[sector["index"][(m,) + vacuum]] = amp
        evolved = (v * np.exp(-1j * sector["eigenvalues"] * t)) @ v.T @ vec
        np.add.at(table, (sector["system_occ"], sector["bath_cols"]), evolved)
    return DensityMatrixFock(entries=table @ table.conj().T)


@settings(max_examples=40, deadline=None)
@given(oracle_runs())
def test_oracle_grid_matches_per_time_sector_unitaries(run):
    oracle, initial, times = run
    rho = oracle.reduced_density(initial, times)
    per_time = [_reference_density(oracle, initial, t) for t in times]
    assert rho.entries.shape == times.shape + (oracle.n_max + 1,) * 2
    for name in ("entries", "populations", "trace", "mean_number", "purity"):
        np.testing.assert_allclose(
            getattr(rho, name), [getattr(r, name) for r in per_time], rtol=0.0, atol=1e-12
        )
    np.testing.assert_allclose(
        rho.max_offdiagonal(), [r.max_offdiagonal() for r in per_time], rtol=0.0, atol=1e-12
    )
