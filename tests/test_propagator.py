"""Closed-form coefficients against the exact finite-bath propagator."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boson_decay import (
    DiscreteBath,
    ExactPropagator,
    PropagatorCoefficients,
    SpectralDensitySpec,
    SystemMode,
    analytic_propagator,
    analytic_survival,
    discretize_bath,
    dissipation_sum,
    unitarity_defect,
)

GAMMA = 1.0


def _single_particle_hamiltonian(system, bath):
    """The dense arrowhead matrix: row/column 0 is the system mode, rows 1..N the bath modes.

    The excitation-conserving interaction leaves all bath-bath couplings zero.
    """
    n = bath.n_modes
    h = np.zeros((n + 1, n + 1))
    h[0, 0] = system.omega_b
    idx = np.arange(1, n + 1)
    h[idx, idx] = bath.omegas
    h[0, 1:] = bath.xis
    h[1:, 0] = bath.xis
    return h


class TestAnalyticSurvival:
    def test_identity_at_zero(self):
        assert analytic_survival(SystemMode(3.0), GAMMA, 0.0) == pytest.approx(1.0)

    def test_modulus_halves_at_log4(self):
        t = math.log(4.0)
        system = SystemMode(omega_b=2.0 * math.pi / t)  # full phase turn
        assert analytic_survival(system, GAMMA, t) == pytest.approx(0.5, rel=1e-12)

    def test_half_phase_turn_gives_negative_amplitude(self):
        t = math.log(4.0)
        system = SystemMode(omega_b=math.pi / t)
        assert analytic_survival(system, GAMMA, t) == pytest.approx(-0.5, rel=1e-12)

    def test_modulus_and_phase(self):
        system = SystemMode(omega_b=7.0)
        t = 0.83
        u = analytic_survival(system, 2.5, t)
        assert abs(u) == pytest.approx(math.exp(-0.5 * 2.5 * t), rel=1e-14)
        assert math.remainder(np.angle(u) + system.omega_b * t, 2 * math.pi) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            analytic_survival(SystemMode(1.0), GAMMA, -0.1)


def _one_mode(omega: float, xi: float) -> DiscreteBath:
    """A bath of the single mode (omega, xi)."""
    spec = SpectralDensitySpec(gamma=GAMMA, band_center=omega, half_bandwidth=1.0)
    return DiscreteBath(omegas=np.array([omega]), xis=np.array([xi]), spec=spec)


def _transfer(system: SystemMode, omega: float, xi: float, t: float) -> complex:
    """Closed-form amplitude for one bath excitation (omega, xi) to appear in the system."""
    return analytic_propagator(system, GAMMA, _one_mode(omega, xi), t).absorption[0]


class TestAnalyticTransfer:
    def test_vanishes_at_zero(self):
        assert _transfer(SystemMode(5.0), 4.0, 0.3, 0.0) == 0.0

    def test_resonant_long_time_magnitude(self):
        """On resonance the magnitude saturates at xi / (gamma / 2)."""
        v = _transfer(SystemMode(5.0), 5.0, 1.0, 80.0)
        assert abs(v) == pytest.approx(2.0, rel=1e-12)

    def test_finite_off_resonance(self):
        v = _transfer(SystemMode(9.0), 1.0, 0.5, 2.0)
        assert np.isfinite(v.real) and np.isfinite(v.imag)


class TestAnalyticPropagator:
    def test_matches_scalar_functions(self):
        """Each mode's amplitude is its one-mode amplitude; the survival is analytic_survival."""
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=10.0, half_bandwidth=3.0)
        bath = discretize_bath(spec, 7)
        system = SystemMode(10.0)
        coeffs = analytic_propagator(system, GAMMA, bath, 0.9)
        assert coeffs.provenance == "analytic"
        for j, (omega, xi) in enumerate(zip(bath.omegas, bath.xis)):
            assert coeffs.absorption[j] == pytest.approx(
                _transfer(system, omega, xi, 0.9), rel=1e-14
            )
        assert coeffs.survival == pytest.approx(analytic_survival(system, GAMMA, 0.9))


class TestSingleParticleHamiltonian:
    def test_arrowhead_structure(self):
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=10.0, half_bandwidth=3.0)
        bath = discretize_bath(spec, 5)
        h = _single_particle_hamiltonian(SystemMode(10.0), bath)
        assert h.shape == (6, 6)
        assert np.array_equal(h, h.T)
        assert h[0, 0] == 10.0
        assert np.allclose(np.diag(h)[1:], bath.omegas)
        assert np.allclose(h[0, 1:], bath.xis)
        interior = h[1:, 1:] - np.diag(bath.omegas)
        assert np.max(np.abs(interior)) == 0.0


class TestExactPropagator:
    def test_identity_at_zero(self, small_propagator):
        coeffs = small_propagator.evaluate(0.0)
        assert coeffs.survival == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(coeffs.absorption)) < 1e-14

    def test_rabi_oscillation(self, rabi_pair):
        """One resonant mode: survival probability is cos^2(xi t)."""
        system, bath = rabi_pair
        propagator = ExactPropagator(system, bath)
        for t in (0.2, 0.9, 1.7):
            u = propagator.evaluate(t).survival
            assert abs(u) ** 2 == pytest.approx(math.cos(math.sqrt(2.0) * t) ** 2, abs=1e-12)

    @pytest.mark.parametrize("n_modes", [1, 10, 100])
    def test_full_matrix_unitarity(self, n_modes):
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=20.0, half_bandwidth=5.0)
        bath = discretize_bath(spec, n_modes)
        propagator = ExactPropagator(SystemMode(20.0), bath)
        for t in np.linspace(0.0, 4.0, 5):
            m = propagator.unitary(t)
            gram = m.conj().T @ m
            assert np.max(np.abs(gram - np.eye(n_modes + 1))) < 1e-10

    def test_row_unitarity(self, small_propagator):
        for t in np.linspace(0.0, 6.0, 7):
            assert unitarity_defect(small_propagator.evaluate(t)) < 1e-10

    def test_group_property(self):
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=10.0, half_bandwidth=3.0)
        bath = discretize_bath(spec, 30)
        propagator = ExactPropagator(SystemMode(10.0), bath)
        product = propagator.unitary(0.7) @ propagator.unitary(1.9)
        assert np.max(np.abs(product - propagator.unitary(2.6))) < 1e-9

    def test_rejects_negative_time(self, small_propagator):
        with pytest.raises(ValueError):
            small_propagator.evaluate(-1.0)


def _bath(omegas, xis) -> DiscreteBath:
    """A bath with the given modes, on a band that just contains them."""
    omegas = np.asarray(omegas, dtype=float)
    center = 0.5 * (omegas[0] + omegas[-1])
    half = 0.5 * (omegas[-1] - omegas[0]) + 1e-3 * max(1.0, abs(center))
    spec = SpectralDensitySpec(gamma=GAMMA, band_center=center, half_bandwidth=half)
    return DiscreteBath(omegas=omegas, xis=np.asarray(xis, dtype=float), spec=spec)


def _assert_matches_dense_eigh(system, bath):
    """The propagator's decomposition and evolution against dense eigh of the arrowhead matrix.

    Eigenvalues within 1e-13 ||H||, ||V^T V - I|| <= 1e-12 and
    ||H V - V diag(lambda)|| <= 1e-13 ||H|| (spectral norms), all entries
    finite; ``evaluate`` and ``propagate`` of a random complex unit vector
    within 1e-13 of the dense V e^{-i lambda t} V^T at t ||H|| up to 10.
    """
    propagator = ExactPropagator(system, bath)
    lam, v = propagator.spectrum.eigenvalues, propagator.spectrum.vectors()
    h = _single_particle_hamiltonian(system, bath)
    h_norm = np.linalg.norm(h, 2)
    dense_lam, dense_v = np.linalg.eigh(h)
    assert np.all(np.isfinite(lam)) and np.all(np.isfinite(v))
    assert v.shape == h.shape
    assert np.max(np.abs(lam - dense_lam)) <= 1e-13 * h_norm
    assert np.linalg.norm(v.T @ v - np.eye(len(lam)), 2) <= 1e-12
    assert np.linalg.norm(h @ v - v * lam, 2) <= 1e-13 * h_norm

    times = np.array([0.0, 0.7, 3.0, 10.0]) / h_norm
    dense = np.array([(dense_v * np.exp(-1j * dense_lam * t)) @ dense_v.T for t in times])
    x = [1.0, 1j] @ np.random.default_rng(len(lam)).normal(size=(2, len(lam)))
    x /= np.linalg.norm(x)
    assert np.max(np.abs(propagator.propagate(x, times) - dense @ x)) <= 1e-13
    coeffs = propagator.evaluate(times)
    assert np.max(np.abs(coeffs.survival - dense[:, 0, 0])) <= 1e-13
    assert np.max(np.abs(coeffs.absorption - dense[:, 0, 1:])) <= 1e-13


_CLOSE = np.sort(np.concatenate([np.linspace(5.0, 15.0, 10) * f for f in (1.0, 1.0 + 1e-12)]))
_MIXED = np.linspace(1.0, 9.0, 30)
_MIXED_XIS = np.full(30, 0.3)
_MIXED_XIS[[2, 17]] = 0.0
_MIXED_XIS[[5, 21]] = 1e-12
_MIXED_XIS[[9, 29]] = 1e-170
_WIDE = np.linspace(0.0, 10.0, 40)

SOLVER_CASES = {
    "midpoint-1": (20.0, discretize_bath(SpectralDensitySpec(GAMMA, 20.0, 5.0), 1)),
    "midpoint-2": (20.0, discretize_bath(SpectralDensitySpec(GAMMA, 20.0, 5.0), 2)),
    "midpoint-40": (21.3, discretize_bath(SpectralDensitySpec(GAMMA, 20.0, 5.0), 40)),
    "pairs-1e-12": (10.0, _bath(_CLOSE, np.full(20, 0.2))),
    "pairs-1e-12-weak": (10.0, _bath(_CLOSE, np.full(20, 1e-7))),
    "couplings-0-1e-12-1e-170": (5.0, _bath(_MIXED, _MIXED_XIS)),
    "on-coupled-mode": (_MIXED[12], _bath(_MIXED, _MIXED_XIS)),
    "on-uncoupled-mode": (_MIXED[17], _bath(_MIXED, _MIXED_XIS)),
    "all-uncoupled": (5.0, _bath(_MIXED, np.zeros(30))),
    "far-below": (1.0, _bath(np.linspace(500.0, 510.0, 10), np.full(10, 0.5))),
    "strong-100x-spacing": (5.0, _bath(_WIDE, np.full(40, 100.0 * (_WIDE[1] - _WIDE[0])))),
    "poles-within-eps": (
        1.5,
        _bath([0.0, 1e-300, 2e-300, 1.0, 5.0, np.nextafter(5.0, 6.0)], np.full(6, 0.3)),
    ),
    "tiny-clustered": (
        5e-100,
        _bath(5e-100 * (1.0 + 1e-12 * np.arange(1, 41)), np.full(40, 1e-103)),
    ),
}


class TestArrowheadSolver:
    """The secular-equation eigensolver of ExactPropagator against dense eigh."""

    @pytest.mark.parametrize("case", list(SOLVER_CASES))
    def test_matches_dense_eigh(self, case):
        omega_b, bath = SOLVER_CASES[case]
        _assert_matches_dense_eigh(SystemMode(omega_b), bath)

    def test_resonant_single_mode(self):
        """Roots omega_b -+ xi sit on the bound min(omega_b, omega_1) - |xi|.

        The outer brackets must end strictly beyond that bound.
        """
        system = SystemMode(100.0)
        bath = _bath([100.0], [math.sqrt(2.0)])
        _assert_matches_dense_eigh(system, bath)
        lam = ExactPropagator(system, bath).spectrum.eigenvalues
        assert np.max(np.abs(lam - (100.0 + np.array([-1.0, 1.0]) * math.sqrt(2.0)))) <= 1e-13

    def test_top_root_far_above_band(self):
        """omega_b = 1e3 over a band [0, 10]: the top root needs its whole outer interval."""
        system = SystemMode(1e3)
        bath = _bath(np.linspace(0.0, 10.0, 10), np.full(10, 0.5))
        _assert_matches_dense_eigh(system, bath)
        top = ExactPropagator(system, bath).spectrum.eigenvalues[-1]
        secular = top - 1e3 - np.sum(bath.xis**2 / (top - bath.omegas))
        assert top > 1e3 and abs(secular) <= 1e-13 * top

    def test_wwa_fixture_matches_dense_eigh(self, wwa_propagator, wwa_system, wwa_bath):
        """N = 2000: eigenvalues within 1e-12 ||H|| and ||V^T V - I|| <= 1e-11."""
        h = _single_particle_hamiltonian(wwa_system, wwa_bath)
        lam, v = wwa_propagator.spectrum.eigenvalues, wwa_propagator.spectrum.vectors()
        h_norm = np.max(np.abs(lam))
        assert np.max(np.abs(lam - np.linalg.eigvalsh(h))) <= 1e-12 * h_norm
        assert np.max(np.abs(v.T @ v - np.eye(len(lam)))) <= 1e-11

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n, unique=True),
                st.lists(
                    st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.0, 1e-12, 1e-170])),
                    min_size=n,
                    max_size=n,
                ),
                st.floats(0.1, 20.0),
            )
        )
    )
    def test_random_baths_match_dense_eigh(self, drawn):
        omegas, xis, omega_b = drawn
        order = np.argsort(omegas)
        _assert_matches_dense_eigh(
            SystemMode(omega_b), _bath(np.array(omegas)[order], np.array(xis)[order])
        )


class TestEvaluate:
    @pytest.mark.parametrize("fixture", ["small_propagator", "wwa_propagator"])
    def test_rows_match_unitary(self, fixture, request):
        propagator = request.getfixturevalue(fixture)
        grid = np.array([0.3, 5.0])
        coeffs = propagator.evaluate(grid)
        assert coeffs.t.shape == coeffs.survival.shape == (2,)
        assert coeffs.absorption.shape == (2, propagator.bath.n_modes)
        for i, t in enumerate(grid):
            row = propagator.unitary(t)[0]
            assert coeffs.t[i] == t
            assert abs(coeffs.survival[i] - row[0]) <= 1e-13
            assert np.max(np.abs(coeffs.absorption[i] - row[1:])) <= 1e-13

    def test_single_time_matches_batch_bit_for_bit(self, small_propagator):
        single = small_propagator.evaluate(1.3)
        batched = small_propagator.evaluate([1.3])
        assert single.t == batched.t[0]
        assert single.survival == batched.survival[0]
        assert np.array_equal(single.absorption, batched.absorption[0])
        assert single.provenance == batched.provenance

    def test_rejects_negative_time(self, small_propagator):
        with pytest.raises(ValueError):
            small_propagator.evaluate([0.0, 1.0, -0.5])

    def test_grid_stays_below_one_eigenvector_matrix(self):
        """Decomposing and evaluating N = 4000 over 21 times peaks under 32 MB.

        That is a quarter of one 8 (N+1)^2-byte eigenvector matrix.
        """
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=100.0, half_bandwidth=20.0)
        bath = discretize_bath(spec, 4000)
        tracemalloc.start()
        try:
            coeffs = ExactPropagator(SystemMode(100.0), bath).evaluate(np.linspace(0.0, 5.0, 21))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coeffs.absorption.shape == (21, 4000)
        assert peak < 32 * 2**20


class TestDissipationAndDefect:
    def test_zero_at_time_zero(self, small_propagator):
        assert dissipation_sum(small_propagator.evaluate(0.0)) < 1e-28

    def test_complements_survival_for_oracle(self, small_propagator):
        for t in (0.3, 1.2, 4.0):
            coeffs = small_propagator.evaluate(t)
            assert dissipation_sum(coeffs) == pytest.approx(
                1.0 - abs(coeffs.survival) ** 2, abs=1e-10
            )

    def test_wwa_dissipation_value(self, wwa_propagator):
        """Broadband regime: transferred weight tracks 1 - exp(-gamma t)."""
        coeffs = wwa_propagator.evaluate(1.0)
        assert dissipation_sum(coeffs) == pytest.approx(1.0 - math.exp(-1.0), abs=2e-2)

    def test_closed_form_identity_is_exact(self):
        """|u|^2 + (1 - exp(-gamma t)) = 1 algebraically for the closed forms."""
        system = SystemMode(4.0)
        for t in (0.0, 0.7, 3.0):
            u = analytic_survival(system, GAMMA, t)
            assert abs(u) ** 2 + -math.expm1(-GAMMA * t) == pytest.approx(1.0, abs=1e-15)

    def test_analytic_sum_over_narrow_band_has_real_defect(self):
        """Summing the closed form over a narrow discrete band exposes its error."""
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=20.0, half_bandwidth=2.0)
        bath = discretize_bath(spec, 50)
        coeffs = analytic_propagator(SystemMode(20.0), GAMMA, bath, 1.0)
        assert unitarity_defect(coeffs) > 0.05


class TestBroadbandConvergence:
    def test_survival_tracks_exponential(self, wwa_coefficients, wwa_grid):
        devs = np.abs(np.abs(wwa_coefficients.survival) ** 2 - np.exp(-GAMMA * wwa_grid))
        assert np.max(devs) <= 2e-2

    def test_defect_nonincreasing_under_refinement(self):
        """Doubling the mode count never worsens the tracking error (within noise)."""
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=100.0, half_bandwidth=20.0)
        system = SystemMode(100.0)
        grid = np.linspace(0.0, 2.0, 11)
        defects = []
        for n_modes in (250, 500, 1000):
            propagator = ExactPropagator(system, discretize_bath(spec, n_modes))
            defects.append(
                max(
                    abs(abs(propagator.evaluate(t).survival) ** 2 - math.exp(-GAMMA * t))
                    for t in grid
                )
            )
        for coarse, fine in zip(defects, defects[1:]):
            assert fine <= coarse + 1e-4

    def test_resonant_transfer_matches_closed_form(self, wwa_propagator, wwa_bath, wwa_system):
        """Near resonance the closed-form mode amplitudes agree within 10%."""
        j0 = int(np.argmin(np.abs(wwa_bath.omegas - wwa_system.omega_b)))
        window = slice(j0 - 10, j0 + 11)
        for t in (0.5, 1.0, 3.0):
            oracle = wwa_propagator.evaluate(t)
            closed = analytic_propagator(wwa_system, GAMMA, wwa_bath, t)
            oracle_sq = np.abs(oracle.absorption[window]) ** 2
            closed_sq = np.abs(closed.absorption[window]) ** 2
            assert np.max(np.abs(oracle_sq - closed_sq) / closed_sq) < 0.10


class TestCoefficientValidation:
    def test_rejects_unknown_provenance(self):
        with pytest.raises(ValueError):
            PropagatorCoefficients(
                t=0.0,
                survival=1.0,
                absorption=np.zeros(1, dtype=complex),
                provenance="guess",
            )

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            PropagatorCoefficients(
                t=np.zeros(2),
                survival=np.ones(2),
                absorption=np.zeros(3, dtype=complex),
                provenance="oracle",
            )

    def test_rejects_superunitary_survival(self):
        with pytest.raises(ValueError):
            PropagatorCoefficients(
                t=0.0,
                survival=1.5,
                absorption=np.zeros(1, dtype=complex),
                provenance="oracle",
            )
