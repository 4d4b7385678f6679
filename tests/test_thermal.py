"""Finite-temperature laws: enhancement factor, conditional state, effective
generator, and Monte Carlo sampling against exact Gaussian moments."""

import math
import tracemalloc

import numpy as np
import pytest

from boson_decay import (
    CoherentSuperposition,
    EffectiveHamiltonian,
    ExactPropagator,
    InfiniteOccupationError,
    SpectralDensitySpec,
    SystemMode,
    ThermalSpec,
    analytic_survival,
    coherent_decay,
    conditional_mean_number,
    conditional_wavefunction,
    discretize_bath,
    exact_thermal_moments,
    excited_bath_evolution,
    fock_decay_time,
    fock_survival,
    monte_carlo_moments,
    sample_thermal_bath,
    thermal_factor_closed,
    thermal_factor_discrete,
)
from boson_decay.decay import coherent_amplitudes
from boson_decay.thermal import ThermalFactor, _block_rows

GAMMA = 1.0


class TestThermalFactor:
    def test_closed_form_starts_at_one(self):
        assert thermal_factor_closed(1.0, GAMMA, 0.0).value == 1.0

    def test_closed_form_zero_temperature(self):
        for t in (0.0, 1.0, 10.0):
            assert thermal_factor_closed(0.0, GAMMA, t).value == 1.0

    def test_closed_form_saturates_at_one_plus_nth(self):
        assert thermal_factor_closed(1.0, GAMMA, 50.0).value == pytest.approx(2.0, rel=1e-12)

    def test_closed_form_nondecreasing(self):
        values = [thermal_factor_closed(0.7, GAMMA, t).value for t in np.linspace(0, 5, 20)]
        assert np.all(np.diff(values) >= 0)

    def test_discrete_is_one_at_time_zero(self, thermal_system, thermal_bath, thermal_propagator):
        thermal = ThermalSpec.for_system(1e-3, thermal_system.omega_b)
        coeffs = thermal_propagator.evaluate(0.0)
        phi = thermal_factor_discrete(thermal_bath, thermal, coeffs)
        assert phi.value == pytest.approx(1.0, abs=1e-12)

    def test_discrete_is_one_at_zero_temperature(
        self, thermal_system, thermal_bath, thermal_propagator
    ):
        thermal = ThermalSpec.for_system(math.inf, thermal_system.omega_b)
        coeffs = thermal_propagator.evaluate(2.0)
        phi = thermal_factor_discrete(thermal_bath, thermal, coeffs)
        assert phi.value == 1.0

    def test_discrete_matches_closed_form_in_regime(
        self, thermal_system, thermal_bath, thermal_propagator
    ):
        """Broadband + slowly-varying occupation: the two evaluations agree to 2%."""
        beta = 1.0 / thermal_system.omega_b
        thermal = ThermalSpec.for_system(beta, thermal_system.omega_b)
        for t in np.linspace(0.0, 5.0, 11):
            coeffs = thermal_propagator.evaluate(t)
            phi_d = thermal_factor_discrete(thermal_bath, thermal, coeffs)
            phi_c = thermal_factor_closed(thermal.n_th, GAMMA, t)
            assert abs(phi_d.value - phi_c.value) / phi_c.value <= 2e-2

    def test_discrete_value_at_unit_occupation(
        self, thermal_system, thermal_bath, thermal_propagator
    ):
        """n_th = 1 at gamma t = 1: the factor sits near 2 - exp(-1)."""
        beta = math.log(2.0) / thermal_system.omega_b
        thermal = ThermalSpec.for_system(beta, thermal_system.omega_b)
        coeffs = thermal_propagator.evaluate(1.0)
        phi = thermal_factor_discrete(thermal_bath, thermal, coeffs)
        assert phi.value == pytest.approx(2.0 - math.exp(-1.0), abs=2e-2)

    def test_rejects_value_below_one(self):
        with pytest.raises(ValueError):
            ThermalFactor(value=0.5)

    def test_rejects_mode_count_mismatch(self, thermal_system, thermal_bath, small_propagator):
        thermal = ThermalSpec.for_system(1.0, thermal_system.omega_b)
        with pytest.raises(ValueError, match="mode count"):
            thermal_factor_discrete(thermal_bath, thermal, small_propagator.evaluate(0.1))


class TestConditionalWavefunction:
    def test_reduces_to_plain_decay_at_unit_factor(self):
        u = analytic_survival(SystemMode(5.0), GAMMA, 0.8)
        phi = thermal_factor_closed(0.0, GAMMA, 0.8)
        weight, label = conditional_wavefunction(1.3, u, phi)
        assert weight == 1.0
        assert label == pytest.approx(1.3 * u, rel=1e-14)

    def test_identity_at_time_zero(self):
        phi = thermal_factor_closed(2.0, GAMMA, 0.0)
        weight, label = conditional_wavefunction(0.4 - 0.9j, 1.0, phi)
        assert weight == 1.0
        assert label == pytest.approx(0.4 - 0.9j)

    def test_long_time_large_factor(self):
        phi = ThermalFactor(value=2.0)
        weight, label = conditional_wavefunction(1.0, 0.0, phi)
        assert weight == pytest.approx(2 ** -0.5, rel=1e-14)
        assert label == pytest.approx(1.0 - 2 ** -0.5, rel=1e-14)

    def test_mean_number_matches_weighted_label(self):
        """Mean number equals |weight * label|^2, the sub-normalized expectation."""
        u = analytic_survival(SystemMode(3.0), GAMMA, 0.6)
        phi = thermal_factor_closed(0.8, GAMMA, 0.6)
        weight, label = conditional_wavefunction(1.1, u, phi)
        assert conditional_mean_number(1.1, u, phi) == pytest.approx(
            (weight * abs(label)) ** 2, rel=1e-12
        )


class TestConditionalMeanNumber:
    def test_zero_temperature_reduction(self):
        u = analytic_survival(SystemMode(4.0), GAMMA, 1.2)
        phi = thermal_factor_closed(0.0, GAMMA, 1.2)
        assert conditional_mean_number(2.0, u, phi) == pytest.approx(
            4.0 * math.exp(-GAMMA * 1.2), rel=1e-12
        )

    def test_low_temperature_tracks_vacuum_decay(self):
        """At n_th = 1e-3 the vacuum-driven exponential dominates to within 1%."""
        system = SystemMode(5.0)
        n_th = 1e-3
        for t in np.linspace(0.05, 2.0, 10):
            u = analytic_survival(system, GAMMA, t)
            phi = thermal_factor_closed(n_th, GAMMA, t)
            value = conditional_mean_number(1.3, u, phi)
            reference = abs(1.3) ** 2 * math.exp(-GAMMA * t)
            assert abs(value - reference) / reference < 1e-2

    def test_high_temperature_approaches_inverse_temperature_law(self):
        """The 1/T asymptote is approached as the enhancement factor grows.

        The asymptote is |alpha|^2 beta omega_b / (1 - e^{-gamma t}). At
        n_th = 1e3 the neglected interference term still contributes a few
        percent (computed, phase dependent); by n_th = 1e5 agreement is below
        1%.
        """
        system = SystemMode(5.0)
        t = 1.0
        u = analytic_survival(system, GAMMA, t)
        deviations = []
        for n_th in (1e3, 1e4, 1e5):
            beta = math.log1p(1.0 / n_th) / system.omega_b
            phi = thermal_factor_closed(n_th, GAMMA, t)
            value = conditional_mean_number(1.3, u, phi)
            asymptote = abs(1.3) ** 2 * beta * system.omega_b / -math.expm1(-GAMMA * t)
            deviations.append(abs(value - asymptote) / asymptote)
        assert deviations[0] < 0.08
        assert deviations[-1] < 1e-2
        assert deviations[0] > deviations[1] > deviations[2]


class TestEffectiveHamiltonian:
    def test_fock_zero_temperature_reduces_to_vacuum_law(self):
        h = EffectiveHamiltonian(omega_b=5.0, gamma=GAMMA, n_th=0.0)
        for n in (1, 2, 3):
            for t in (0.1, 0.9):
                evo = h.evolve_fock(n, t)
                assert evo.mean_number == pytest.approx(
                    n * fock_survival(n, GAMMA, t), rel=1e-12
                )
                assert evo.decay_time == pytest.approx(fock_decay_time(n, GAMMA), rel=1e-12)

    def test_fock_mean_number_example(self):
        h = EffectiveHamiltonian(omega_b=5.0, gamma=GAMMA, n_th=1.0)
        assert h.evolve_fock(1, 0.1).mean_number == pytest.approx(math.exp(-0.2), rel=1e-12)

    def test_fock_decay_time_example(self):
        h = EffectiveHamiltonian(omega_b=5.0, gamma=1.0, n_th=3.0)
        assert h.evolve_fock(2, 0.5).decay_time == pytest.approx(0.2, rel=1e-12)

    def test_fock_ground_state_reports_infinite_decay_time(self):
        h = EffectiveHamiltonian(omega_b=5.0, gamma=GAMMA, n_th=0.0)
        evo = h.evolve_fock(0, 1.0)
        assert evo.decay_time == math.inf
        assert evo.mean_number == 0.0

    def test_fock_amplitude(self):
        h = EffectiveHamiltonian(omega_b=2.0, gamma=0.5, n_th=0.7)
        evo = h.evolve_fock(2, 0.3)
        expected = np.exp(-2j * 2.0 * 0.3) * math.exp(-0.5 * 2.7 * 0.5 * 0.3)
        assert evo.amplitude == pytest.approx(expected, rel=1e-12)

    def test_coherent_zero_temperature_reduces_to_vacuum_law(self):
        h = EffectiveHamiltonian(omega_b=5.0, gamma=GAMMA, n_th=0.0)
        t = 0.7
        evo = h.evolve_coherent(1.2, t)
        label, mean = coherent_decay(1.2, analytic_survival(SystemMode(5.0), GAMMA, t))
        assert evo.weight == 1.0
        assert evo.label == pytest.approx(label, rel=1e-12)
        assert evo.mean_number == pytest.approx(mean, rel=1e-12)
        assert evo.decay_time == pytest.approx(1.0 / GAMMA, rel=1e-15)

    def test_coherent_mean_number_example(self):
        h = EffectiveHamiltonian(omega_b=5.0, gamma=GAMMA, n_th=1.0)
        evo = h.evolve_coherent(2.0, 0.5)
        assert evo.mean_number == pytest.approx(4.0 * math.exp(-1.0), rel=1e-12)
        assert evo.decay_time == pytest.approx(0.5, rel=1e-15)

    def test_coherent_identity_at_time_zero(self):
        h = EffectiveHamiltonian(omega_b=5.0, gamma=GAMMA, n_th=2.0)
        evo = h.evolve_coherent(0.3 + 0.4j, 0.0)
        assert evo.weight == 1.0
        assert evo.label == pytest.approx(0.3 + 0.4j)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            EffectiveHamiltonian(omega_b=5.0, gamma=0.0, n_th=0.0)
        with pytest.raises(ValueError):
            EffectiveHamiltonian(omega_b=5.0, gamma=1.0, n_th=-1.0)


class TestEffectiveSuperposition:
    def test_single_branch_matches_coherent_evolution(self):
        h = EffectiveHamiltonian(omega_b=5.0, gamma=GAMMA, n_th=1.0)
        t = 0.05
        state = CoherentSuperposition(((1.0, 1.1),))
        rho, _ = h.evolve_superposition(state, t)
        evo = h.evolve_coherent(1.1, t)
        amps = coherent_amplitudes(evo.label, rho.dim - 1)
        expected = np.outer(amps, amps.conj())
        assert np.max(np.abs(rho.entries - expected)) < 1e-10

    def test_cat_state_exact_at_time_zero(self):
        h = EffectiveHamiltonian(omega_b=5.0, gamma=GAMMA, n_th=1.0)
        cat = CoherentSuperposition(((1.0, 2.0), (1.0, -2.0)))
        rho, pre_trace = h.evolve_superposition(cat, 0.0)
        amps = coherent_amplitudes(2.0, rho.dim - 1) + coherent_amplitudes(-2.0, rho.dim - 1)
        amps = amps / np.linalg.norm(amps)
        assert pre_trace == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(rho.entries - np.outer(amps, amps.conj()))) < 1e-10

    def test_cat_interference_fixture(self):
        """Golden fixture: interference decays faster than the populations.

        Values computed by this implementation (deterministic closed forms) at
        alpha = +/-2, n_th = 1, gamma t = 0.05 and frozen.
        """
        h = EffectiveHamiltonian(omega_b=5.0, gamma=GAMMA, n_th=1.0)
        cat = CoherentSuperposition(((1.0, 2.0), (1.0, -2.0)))
        rho0, _ = h.evolve_superposition(cat, 0.0)
        rho, pre_trace = h.evolve_superposition(cat, 0.05)

        def interference_weight(matrix):
            magnitudes = np.abs(matrix.entries)
            return float(magnitudes.sum() - np.trace(magnitudes))

        ratio = interference_weight(rho) / interference_weight(rho0)
        assert ratio < 1.0
        assert ratio == pytest.approx(0.9691769974115575, abs=1e-9)
        assert pre_trace == pytest.approx(0.7827653742074249, abs=1e-9)

    def test_norm_leak_is_reported(self):
        h = EffectiveHamiltonian(omega_b=5.0, gamma=GAMMA, n_th=1.0)
        state = CoherentSuperposition(((1.0, 1.0),))
        rho, pre_trace = h.evolve_superposition(state, 0.08)
        assert pre_trace < 1.0
        assert rho.trace == pytest.approx(1.0, abs=1e-12)

    def test_warns_beyond_short_time_window(self):
        h = EffectiveHamiltonian(omega_b=5.0, gamma=GAMMA, n_th=0.5)
        state = CoherentSuperposition(((1.0, 0.5),))
        with pytest.warns(UserWarning, match="short-time"):
            h.evolve_superposition(state, 0.2)

    def test_insufficient_truncation_rejected(self):
        h = EffectiveHamiltonian(omega_b=5.0, gamma=GAMMA, n_th=0.0)
        state = CoherentSuperposition(((1.0, 2.0),))
        with pytest.raises(ValueError, match="raise n_max"):
            h.evolve_superposition(state, 0.01, n_max=3)


class TestShortTimeConsistency:
    def test_conditional_and_effective_laws_agree_to_first_order(self):
        """For gamma t <= 0.02 (and slow phase) the two mean numbers agree to 1e-3."""
        system = SystemMode(omega_b=GAMMA)  # keeps the phase within the window
        alpha = 1.3
        for n_th in (0.1, 1.0):
            for t in (0.005, 0.02):
                u = analytic_survival(system, GAMMA, t)
                phi = thermal_factor_closed(n_th, GAMMA, t)
                conditional = conditional_mean_number(alpha, u, phi)
                effective = abs(alpha) ** 2 * math.exp(-(n_th + 1.0) * GAMMA * t)
                assert abs(conditional - effective) / effective < 1e-3


class TestThermalSampling:
    def test_seed_reproducibility(self, thermal_bath):
        thermal = ThermalSpec.for_system(2e-3, 800.0)
        a = sample_thermal_bath(thermal_bath, thermal, 32, seed=99)
        b = sample_thermal_bath(thermal_bath, thermal, 32, seed=99)
        assert np.array_equal(a.samples, b.samples)
        c = sample_thermal_bath(thermal_bath, thermal, 32, seed=100)
        assert not np.array_equal(a.samples, c.samples)

    def test_per_mode_second_moment(self, small_bath):
        """Sample mean of |lambda_j|^2 sits within 5 standard errors of n_j."""
        thermal = ThermalSpec.for_system(0.08, 10.0)
        count = 20000
        samples = sample_thermal_bath(small_bath, thermal, count, seed=2024)
        occ = thermal.occupations(small_bath)
        moments = np.mean(np.abs(samples.samples) ** 2, axis=0)
        stderr = occ / math.sqrt(count)  # |lambda|^2 is exponential: std = mean
        assert np.all(np.abs(moments - occ) <= 5.0 * stderr)

    def test_zero_temperature_limit_gives_null_labels(self, small_bath):
        thermal = ThermalSpec.for_system(1e4, 10.0)
        samples = sample_thermal_bath(small_bath, thermal, 10, seed=1)
        assert np.max(np.abs(samples.samples)) < 1e-100

    def test_beta_zero_rejected(self, small_bath):
        with pytest.raises(InfiniteOccupationError, match="infinite variance"):
            sample_thermal_bath(small_bath, ThermalSpec(beta=0.0, n_th=0.0), 4, seed=0)

    def test_count_must_be_positive(self, small_bath):
        thermal = ThermalSpec.for_system(1.0, 10.0)
        with pytest.raises(ValueError):
            sample_thermal_bath(small_bath, thermal, 0, seed=0)

    @pytest.mark.parametrize("rows", [None, 7, 1000])
    def test_blocks_replay_one_shot_draw(self, thermal_bath, rows):
        """Any block size gives the one-shot (count, 2N) draw, bit for bit."""
        thermal = ThermalSpec.for_system(2e-3, 800.0)
        count = 1000  # not a multiple of 7 or of the default 163 rows
        samples = sample_thermal_bath(thermal_bath, thermal, count, seed=11)
        scale = np.sqrt(thermal.occupations(thermal_bath) / 2.0)
        expected = np.random.default_rng(11).standard_normal((count, 1600)).view(complex) * scale
        blocks = list(samples.blocks(rows))
        assert all(len(b) == (rows or _block_rows(800, 1)) for b in blocks[:-1])
        assert np.array_equal(np.concatenate(blocks), expected)
        assert np.array_equal(samples.samples, expected)

    def test_set_holds_no_samples(self, thermal_bath):
        samples = sample_thermal_bath(thermal_bath, ThermalSpec.for_system(2e-3, 800.0), 10**9, 1)
        assert samples.count == 10**9
        assert samples.scale.shape == (800,)


@pytest.fixture(scope="module")
def setup(thermal_bath):
    thermal = ThermalSpec.for_system(math.log(2.0) / 800.0, 800.0)  # n_th = 1
    samples = sample_thermal_bath(thermal_bath, thermal, 2000, seed=42)
    return thermal, samples


class TestMonteCarloMoments:
    def test_time_zero_is_exact(self, setup, thermal_propagator):
        thermal, samples = setup
        coeffs = thermal_propagator.evaluate(0.0)
        moments, _ = monte_carlo_moments(1.5, thermal, coeffs, samples)
        assert moments.mean_amplitude == pytest.approx(1.5, abs=1e-12)
        assert moments.occupation == pytest.approx(2.25, abs=1e-12)

    def test_matches_exact_moments_within_errors(self, setup, thermal_bath, thermal_propagator):
        thermal, samples = setup
        for t in (0.5, 2.0):
            coeffs = thermal_propagator.evaluate(t)
            mc, errors = monte_carlo_moments(1.0, thermal, coeffs, samples)
            exact = exact_thermal_moments(1.0, thermal_bath, thermal, coeffs)
            assert abs(mc.occupation - exact.occupation) <= 3.0 * errors.occupation
            assert abs(mc.mean_amplitude - exact.mean_amplitude) <= 3.0 * errors.mean_amplitude

    def test_vacuum_bath_limit(self, thermal_bath, thermal_propagator):
        cold = ThermalSpec.for_system(math.inf, 800.0)
        samples = sample_thermal_bath(thermal_bath, cold, 16, seed=3)
        coeffs = thermal_propagator.evaluate(1.0)
        moments, _ = monte_carlo_moments(2.0, cold, coeffs, samples)
        assert moments.mean_amplitude == pytest.approx(2.0 * coeffs.survival, rel=1e-12)
        assert moments.occupation == pytest.approx(abs(2.0 * coeffs.survival) ** 2, rel=1e-12)

    def test_branch_labels_match_per_sample_evolution(self, setup, thermal_propagator):
        """The vectorized estimator uses exactly the per-sample label map."""
        thermal, samples = setup
        coeffs = thermal_propagator.evaluate(0.8)
        count = 5
        expected = [
            excited_bath_evolution(1.0, samples.samples[i], thermal_propagator, 0.8).system_label
            for i in range(count)
        ]
        branch = 1.0 * coeffs.survival + samples.samples[:count] @ coeffs.absorption
        assert np.allclose(branch, expected, atol=1e-13)

    def test_rejects_temperature_mismatch(self, setup, thermal_propagator):
        _, samples = setup
        other = ThermalSpec.for_system(5e-4, 800.0)
        coeffs = thermal_propagator.evaluate(0.5)
        with pytest.raises(ValueError, match="temperature"):
            monte_carlo_moments(1.0, other, coeffs, samples)

    def test_standard_error_scales_as_inverse_sqrt(self, thermal_bath, thermal_propagator):
        thermal = ThermalSpec.for_system(math.log(2.0) / 800.0, 800.0)
        coeffs = thermal_propagator.evaluate(1.0)
        scaled = []
        for count in (100, 1000, 10000):
            samples = sample_thermal_bath(thermal_bath, thermal, count, seed=7)
            _, errors = monte_carlo_moments(1.0, thermal, coeffs, samples)
            scaled.append(errors.occupation * math.sqrt(count))
        assert max(scaled) / min(scaled) < 1.5


def _whole_array_moments(alpha, coeffs, samples):
    """Reference estimator: every branch value at once, with numpy's own reductions."""
    offsets = alpha * np.reshape(coeffs.survival, (-1, 1))
    branch = coeffs.absorption.reshape(offsets.size, -1) @ samples.samples.T + offsets
    mean = branch.mean(axis=1)
    occ = np.abs(branch) ** 2
    count = samples.count
    if count == 1:
        errors = np.full((2, offsets.size), math.inf)
    else:
        spread = np.mean(np.abs(branch - mean[:, None]) ** 2, axis=1)
        errors = np.sqrt(np.stack([spread, occ.var(axis=1)]) / (count - 1))
    return mean, occ.mean(axis=1), errors


class TestStreamedMonteCarlo:
    """Block-by-block moments equal the whole-array estimate to 1e-13.

    The grids start after t = 0: there every branch equals alpha up to
    rounding, and a stderr of rounding size has no relative accuracy.
    """

    TIMES = np.linspace(0.25, 5.0, 20)

    @pytest.mark.parametrize("offset", [None, -1, 1], ids=["count-1", "rows-1", "rows+1"])
    def test_matches_whole_array(self, thermal_bath, thermal_propagator, offset):
        thermal = ThermalSpec.for_system(math.log(2.0) / 800.0, 800.0)
        coeffs = thermal_propagator.evaluate(self.TIMES)
        count = 1 if offset is None else _block_rows(800, self.TIMES.size) + offset
        samples = sample_thermal_bath(thermal_bath, thermal, count, seed=17)
        self._check(1.0 - 0.5j, thermal, coeffs, samples)

    def test_matches_whole_array_on_long_grid(self):
        """T > N: the branch, not the block, bounds the rows."""
        system = SystemMode(omega_b=20.0)
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=20.0, half_bandwidth=4.0)
        bath = discretize_bath(spec, 20)
        thermal = ThermalSpec.for_system(0.05, 20.0)
        times = np.linspace(0.1, 4.0, 60)
        rows = _block_rows(bath.n_modes, times.size)
        assert rows == _block_rows(times.size, 1) < _block_rows(bath.n_modes, 1)
        samples = sample_thermal_bath(bath, thermal, 2 * rows + 3, seed=3)
        self._check(0.7, thermal, ExactPropagator(system, bath).evaluate(times), samples)

    @staticmethod
    def _check(alpha, thermal, coeffs, samples):
        moments, errors = monte_carlo_moments(alpha, thermal, coeffs, samples)
        mean, occupation, reference_errors = _whole_array_moments(alpha, coeffs, samples)
        np.testing.assert_allclose(moments.mean_amplitude, mean, rtol=1e-13, atol=0)
        np.testing.assert_allclose(moments.occupation, occupation, rtol=1e-13, atol=0)
        np.testing.assert_allclose(np.stack(errors), reference_errors, rtol=1e-13, atol=0)

    def test_memory_stays_below_the_sample_array(self):
        """M=2e4, N=400: materialized, the samples alone would be 128 MB."""
        system = SystemMode(omega_b=800.0)
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=800.0, half_bandwidth=80.0)
        bath = discretize_bath(spec, 400)
        thermal = ThermalSpec.for_system(math.log(2.0) / 800.0, 800.0)
        coeffs = ExactPropagator(system, bath).evaluate(np.linspace(0.0, 5.0, 21))
        samples = sample_thermal_bath(bath, thermal, 20_000, seed=5)
        tracemalloc.start()
        try:
            monte_carlo_moments(1.0, thermal, coeffs, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestExactThermalMoments:
    def test_time_zero(self, thermal_bath, thermal_propagator):
        thermal = ThermalSpec.for_system(2e-3, 800.0)
        coeffs = thermal_propagator.evaluate(0.0)
        moments = exact_thermal_moments(0.5 + 0.5j, thermal_bath, thermal, coeffs)
        assert moments.mean_amplitude == pytest.approx(0.5 + 0.5j, abs=1e-12)
        assert moments.occupation == pytest.approx(0.5, abs=1e-10)

    def test_equilibrates_to_resonant_occupation(self, thermal_bath, thermal_propagator):
        """With no drive the occupation relaxes toward n_th (within the 2% regime)."""
        thermal = ThermalSpec.for_system(math.log(2.0) / 800.0, 800.0)
        coeffs = thermal_propagator.evaluate(5.0)
        moments = exact_thermal_moments(0.0, thermal_bath, thermal, coeffs)
        target = thermal.n_th * -math.expm1(-GAMMA * 5.0)
        assert abs(moments.occupation - target) / target < 2e-2

    def test_zero_temperature_reduces_to_coherent_decay(self, thermal_bath, thermal_propagator):
        cold = ThermalSpec.for_system(math.inf, 800.0)
        coeffs = thermal_propagator.evaluate(1.0)
        moments = exact_thermal_moments(2.0, thermal_bath, cold, coeffs)
        assert moments.occupation == pytest.approx(abs(2.0 * coeffs.survival) ** 2, rel=1e-12)

    def test_occupation_dominates_mean_field(self, thermal_bath, thermal_propagator):
        thermal = ThermalSpec.for_system(1.5e-3, 800.0)
        for t in np.linspace(0.0, 4.0, 9):
            coeffs = thermal_propagator.evaluate(t)
            moments = exact_thermal_moments(1.1, thermal_bath, thermal, coeffs)
            assert moments.occupation >= abs(moments.mean_amplitude) ** 2 - 1e-12

    def test_requires_oracle_coefficients(self, thermal_system, thermal_bath):
        from boson_decay import analytic_propagator

        thermal = ThermalSpec.for_system(2e-3, 800.0)
        coeffs = analytic_propagator(thermal_system, GAMMA, thermal_bath, 1.0)
        with pytest.raises(ValueError, match="oracle"):
            exact_thermal_moments(1.0, thermal_bath, thermal, coeffs)
