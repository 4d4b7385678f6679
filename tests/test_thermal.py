"""Finite-temperature laws: enhancement factor, conditional state, effective
generator, and Monte Carlo sampling against exact Gaussian moments."""

import math
import os
import subprocess
import sys
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
    ThermalAttenuator,
    discretize_bath,
    fock_decay_time,
    fock_survival,
    monte_carlo_moments,
    thermal_factor_closed,
)
from boson_decay import thermal as thermal_module
from boson_decay.decay import coherent_amplitudes
from boson_decay.thermal import MC_BLOCK_BYTES, ThermalFactor, _block_rows, monte_carlo_bytes

GAMMA = 1.0


def _channel(bath, thermal, coeffs):
    """The exact thermal channel of ``coeffs`` over ``bath`` at the temperature of ``thermal``."""
    return ThermalAttenuator.from_coefficients(coeffs, thermal.occupations(bath))


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
        phi = _channel(thermal_bath, thermal, coeffs).phi_discrete()
        assert phi.value == pytest.approx(1.0, abs=1e-12)

    def test_discrete_is_one_at_zero_temperature(
        self, thermal_system, thermal_bath, thermal_propagator
    ):
        thermal = ThermalSpec.for_system(math.inf, thermal_system.omega_b)
        coeffs = thermal_propagator.evaluate(2.0)
        phi = _channel(thermal_bath, thermal, coeffs).phi_discrete()
        assert phi.value == 1.0

    def test_discrete_matches_closed_form_in_regime(
        self, thermal_system, thermal_bath, thermal_propagator
    ):
        """Broadband + slowly-varying occupation: the two evaluations agree to 2%."""
        beta = 1.0 / thermal_system.omega_b
        thermal = ThermalSpec.for_system(beta, thermal_system.omega_b)
        for t in np.linspace(0.0, 5.0, 11):
            coeffs = thermal_propagator.evaluate(t)
            phi_d = _channel(thermal_bath, thermal, coeffs).phi_discrete()
            phi_c = thermal_factor_closed(thermal.n_th, GAMMA, t)
            assert abs(phi_d.value - phi_c.value) / phi_c.value <= 2e-2

    def test_discrete_value_at_unit_occupation(
        self, thermal_system, thermal_bath, thermal_propagator
    ):
        """n_th = 1 at gamma t = 1: the factor sits near 2 - exp(-1)."""
        beta = math.log(2.0) / thermal_system.omega_b
        thermal = ThermalSpec.for_system(beta, thermal_system.omega_b)
        coeffs = thermal_propagator.evaluate(1.0)
        phi = _channel(thermal_bath, thermal, coeffs).phi_discrete()
        assert phi.value == pytest.approx(2.0 - math.exp(-1.0), abs=2e-2)

    def test_rejects_value_below_one(self):
        with pytest.raises(ValueError):
            ThermalFactor(value=0.5)

    def test_rejects_mode_count_mismatch(self, thermal_system, thermal_bath, small_propagator):
        thermal = ThermalSpec.for_system(1.0, thermal_system.omega_b)
        with pytest.raises(ValueError, match="mode count"):
            _channel(thermal_bath, thermal, small_propagator.evaluate(0.1))


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

    def test_large_label_in_its_default_basis(self):
        """|alpha| = 40: amplitudes from exp(-|alpha|^2 / 2) underflowed, so no n_max passed."""
        h = EffectiveHamiltonian(omega_b=5.0, gamma=GAMMA, n_th=0.5)
        rho, pre_trace = h.evolve_superposition(CoherentSuperposition(((1.0, 40.0j),)), 0.01)
        evo = h.evolve_coherent(40.0j, 0.01)
        assert rho.trace == pytest.approx(1.0, abs=1e-12)
        assert rho.fidelity_with_coherent(evo.label) == pytest.approx(1.0, abs=1e-8)
        assert rho.mean_number == pytest.approx(1600.0 * math.exp(-GAMMA * 0.01), rel=1e-9)
        assert 0.0 < pre_trace < 1.0

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
    def test_seed_reproducibility(self, thermal_bath, thermal_propagator):
        """The same seed gives the same moments, bit for bit; another seed does not."""
        occupations = ThermalSpec.for_system(2e-3, 800.0).occupations(thermal_bath)
        coeffs = thermal_propagator.evaluate(np.linspace(0.5, 2.0, 4))

        def moments(seed):
            mc, errors = monte_carlo_moments(1.0, occupations, coeffs, 32, seed)
            return np.stack([mc.mean_amplitude, mc.occupation, *errors])

        assert np.array_equal(moments(99), moments(99))
        assert not np.array_equal(moments(99), moments(100))

    def test_beta_zero_rejected(self, small_bath, small_propagator):
        coeffs = small_propagator.evaluate(1.0)
        hot = ThermalSpec(beta=0.0, n_th=0.0)
        with pytest.raises(InfiniteOccupationError, match="infinite occupation"):
            monte_carlo_moments(1.0, hot.occupations(small_bath), coeffs, 4, 0)

    def test_count_must_be_positive(self, small_bath, small_propagator):
        thermal = ThermalSpec.for_system(1.0, 10.0)
        coeffs = small_propagator.evaluate(1.0)
        with pytest.raises(ValueError, match="count must be at least 1"):
            monte_carlo_moments(1.0, thermal.occupations(small_bath), coeffs, 0, 0)

    def test_rejects_mode_count_mismatch(self, thermal_bath, small_propagator):
        thermal = ThermalSpec.for_system(2e-3, 800.0)
        coeffs = small_propagator.evaluate(1.0)
        with pytest.raises(ValueError, match="mode count"):
            monte_carlo_moments(1.0, thermal.occupations(thermal_bath), coeffs, 4, 0)


class TestBranchFactor:
    """The branch covariance factor L (L L^H = A diag(n / 2) A^H) and the rule that picks it."""

    @staticmethod
    def _weighted(propagator, bath, times):
        thermal = ThermalSpec.for_system(math.log(2.0) / 800.0, 800.0)
        scale = np.sqrt(thermal.occupations(bath) / 2.0)
        return propagator.evaluate(times).absorption * scale, scale

    def test_gram_factor_reproduces_a_singular_gram(self, thermal_bath, thermal_propagator):
        """t = 0 (a zero row), repeated and nearly repeated times, and a grid finer than K's rank."""
        times = np.concatenate(
            [[0.0, 1.0, 1.0, 1.0 + 1e-13, 2.0, 2.0 + 1e-9, 3.0, 3.0 + 1e-6], np.linspace(0, 5, 201)]
        )
        weighted, _ = self._weighted(thermal_propagator, thermal_bath, times)
        gram = weighted @ weighted.conj().T
        factor = thermal_module._gram_factor(weighted)
        # The factor stops at K's numerical rank: fewer columns than times.
        assert factor.shape[0] == times.size > factor.shape[1]
        scale = np.max(gram.diagonal().real)
        assert np.max(np.abs(factor @ factor.conj().T - gram)) <= 1e-12 * scale
        # The overflow bound of the config rests on |L_t|^2 <= K_tt.
        assert np.all(np.sum(np.abs(factor) ** 2, axis=1) <= gram.diagonal().real + 1e-12 * scale)

    def test_gram_factor_of_zero_has_no_columns(self):
        assert thermal_module._gram_factor(np.zeros((3, 4), complex)).shape == (3, 0)

    def test_many_samples_factor_the_gram(self, thermal_bath, thermal_propagator):
        times = np.linspace(0.0, 5.0, 21)
        assert thermal_module._rank(10_000, 800, times.size) == times.size
        weighted, scale = self._weighted(thermal_propagator, thermal_bath, times)
        absorption = thermal_propagator.evaluate(times).absorption
        factor = thermal_module._branch_factor(absorption, scale, 10_000)
        gram = weighted @ weighted.conj().T
        assert factor.shape == (times.size, times.size - 1)  # the row of t = 0 is zero
        assert np.max(np.abs(factor @ factor.conj().T - gram)) <= 1e-12 * np.max(gram.real)

    @pytest.mark.parametrize("count, n_times", [(21, 21), (10_000, 800), (10_000, 900)])
    def test_few_samples_or_long_grids_draw_directly(
        self, thermal_bath, thermal_propagator, count, n_times
    ):
        """No more samples than times cannot pay for the Gram; T >= N leaves nothing to save."""
        assert thermal_module._rank(count, 800, n_times) == 800
        times = np.linspace(0.0, 5.0, n_times)
        weighted, scale = self._weighted(thermal_propagator, thermal_bath, times)
        absorption = thermal_propagator.evaluate(times).absorption
        assert np.array_equal(thermal_module._branch_factor(absorption, scale, count), weighted)

    @pytest.mark.parametrize("threads", ["2", "4"])
    def test_same_bits_on_any_blas_thread_count(self, threads):
        """The factor and a block's product have the same bits on one BLAS thread and on more.

        Their inner dimensions, 500 for the Gram and 201 for the draws, are ones at
        which a single OpenBLAS product rounds differently with its thread count.
        OpenBLAS caps the count at the CPUs it finds.
        """
        script = (
            "import hashlib, numpy as np\n"
            "from boson_decay import propagator, thermal\n"
            "rng = np.random.default_rng(0)\n"
            "absorption = rng.standard_normal((201, 1000)).view(complex)\n"
            "factor = thermal._branch_factor(absorption, rng.random(500), 10**6)\n"
            "draws = rng.standard_normal((300, 402)).view(complex)\n"
            "branch = propagator._chunked_product(factor, draws.T, propagator._COMPLEX_TERMS)\n"
            "print(factor.shape, hashlib.sha256(factor.tobytes() + branch.tobytes()).hexdigest())\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "OPENBLAS_NUM_THREADS": count},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for count in ("1", threads)
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("(201, 201) ")

    def test_rule_sizes(self):
        """The Gram is factored for more samples than times, and only where T < N."""
        assert [thermal_module._rank(m, 800, 21) for m in (21, 22)] == [800, 21]
        assert [thermal_module._rank(10_000, n, 201) for n in (200, 202)] == [200, 201]
        assert thermal_module._rank(1, 1, 1) == 1


HALF_FILLED = ThermalSpec.for_system(math.log(2.0) / 800.0, 800.0)  # n_th = 1


class TestMonteCarloMoments:
    def test_time_zero_is_exact(self, thermal_bath, thermal_propagator):
        coeffs = thermal_propagator.evaluate(0.0)
        occupations = HALF_FILLED.occupations(thermal_bath)
        moments, _ = monte_carlo_moments(1.5, occupations, coeffs, 2000, 42)
        assert moments.mean_amplitude == pytest.approx(1.5, abs=1e-12)
        assert moments.occupation == pytest.approx(2.25, abs=1e-12)

    def test_matches_exact_moments_within_errors(self, thermal_bath, thermal_propagator):
        for t in (0.5, 2.0):
            coeffs = thermal_propagator.evaluate(t)
            occupations = HALF_FILLED.occupations(thermal_bath)
            mc, errors = monte_carlo_moments(1.0, occupations, coeffs, 2000, 42)
            exact = ThermalAttenuator.from_coefficients(coeffs, occupations)
            assert abs(mc.occupation - exact.occupation(1.0)) <= 3.0 * errors.occupation
            assert abs(mc.mean_amplitude - exact.survival) <= 3.0 * errors.mean_amplitude

    def test_vacuum_bath_limit(self, thermal_bath, thermal_propagator):
        cold = ThermalSpec.for_system(math.inf, 800.0)
        coeffs = thermal_propagator.evaluate(1.0)
        moments, _ = monte_carlo_moments(2.0, cold.occupations(thermal_bath), coeffs, 16, 3)
        assert moments.mean_amplitude == pytest.approx(2.0 * coeffs.survival, rel=1e-12)
        assert moments.occupation == pytest.approx(abs(2.0 * coeffs.survival) ** 2, rel=1e-12)

    @pytest.mark.parametrize("beta, alpha", [(math.inf, 3000 + 0.3j), (0.02, 1e5)])
    def test_large_alpha_keeps_the_moment_invariant(
        self, thermal_bath, thermal_propagator, beta, alpha
    ):
        """At large |alpha| the streamed mean of |x|^2 rounds below |mean(x)|^2.

        The occupation is |mean(x)|^2 plus the mean squared spread, so it
        cannot; its value still matches the exact moments.
        """
        thermal = ThermalSpec.for_system(beta, 800.0)
        coeffs = thermal_propagator.evaluate(np.linspace(0.0, 5.0, 21))
        mc, _ = monte_carlo_moments(alpha, thermal.occupations(thermal_bath), coeffs, 10_000, 7)
        assert np.all(mc.occupation >= np.abs(mc.mean_amplitude) ** 2)
        exact = _channel(thermal_bath, thermal, coeffs).occupation(alpha)
        np.testing.assert_allclose(mc.occupation, exact, rtol=1e-9)

    def test_standard_error_scales_as_inverse_sqrt(self, thermal_bath, thermal_propagator):
        occupations = HALF_FILLED.occupations(thermal_bath)
        coeffs = thermal_propagator.evaluate(1.0)
        scaled = []
        for count in (100, 1000, 10000):
            _, errors = monte_carlo_moments(1.0, occupations, coeffs, count, 7)
            scaled.append(errors.occupation * math.sqrt(count))
        assert max(scaled) / min(scaled) < 1.5


def _binomial_bounds(trials: int, p: float, tail: float) -> tuple[int, int]:
    """Smallest k_lo and largest k_hi with P(X < k_lo) <= tail and P(X > k_hi) <= tail."""
    pmf = [math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k) for k in range(trials + 1)]
    cdf = np.cumsum(pmf)
    return int(np.searchsorted(cdf, tail, side="right")), int(np.searchsorted(cdf, 1.0 - tail))


class TestSeedCalibration:
    """Over 200 fixed seeds the z-scores of the occupation are standard normal.

    A single seed's cells are correlated across t, so the seeds are the
    independent units: the bounds below hold for 200 draws whatever that
    correlation (the variance of a seed's mean z, or of its fraction of
    |z| > 2, is at most that of one cell).
    """

    SEEDS = range(1000, 1200)
    TAIL = 0.0005  # two-sided 99.9 %
    TWO_SIGMA = math.erfc(2.0 / math.sqrt(2.0))  # 4.55 %

    def test_z_scores_over_seeds(self):
        system = SystemMode(omega_b=20.0)
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=20.0, half_bandwidth=4.0)
        bath = discretize_bath(spec, 40)
        thermal = ThermalSpec.for_system(0.05, 20.0)
        coeffs = ExactPropagator(system, bath).evaluate(np.linspace(0.25, 5.0, 20))
        exact = _channel(bath, thermal, coeffs).occupation(0.7)
        assert thermal_module._rank(2000, bath.n_modes, 20) == 20
        z = []
        for seed in self.SEEDS:
            mc, errors = monte_carlo_moments(0.7, thermal.occupations(bath), coeffs, 2000, seed)
            z.append((mc.occupation - exact) / errors.occupation)
        z = np.array(z)
        units = len(self.SEEDS)
        quantile = 3.2905  # two-sided 99.9 % of a normal
        assert abs(z.mean()) <= quantile / math.sqrt(units)
        assert abs(z.std() - 1.0) <= quantile / math.sqrt(2 * units)
        low, high = _binomial_bounds(units, self.TWO_SIGMA, self.TAIL)
        assert low <= np.mean(np.abs(z) > 2.0) * units <= high


def _whole_array_moments(alpha, occupations, coeffs, count, seed):
    """Reference estimator: every branch from one (M, 2r) draw, with numpy's own reductions."""
    offsets = alpha * np.reshape(coeffs.survival, (-1, 1))
    absorption = coeffs.absorption.reshape(offsets.size, -1)
    scale = np.sqrt(occupations / 2.0)
    factor = thermal_module._branch_factor(absorption, scale, count)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((count, 2 * factor.shape[1])).view(complex)
    branch = factor @ draws.T + offsets
    mean = branch.mean(axis=1)
    occ = np.abs(branch) ** 2
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
        """One sample draws directly; a block's worth of samples factors the Gram."""
        thermal = ThermalSpec.for_system(math.log(2.0) / 800.0, 800.0)
        coeffs = thermal_propagator.evaluate(self.TIMES)
        size = self.TIMES.size
        count = 1 if offset is None else _block_rows(size, size) + offset
        assert thermal_module._rank(count, 800, size) == (800 if offset is None else size)
        self._check(1.0 - 0.5j, thermal.occupations(thermal_bath), coeffs, count, 17)

    def test_matches_whole_array_on_long_grid(self):
        """T > N: the draw is direct, and its block rows count the branch too."""
        system = SystemMode(omega_b=20.0)
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=20.0, half_bandwidth=4.0)
        bath = discretize_bath(spec, 20)
        thermal = ThermalSpec.for_system(0.05, 20.0)
        times = np.linspace(0.1, 4.0, 60)
        rows = _block_rows(bath.n_modes, times.size)
        assert rows < _block_rows(bath.n_modes, 1)
        assert thermal_module._rank(2 * rows + 3, bath.n_modes, times.size) == bath.n_modes
        coeffs = ExactPropagator(system, bath).evaluate(times)
        self._check(0.7, thermal.occupations(bath), coeffs, 2 * rows + 3, 3)

    @staticmethod
    def _check(*args):
        moments, errors = monte_carlo_moments(*args)
        mean, occupation, reference_errors = _whole_array_moments(*args)
        np.testing.assert_allclose(moments.mean_amplitude, mean, rtol=1e-13, atol=0)
        np.testing.assert_allclose(moments.occupation, occupation, rtol=1e-13, atol=0)
        np.testing.assert_allclose(np.stack(errors), reference_errors, rtol=1e-13, atol=0)

    def test_memory_stays_below_the_sample_array(self):
        """M=2e4, N=400: materialized, the samples alone would be 128 MB.

        One sample block is alive at a time: the peak stays under 1.75 blocks
        (holding the previous block during the next draw made it 2.5).
        """
        system = SystemMode(omega_b=800.0)
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=800.0, half_bandwidth=80.0)
        bath = discretize_bath(spec, 400)
        thermal = ThermalSpec.for_system(math.log(2.0) / 800.0, 800.0)
        coeffs = ExactPropagator(system, bath).evaluate(np.linspace(0.0, 5.0, 21))
        tracemalloc.start()
        try:
            monte_carlo_moments(1.0, thermal.occupations(bath), coeffs, 20_000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert peak < 1.75 * MC_BLOCK_BYTES
        assert peak <= monte_carlo_bytes(20_000, 400, 21)


class TestExactThermalMoments:
    def test_time_zero(self, thermal_bath, thermal_propagator):
        thermal = ThermalSpec.for_system(2e-3, 800.0)
        coeffs = thermal_propagator.evaluate(0.0)
        channel = _channel(thermal_bath, thermal, coeffs)
        assert (0.5 + 0.5j) * channel.survival == pytest.approx(0.5 + 0.5j, abs=1e-12)
        assert channel.occupation(0.5 + 0.5j) == pytest.approx(0.5, abs=1e-10)

    def test_equilibrates_to_resonant_occupation(self, thermal_bath, thermal_propagator):
        """With no drive the occupation relaxes toward n_th (within the 2% regime)."""
        thermal = ThermalSpec.for_system(math.log(2.0) / 800.0, 800.0)
        coeffs = thermal_propagator.evaluate(5.0)
        occupation = _channel(thermal_bath, thermal, coeffs).occupation(0.0)
        target = thermal.n_th * -math.expm1(-GAMMA * 5.0)
        assert abs(occupation - target) / target < 2e-2

    def test_zero_temperature_reduces_to_coherent_decay(self, thermal_bath, thermal_propagator):
        cold = ThermalSpec.for_system(math.inf, 800.0)
        coeffs = thermal_propagator.evaluate(1.0)
        occupation = _channel(thermal_bath, cold, coeffs).occupation(2.0)
        assert occupation == pytest.approx(abs(2.0 * coeffs.survival) ** 2, rel=1e-12)

    def test_zero_temperature_adds_no_noise(self, thermal_bath, thermal_propagator):
        """At beta = inf N is exactly 0, and the laws are |alpha u|^2 and n |u|^2 bit for bit."""
        times = np.linspace(0.0, 5.0, 21)
        coeffs = thermal_propagator.evaluate(times)
        channel = _channel(thermal_bath, ThermalSpec.for_system(math.inf, 800.0), coeffs)
        assert np.array_equal(channel.noise, np.zeros(times.size))
        assert np.array_equal(channel.phi_discrete().value, np.ones(times.size))
        alpha = 1.3 - 0.4j
        assert np.array_equal(channel.occupation(alpha), np.abs(alpha * coeffs.survival) ** 2)
        assert np.array_equal(channel.fock_mean(3), 3 * np.abs(coeffs.survival) ** 2)

    def test_occupation_dominates_mean_field(self, thermal_bath, thermal_propagator):
        thermal = ThermalSpec.for_system(1.5e-3, 800.0)
        for t in np.linspace(0.0, 4.0, 9):
            channel = _channel(thermal_bath, thermal, thermal_propagator.evaluate(t))
            assert channel.occupation(1.1) >= abs(1.1 * channel.survival) ** 2 - 1e-12

    def test_requires_oracle_coefficients(self, thermal_system, thermal_bath):
        from boson_decay import analytic_propagator

        thermal = ThermalSpec.for_system(2e-3, 800.0)
        coeffs = analytic_propagator(thermal_system, GAMMA, thermal_bath, 1.0)
        with pytest.raises(ValueError, match="oracle"):
            _channel(thermal_bath, thermal, coeffs)
