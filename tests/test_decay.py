"""Zero-temperature decay laws validated against the dense Fock-space oracle."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boson_decay import (
    CoherentState,
    CoherentSuperposition,
    DiscreteBath,
    EffectiveHamiltonian,
    ExactPropagator,
    FockSpaceOracle,
    FockState,
    ResourceLimitError,
    SpectralDensitySpec,
    SystemMode,
    ThermalSpec,
    TruncationError,
    basis_amplitudes,
    coherent_decay,
    coherent_decay_time,
    coherent_overlap,
    discretize_bath,
    excited_bath_evolution,
    fock_decay_time,
    fock_populations,
    fock_survival,
)
from boson_decay.decay import coherent_amplitudes, default_fock_cutoff

GAMMA = 1.0


def _full_fock_oracle(system, bath, initial, t, n_max=None):
    """The oracle's reduced state at ``t``, truncated at ``n_max``.

    ``n_max`` defaults to the excitation number of a Fock input and to a
    Poisson-tail-safe cutoff for coherent inputs.
    """
    if n_max is None:
        if isinstance(initial, FockState):
            n_max = initial.n
        elif isinstance(initial, CoherentState):
            n_max = default_fock_cutoff(abs(initial.alpha))
        else:
            n_max = default_fock_cutoff(max(abs(a) for _, a in initial.terms))
    return FockSpaceOracle(system, bath, n_max).reduced_density(initial, t)


def _ground_state_invariance_check(system, bath, t) -> bool:
    """Whether the joint vacuum is a fixed point of the evolution at ``t``."""
    rho = FockSpaceOracle(system, bath, n_max=1).reduced_density(FockState(0), t)
    return bool(abs(rho.populations[0] - 1.0) <= 1e-10 and rho.max_offdiagonal() <= 1e-10)


class TestFockPopulations:
    def test_initial_state_retained_at_unit_survival(self):
        dist = fock_populations(3, 1.0)
        assert dist.probs == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-15)

    def test_single_excitation_half_survival(self):
        dist = fock_populations(1, 0.5)
        assert dist.probs == pytest.approx([0.5, 0.5], rel=1e-15)

    def test_two_excitations_at_e_folding(self):
        p = math.exp(-1.0)
        dist = fock_populations(2, p)
        assert dist.probs[2] == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert dist.probs[1] == pytest.approx(2 * p * (1 - p), rel=1e-14)
        assert dist.probs[0] == pytest.approx((1 - p) ** 2, rel=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 5, 17, 40])
    def test_normalization_mean_and_variance(self, n):
        rng = np.random.default_rng(13 + n)
        for p in rng.uniform(0.0, 1.0, size=4):
            dist = fock_populations(n, p)
            assert np.all(dist.probs >= 0) and np.all(dist.probs <= 1)
            assert float(np.sum(dist.probs)) == pytest.approx(1.0, abs=1e-12)
            assert dist.mean == pytest.approx(n * p, abs=1e-10)
            assert dist.variance == pytest.approx(n * p * (1 - p), abs=1e-10)

    def test_matches_exact_rational_binomials(self):
        """Log-space law against exact rational arithmetic at n = 60, to 1e-13 relative."""
        n = 60
        survivals = [0.0, 0.01, 0.1, 0.37, 0.5, 0.93, 1.0]
        probs = fock_populations(n, np.array(survivals)).probs
        for row, p in zip(probs, survivals):
            q = Fraction(p)
            exact = [float(math.comb(n, m) * q**m * (1 - q) ** (n - m)) for m in range(n + 1)]
            assert np.allclose(row, exact, rtol=1e-13, atol=0.0)

    def test_rejects_bad_survival(self):
        with pytest.raises(ValueError):
            fock_populations(2, 1.2)
        with pytest.raises(ValueError):
            fock_populations(2, -0.1)


class TestFockSurvival:
    def test_ground_state_never_decays(self):
        for t in (0.0, 1.0, 50.0):
            assert fock_survival(0, GAMMA, t) == 1.0
        assert fock_decay_time(0, GAMMA) == math.inf

    def test_two_excitation_survival(self):
        assert fock_survival(2, GAMMA, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_decay_time_scales_inversely_with_n(self):
        assert fock_decay_time(5, 1.0) == pytest.approx(0.2, rel=1e-15)

    def test_population_law_consistency(self):
        """The top population of the binomial law is the survival probability."""
        for n in (1, 2, 4):
            for t in (0.2, 1.5):
                p = math.exp(-GAMMA * t)
                assert fock_populations(n, p).probs[-1] == pytest.approx(
                    fock_survival(n, GAMMA, t), rel=1e-12
                )


class TestCoherentDecay:
    def test_identity_at_unit_survival(self):
        label, mean = coherent_decay(0.7 + 0.2j, 1.0)
        assert label == pytest.approx(0.7 + 0.2j)
        assert mean == pytest.approx(abs(0.7 + 0.2j) ** 2)

    def test_mean_number_at_e_folding(self):
        u = math.sqrt(math.exp(-1.0))
        _, mean = coherent_decay(2.0, u)
        assert mean == pytest.approx(4 * math.exp(-1.0), rel=1e-14)

    def test_mean_number_phase_independent(self):
        u = 0.3 - 0.4j
        means = [coherent_decay(a, u)[1] for a in (2.0, -2.0, 2.0j, 1.2 + 1.6j)]
        assert means == pytest.approx([means[0]] * 4, rel=1e-14)

    def test_decay_time(self):
        assert coherent_decay_time(2.0) == pytest.approx(0.5)


class TestCoherentOverlap:
    def test_matches_number_basis_sum(self):
        """Brute-force overlap from number-basis amplitudes agrees with the formula."""
        a, b = 0.8 + 0.3j, -0.5 + 1.1j
        ca = coherent_amplitudes(a, 60)
        cb = coherent_amplitudes(b, 60)
        brute = np.vdot(ca, cb)
        assert coherent_overlap(a, b) == pytest.approx(brute, rel=1e-12)

    def test_unit_norm(self):
        assert coherent_overlap(1.3j, 1.3j) == pytest.approx(1.0, rel=1e-14)

    def test_superposition_norm(self):
        cat = CoherentSuperposition(((1.0, 2.0), (1.0, -2.0)))
        expected = math.sqrt(2.0 + 2.0 * math.exp(-8.0))
        assert cat.norm() == pytest.approx(expected, rel=1e-12)

    def test_rejects_null_superposition(self):
        with pytest.raises(ValueError, match="positive norm"):
            CoherentSuperposition(((1.0, 0.5), (-1.0, 0.5)))

    def test_superposition_rejects_a_label_whose_square_is_past_float64(self):
        """|1e200|^2 overflows: a ValueError names the label, not a bare OverflowError."""
        with pytest.raises(ValueError, match=r"label \(1e\+200\+0j\) is too large"):
            CoherentSuperposition(((1, 1e200),))

    def test_fock_cutoff_rejects_a_label_whose_square_is_past_float64(self):
        with pytest.raises(ValueError, match=r"label scale 1e\+200 is too large"):
            default_fock_cutoff(1e200)


class TestExcitedBathEvolution:
    def test_vacuum_bath_reduces_to_plain_decay(self, small_propagator, small_bath):
        coeffs = small_propagator.evaluate(0.8)
        labels = excited_bath_evolution(1.5, np.zeros(small_bath.n_modes), small_propagator, 0.8)
        assert labels.system_label == pytest.approx(1.5 * coeffs.survival, rel=1e-14)
        assert np.allclose(labels.bath_labels, 1.5 * coeffs.absorption, atol=1e-14)

    def test_identity_at_time_zero(self, small_propagator):
        lambdas = np.array([0.0, 0.4 - 0.1j, 0.0])
        labels = excited_bath_evolution(0.0, lambdas, small_propagator, 0.0)
        assert labels.system_label == pytest.approx(0.0, abs=1e-13)
        assert np.allclose(labels.bath_labels, lambdas, atol=1e-13)

    def test_norm_conserved_with_full_block(self, small_propagator, small_bath):
        thermal = ThermalSpec.for_system(0.05, 10.0)
        scale = np.sqrt(thermal.occupations(small_bath) / 2.0)
        lambdas = np.random.default_rng(5).standard_normal(2 * small_bath.n_modes).view(complex)
        lambdas *= scale
        labels = excited_bath_evolution(1.0, lambdas, small_propagator, 1.7)
        before = 1.0 + float(np.sum(np.abs(lambdas) ** 2))
        assert labels.total_norm_sq() == pytest.approx(before, abs=1e-10)

    @pytest.mark.parametrize("excited", ["one", "all"])
    @pytest.mark.parametrize("n_modes", [3, 40])
    def test_grid_labels_match_unitary(self, small_system, n_modes, excited):
        """Joint labels on a grid equal unitary(t) @ [alpha, lambdas] and keep their norm."""
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=10.0, half_bandwidth=2.0)
        propagator = ExactPropagator(small_system, discretize_bath(spec, n_modes))
        rng = np.random.default_rng(n_modes)
        lambdas = rng.normal(0.0, 0.5, n_modes) + 1j * rng.normal(0.0, 0.5, n_modes)
        if excited == "one":
            lambdas[np.arange(n_modes) != n_modes // 2] = 0.0
        alpha = 0.7 - 0.3j
        times = np.linspace(0.0, 6.0, 13)
        labels = excited_bath_evolution(alpha, lambdas, propagator, times)
        assert labels.system_label.shape == times.shape
        assert labels.bath_labels.shape == times.shape + (n_modes,)
        joint = np.concatenate(([alpha], lambdas))
        for i, t in enumerate(times):
            expected = propagator.unitary(t) @ joint
            assert abs(labels.system_label[i] - expected[0]) <= 1e-13
            assert np.max(np.abs(labels.bath_labels[i] - expected[1:])) <= 1e-13
        norm_sq = float(np.sum(np.abs(joint) ** 2))
        assert np.max(np.abs(labels.total_norm_sq() - norm_sq)) <= 1e-12

    def test_rejects_wrong_length(self, small_propagator):
        with pytest.raises(ValueError):
            excited_bath_evolution(0.0, np.zeros(2), small_propagator, 0.5)


@st.composite
def norm_runs(draw):
    """A random bath of at most three modes, a Fock or coherent input with k <= 4, a few times.

    Returns the oracle, the input, the times, and the input's norm kept by
    the truncation at n_max: 1 for a Fock state, the Poisson weight of
    k <= n_max (within 1e-6 of 1) for a coherent state.
    """
    finite = dict(allow_nan=False, allow_infinity=False)
    omega_b = draw(st.floats(5.0, 20.0, **finite))
    spec = SpectralDensitySpec(
        gamma=draw(st.floats(0.2, 2.0, **finite)),
        band_center=omega_b + draw(st.floats(-1.0, 1.0, **finite)),
        half_bandwidth=draw(st.floats(0.5, 4.0, **finite)),
    )
    bath = discretize_bath(spec, draw(st.integers(1, 3)))
    if draw(st.booleans()):
        n_max = draw(st.integers(0, 4))
        initial, kept = FockState(draw(st.integers(0, n_max))), 1.0
    else:
        part = st.floats(-0.25, 0.25, **finite)
        n_max, label = 4, complex(draw(part), draw(part))
        initial = CoherentState(label)
        kept = float(np.sum(np.abs(coherent_amplitudes(label, n_max)) ** 2))
    times = np.array(draw(st.lists(st.floats(0.0, 10.0, **finite), min_size=1, max_size=4)))
    return FockSpaceOracle(SystemMode(omega_b), bath, n_max), initial, times, kept


@settings(max_examples=100, deadline=None)
@given(norm_runs())
def test_oracle_conserves_norm(run):
    """The reduced state keeps the input's norm to 1e-12; no population is below -1e-15."""
    oracle, initial, times, kept = run
    rho = oracle.reduced_density(initial, times)
    assert np.max(np.abs(rho.trace - kept)) <= 1e-12
    assert np.min(rho.populations) >= -1e-15


class TestFockSpaceOracle:
    def test_initial_state_reproduced_at_time_zero(self, small_system, small_bath):
        rho = _full_fock_oracle(small_system, small_bath, FockState(2), 0.0)
        expected = np.zeros((3, 3))
        expected[2, 2] = 1.0
        assert np.allclose(rho.entries, expected, atol=1e-14)

        rho_c = _full_fock_oracle(small_system, small_bath, CoherentState(0.8), 0.0)
        amps = coherent_amplitudes(0.8, rho_c.dim - 1)
        assert np.allclose(rho_c.entries, np.outer(amps, amps.conj()), atol=1e-12)

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_populations_follow_binomial_law(self, small_system, n_modes, n):
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=10.0, half_bandwidth=2.0)
        bath = discretize_bath(spec, n_modes)
        propagator = ExactPropagator(small_system, bath)
        oracle = FockSpaceOracle(small_system, bath, n_max=n)
        for t in np.linspace(0.0, 4.0, 6):
            survived = abs(propagator.evaluate(t).survival) ** 2
            law = fock_populations(n, min(survived, 1.0))
            rho = oracle.reduced_density(FockState(n), t)
            assert np.max(np.abs(rho.populations - law.probs)) < 1e-8

    def test_fock_input_builds_one_sector(self, small_system, small_bath):
        """A Fock state occupies one excitation sector, so only that one is diagonalized."""
        oracle = FockSpaceOracle(small_system, small_bath, n_max=4)
        assert not oracle._sectors
        oracle.reduced_density(FockState(3), [0.0, 1.0])
        oracle.reduced_density(FockState(3), 2.0)
        assert list(oracle._sectors) == [3]

    def test_fock_reduced_state_is_diagonal(self, small_system, small_bath):
        rho = _full_fock_oracle(small_system, small_bath, FockState(3), 1.3)
        assert rho.max_offdiagonal() < 1e-10
        assert rho.trace == pytest.approx(1.0, abs=1e-10)

    def test_coherent_state_stays_coherent(self, small_system, small_bath, small_propagator):
        t = 0.9
        label = 1.0 * small_propagator.evaluate(t).survival
        rho = _full_fock_oracle(small_system, small_bath, CoherentState(1.0), t)
        assert rho.trace == pytest.approx(1.0, abs=1e-8)
        assert rho.purity >= 1.0 - 1e-6
        assert rho.fidelity_with_coherent(label) >= 1.0 - 1e-6
        assert rho.mean_number == pytest.approx(abs(label) ** 2, abs=1e-6)

    def test_reduced_matrix_is_physical(self, small_system, small_bath):
        rho = _full_fock_oracle(small_system, small_bath, CoherentState(0.9 + 0.4j), 1.1)
        assert np.max(np.abs(rho.entries - rho.entries.conj().T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(rho.entries)) > -1e-8

    def test_superposition_initial_state(self, small_system, small_bath):
        cat = CoherentSuperposition(((1.0, 1.2), (1.0, -1.2)))
        rho = _full_fock_oracle(small_system, small_bath, cat, 0.0)
        amps = coherent_amplitudes(1.2, rho.dim - 1) + coherent_amplitudes(-1.2, rho.dim - 1)
        amps = amps / np.linalg.norm(amps)
        assert np.allclose(rho.entries, np.outer(amps, amps.conj()), atol=1e-10)

    def test_ground_state_invariance(self, small_system, small_bath, rabi_pair):
        assert _ground_state_invariance_check(small_system, small_bath, 3.0)
        system, bath = rabi_pair
        t_half_rabi = math.pi / (2.0 * math.sqrt(2.0))
        assert _ground_state_invariance_check(system, bath, t_half_rabi)
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=9.0, half_bandwidth=3.0)
        random_bath = DiscreteBath(
            omegas=np.array([7.1, 9.3, 11.2]),
            xis=np.array([0.21, 0.05, 0.33]),
            spec=spec,
        )
        assert _ground_state_invariance_check(SystemMode(9.0), random_bath, 3.0 / GAMMA)

    def test_rejects_oversized_bath(self, small_system):
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=10.0, half_bandwidth=2.0)
        bath = discretize_bath(spec, 5)
        with pytest.raises(ResourceLimitError, match="at most 4"):
            FockSpaceOracle(small_system, bath, n_max=1)

    def test_sector_bytes_checks_the_mode_limit_before_the_sector(self):
        """C(2 * 10^7, 10^7) is never formed: the 4-mode limit is checked first."""
        with pytest.raises(ResourceLimitError, match=r"at most 4 bath modes \(got 10000000\)"):
            FockSpaceOracle.sector_bytes(10_000_000, 10_000_000, 3)
        assert FockSpaceOracle.sector_bytes(4, 11, 201) == (
            40 * 1365 * (1365 + 201) + 16 * 12 * (1365 + 201 * 12)
        )

    @pytest.mark.parametrize(
        "n_modes, k, n_times", [(4, 6, 201), (4, 10, 201), (3, 8, 51), (2, 12, 1001)]
    )
    def test_sector_bytes_bound_the_traced_peak(self, n_modes, k, n_times):
        """The stated size is at least the peak that ``reduced_density`` allocates."""
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=100.0, half_bandwidth=20.0)
        oracle = FockSpaceOracle(SystemMode(100.0), discretize_bath(spec, n_modes), n_max=k)
        times = np.linspace(0.0, 5.0, n_times)
        tracemalloc.start()
        try:
            oracle.reduced_density(FockState(k), times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= FockSpaceOracle.sector_bytes(n_modes, k, n_times)

    def test_truncation_defect_is_surfaced(self, small_system, small_bath):
        with pytest.raises(TruncationError, match="raise n_max"):
            _full_fock_oracle(small_system, small_bath, CoherentState(1.0), 0.5, n_max=2)

    def test_fock_state_beyond_truncation_rejected(self, small_system, small_bath):
        with pytest.raises(ValueError, match="cannot represent"):
            FockSpaceOracle(small_system, small_bath, n_max=2).reduced_density(FockState(3), 0.1)

    @pytest.mark.parametrize("alpha", [1.0, 40.0, 100.0, 30.0 - 20.0j])
    def test_default_cutoff_covers_poisson_tail(self, alpha):
        """Past |alpha| = 38.6 a recurrence from exp(-|alpha|^2 / 2) underflowed to all zeros."""
        assert default_fock_cutoff(1.0) >= 17
        amps = coherent_amplitudes(alpha, default_fock_cutoff(abs(alpha)))
        assert 0.0 <= 1.0 - float(np.sum(np.abs(amps) ** 2)) < 1e-9


class TestBasisAmplitudes:
    """Every state answers ``amplitudes(n_max)`` and ``norm()``; one rule truncates them."""

    def test_each_state_in_the_number_basis(self):
        fock = FockState(2).amplitudes(4)
        assert np.array_equal(fock, [0, 0, 1, 0, 0]) and fock.dtype == complex
        label = 0.3 - 0.2j
        assert np.array_equal(CoherentState(label).amplitudes(8), coherent_amplitudes(label, 8))
        cat = CoherentSuperposition(((1.0, 1.5), (1.0, -1.5)))
        amps = basis_amplitudes(cat, default_fock_cutoff(1.5))
        assert np.allclose(amps, cat.amplitudes(default_fock_cutoff(1.5)) / cat.norm(), rtol=1e-15)
        assert float(np.sum(np.abs(amps) ** 2)) == pytest.approx(1.0, abs=1e-9)
        assert np.all(amps[1::2] == 0)  # the even cat has no odd levels

    def test_coherent_amplitudes_recurrence_and_phase(self):
        """<m|alpha> = <m-1|alpha> alpha / sqrt(m), with <0|alpha> = exp(-|alpha|^2 / 2)."""
        for alpha in (0.0, 0.8 + 0.3j, -2.0, 5.0j):
            amps = coherent_amplitudes(alpha, 40)
            assert amps[0] == pytest.approx(math.exp(-0.5 * abs(alpha) ** 2), rel=1e-15)
            recurrence = amps[:-1] * alpha / np.sqrt(np.arange(1, 41))
            np.testing.assert_allclose(amps[1:], recurrence, rtol=1e-13, atol=1e-300)

    def test_one_truncation_rule_for_both_callers(self, small_system, small_bath):
        """The oracle and the effective Hamiltonian reject a too-small basis with one error."""
        state = CoherentSuperposition(((1.0, 2.0),))
        oracle = FockSpaceOracle(small_system, small_bath, n_max=3)
        heff = EffectiveHamiltonian(omega_b=5.0, gamma=GAMMA, n_th=0.0)
        messages = []
        for run in (
            lambda: oracle.reduced_density(state, 0.1),
            lambda: heff.evolve_superposition(state, 0.01, n_max=3),
        ):
            with pytest.raises(TruncationError, match="raise n_max") as error:
                run()
            messages.append(str(error.value))
        assert messages[0] == messages[1]
        assert issubclass(TruncationError, ValueError)
