"""Closed-form coefficients against the exact finite-bath propagator."""

import dataclasses
import math
import os
import subprocess
import sys
import threading
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
from boson_decay import propagator

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


EPS = np.finfo(float).eps
SPECTRUM_ARRAYS = ("roots", "origin", "tau", "c_hat", "inv_norm")


def _all_poles_secular_block(apex, poles, sq_couplings, ks, lower, upper, workspace):
    """The secular solver that sums every step over all N poles: the reference.

    A copy of the solver as it was before the far field and the settle rule,
    so every root block holds (k, N) per-pole terms in ``workspace``.
    """
    m = poles.size
    neg_sq = -sq_couplings
    bottom, top = ks == 0, ks == m
    below = poles[np.maximum(ks - 1, 0)]
    above = poles[np.minimum(ks, m - 1)]
    half_gap = 0.5 * (above - below)
    origin = np.clip(ks - 1, 0, m - 1)
    lo = np.where(bottom, lower - poles[0], 0.0)
    hi = np.where(top, upper - poles[-1], np.where(bottom, 0.0, half_gap))
    x = np.where(bottom, 0.5 * lo, np.where(top, 0.5 * hi, half_gap))
    tau = np.empty(ks.size)
    active = np.arange(ks.size)
    # Pole j is left of root k for j < k; only columns ks[0] <= j < ks[-1] differ by row.
    band = slice(ks[0], ks[-1])
    band_left = np.arange(ks[0], ks[-1]) < ks[:, None]
    for step in range(propagator._MAX_ROOT_STEPS):
        k, o = ks[active], origin[active]
        is_bottom, is_top = bottom[active], top[active]
        inv = propagator._pole_gaps(poles, o, x, out=workspace[0][: k.size])
        np.divide(1.0, inv, out=inv)  # 1 / (x - delta_j)
        terms = np.multiply(neg_sq, inv, out=workspace[1][: k.size])  # c_j^2 / (delta_j - x)
        inv *= terms  # minus the slope of each term
        left_mask = band_left[active]
        total, slope = terms.sum(axis=1), -inv.sum(axis=1)
        # Keep only the poles left of each root; terms and inv are not read after this.
        terms[:, band] *= left_mask
        inv[:, band] *= left_mask
        psi = terms[:, : band.start].sum(axis=1) + terms[:, band].sum(axis=1)
        psi_slope = -inv[:, : band.start].sum(axis=1) - inv[:, band].sum(axis=1)
        shift = poles[o] - apex
        g = shift + x + total
        rounding = np.abs(shift) + np.abs(x) + (total - 2.0 * psi)
        done = np.abs(g) <= 8.0 * EPS * rounding
        if step == 0:
            # g < 0 at the midpoint: the root lies nearer the upper pole.
            flip = ~(is_bottom | is_top) & (g < 0)
            origin[active[flip]] = k[flip]
            o = origin[active]
            x[flip] -= 2.0 * half_gap[active[flip]]
            lo[flip], hi[flip] = x[flip], 0.0
        hi = np.where(g > 0, x, hi)
        lo = np.where(g > 0, lo, x)

        p = np.where(is_bottom, 0.0, below[active] - poles[o] - x)
        q = np.where(is_top, 0.0, above[active] - poles[o] - x)
        g_slope = 1.0 + slope
        outer = is_bottom | is_top
        s = p + q  # an outer root has one bracket pole, at s
        c = np.where(outer, 1.0, g - psi_slope * p - (slope - psi_slope + 1.0) * q)
        a = np.where(outer, s * g_slope - g, s * g - p * q * g_slope)
        b = np.where(outer, -g * s, p * q * g)
        w = a + np.copysign(np.sqrt(np.maximum(a * a - 4.0 * c * b, 0.0)), a)
        with np.errstate(divide="ignore", invalid="ignore"):
            near, far = 2.0 * b / w, w / (2.0 * c)
        p = np.where(is_bottom, -np.inf, p)
        q = np.where(is_top, np.inf, q)
        nxt = x + np.where((p < near) & (near < q), near, far)
        nxt = np.where((lo < nxt) & (nxt < hi), nxt, 0.5 * (lo + hi))
        done |= (nxt == x) | (hi - lo <= 4.0 * EPS * np.maximum(np.abs(lo), np.abs(hi)))
        tau[active[done]] = x[done]
        keep = ~done
        active, x, lo, hi = active[keep], nxt[keep], lo[keep], hi[keep]
        if active.size == 0:
            break
    tau[active] = x
    return origin, tau


def _dense_residuals(system, bath, spectrum):
    """|g(tau_k)| / (eps rounding_k) of every root, with g summed over all N poles.

    g is the solver's secular function in its power-of-two scale and
    rounding_k = |omega_o - apex| + |tau_k| + sum_j |c_j^2 / (delta_j - tau_k)|
    the bound it stops at 8 eps of. No pole may be deflated.
    """
    assert spectrum.bath_rows.size == bath.n_modes and not spectrum.rotations
    apex, omegas, xis = system.omega_b, bath.omegas, bath.xis
    scale = max(abs(apex), abs(omegas[0]), abs(omegas[-1])) + float(np.linalg.norm(xis))
    factor = np.ldexp(1.0, -np.frexp(scale)[1])
    sq = (xis * factor) ** 2
    residuals = []
    for ks in np.array_split(np.arange(spectrum.roots.size), max(1, spectrum.roots.size // 256)):
        origin, tau = spectrum.origin[ks], spectrum.tau[ks]
        terms = -sq / propagator._pole_gaps(spectrum.poles, origin, tau)
        shift = spectrum.poles[origin] - apex * factor
        g = shift + tau + terms.sum(axis=1)
        rounding = np.abs(shift) + np.abs(tau) + np.abs(terms).sum(axis=1)
        residuals.append(np.abs(g) / (EPS * rounding))
    return np.concatenate(residuals)


def _assert_loewner_couplings(spectrum):
    """c_hat_j^2 = prod_k |lambda_k - omega_j| / prod_{i != j} |omega_i - omega_j| within (N+1) eps.

    The reference sums the logarithms of every factor in extended precision,
    with no pairing of roots to poles and no root blocks.
    """
    d = spectrum.poles
    log_roots = np.zeros(d.size, dtype=np.longdouble)
    for ks in propagator._root_blocks(d.size + 1):
        gaps = propagator._pole_gaps(d, spectrum.origin[ks], spectrum.tau[ks])
        log_roots += np.log(np.abs(gaps).astype(np.longdouble)).sum(axis=0)
    spacing = np.abs(d[:, None] - d)
    np.fill_diagonal(spacing, 1.0)
    log_poles = np.log(spacing.astype(np.longdouble)).sum(axis=0)
    expected = np.exp(0.5 * (log_roots - log_poles)).astype(float)
    assert np.max(np.abs(spectrum.c_hat - expected) / expected) <= (d.size + 1) * EPS


def _spectrum_with(monkeypatch, block, system, bath):
    """The spectrum of (system, bath) with ``block`` as the secular solver."""
    with monkeypatch.context() as patch:
        patch.setattr(propagator, "_secular_block", block)
        return ExactPropagator(system, bath).spectrum


def _warped_bath(n, seed, power, jitter):
    """n poles on a power-law grid of [0, 10], each moved by up to ``jitter`` of a cell.

    Couplings scale with the root of the local spacing, times a random factor in [e^-2, e].
    """
    rng = np.random.default_rng(seed)
    omegas = 10.0 * ((np.arange(n) + 0.5 + jitter * rng.uniform(-1.0, 1.0, n)) / n) ** power
    xis = np.sqrt(np.gradient(omegas)) * np.exp(rng.uniform(-2.0, 1.0, n))
    return _bath(omegas, xis)


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

    def test_decomposition_memory_is_its_per_mode_budget(self, wwa_system, wwa_bath):
        """Traced peak of the N = 2000 decomposition is at most 2 * 8 * 128 (N+1) bytes + 1 MiB."""
        tracemalloc.start()
        try:
            ExactPropagator(wwa_system, wwa_bath)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * 128 * (wwa_bath.n_modes + 1) + 2**20

    @pytest.mark.parametrize("n_modes", [1, 2, 129, 257, 2000, 4000])
    def test_solve_starts_no_thread(self, monkeypatch, n_modes, wwa_system):
        """With ``Thread.start`` raising, the spectrum is built with the same bits as before."""
        bath = discretize_bath(SpectralDensitySpec(GAMMA, 100.0, 20.0), n_modes)
        reference = ExactPropagator(wwa_system, bath).spectrum

        def start(thread):
            raise AssertionError("the solve started a thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        spectrum = ExactPropagator(wwa_system, bath).spectrum
        for name in SPECTRUM_ARRAYS:
            assert np.array_equal(getattr(spectrum, name), getattr(reference, name)), name

    @pytest.mark.parametrize("n_modes", [1, 2, 127, 128, 129, 255, 256, 257, 383, 384, 385, 1000, 2000])
    def test_loewner_couplings_match_the_product_over_all_roots(self, n_modes, wwa_system):
        """c_hat_j^2 = prod_k |lambda_k - omega_j| / prod_{i != j} |omega_i - omega_j| within (N+1) eps.

        Root counts around multiples of 128 end the last block at or just
        past a pole; from 384 modes the far poles take their factors from
        the blocks' log kernel.
        """
        bath = discretize_bath(SpectralDensitySpec(GAMMA, 100.0, 20.0), n_modes)
        _assert_loewner_couplings(ExactPropagator(wwa_system, bath).spectrum)

    @settings(max_examples=6, deadline=None)
    @given(
        st.integers(600, 1200),
        st.integers(0, 2**32 - 1),
        st.floats(0.3, 3.0),
        st.floats(0.0, 0.45),
        st.floats(0.1, 12.0),
    )
    def test_nonuniform_loewner_couplings_match_the_product_over_all_roots(
        self, n, seed, power, jitter, omega_b
    ):
        """Unevenly spaced poles, some far sides joined to the near band: the same (N+1) eps bound."""
        bath = _warped_bath(n, seed, power, jitter)
        _assert_loewner_couplings(ExactPropagator(SystemMode(omega_b), bath).spectrum)

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


class TestSecularFarField:
    """Near band summed per pole, far poles from their Chebyshev interpolant, against all poles."""

    @pytest.mark.parametrize("n_modes", [2000, 4000])
    def test_wwa_roots_solve_the_dense_secular_equation(self, n_modes, wwa_system):
        """Every root within 16 eps rounding, twice the solver's own stopping bound."""
        bath = discretize_bath(SpectralDensitySpec(GAMMA, 100.0, 20.0), n_modes)
        spectrum = ExactPropagator(wwa_system, bath).spectrum
        assert np.max(_dense_residuals(wwa_system, bath, spectrum)) <= 16.0

    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(600, 1200),
        st.integers(0, 2**32 - 1),
        st.floats(0.3, 3.0),
        st.floats(0.0, 0.45),
        st.floats(0.1, 12.0),
    )
    def test_nonuniform_roots_solve_the_dense_secular_equation(
        self, n, seed, power, jitter, omega_b
    ):
        """Unevenly spaced poles, some far sides too near to interpolate: roots as dense eigh."""
        system, bath = SystemMode(omega_b), _warped_bath(n, seed, power, jitter)
        spectrum = ExactPropagator(system, bath).spectrum
        assert np.max(_dense_residuals(system, bath, spectrum)) <= 16.0
        h = _single_particle_hamiltonian(system, bath)
        lam = np.linalg.eigvalsh(h)
        assert np.max(np.abs(spectrum.eigenvalues - lam)) <= 1e-13 * np.max(np.abs(lam))

    @pytest.mark.parametrize("n_modes", [1, 128, 129, 256, 300, 383])
    def test_baths_of_at_most_383_modes_keep_the_all_poles_bits(
        self, monkeypatch, n_modes, wwa_system
    ):
        """Three root blocks or fewer: every near band holds every pole."""
        bath = discretize_bath(SpectralDensitySpec(GAMMA, 100.0, 20.0), n_modes)
        spectrum = ExactPropagator(wwa_system, bath).spectrum
        reference = _spectrum_with(monkeypatch, _all_poles_secular_block, wwa_system, bath)
        for name in SPECTRUM_ARRAYS:
            assert np.array_equal(getattr(spectrum, name), getattr(reference, name)), name

    def test_nonuniform_bath_of_383_modes_keeps_the_all_poles_bits(self, monkeypatch):
        system, bath = SystemMode(4.0), _warped_bath(383, 7, 2.0, 0.3)
        spectrum = ExactPropagator(system, bath).spectrum
        reference = _spectrum_with(monkeypatch, _all_poles_secular_block, system, bath)
        for name in SPECTRUM_ARRAYS:
            assert np.array_equal(getattr(spectrum, name), getattr(reference, name)), name

    def test_interpolated_sums_match_the_far_poles(self):
        """Within 8 eps of each one-signed far sum, over the block's bracket interval."""
        bath = discretize_bath(SpectralDensitySpec(GAMMA, 100.0, 20.0), 1000)
        poles, sq = bath.omegas, bath.xis**2
        workspace = (np.empty((128, 1000)), np.empty((128, 1000)))
        ks = np.arange(384, 512)
        columns, sums = propagator._far_sums(poles, sq, ks, workspace)
        assert columns == slice(ks[0] - 129, ks[-1] + 129)
        origin = ks - 1
        tau = np.random.default_rng(1).uniform(0.0, 1.0, ks.size) * (poles[ks] - poles[origin])
        gaps = -propagator._pole_gaps(poles, origin, tau)
        far = np.arange(1000) < columns.start, np.arange(1000) >= columns.stop
        exact = np.stack(
            [np.sum(np.where(side, sq / gaps**power, 0.0), axis=1) for side in far for power in (1, 2)],
            axis=1,
        )
        assert np.max(np.abs(sums(origin, tau) - exact) / np.abs(exact)) <= 8 * EPS

    def test_interpolant_takes_a_node_value_on_the_node(self):
        """lambda exactly on a Chebyshev node of [omega_383, omega_511] = [383, 511]."""
        poles, sq = np.arange(1000.0), np.ones(1000)
        workspace = (np.empty((128, 1000)), np.empty((128, 1000)))
        _, sums = propagator._far_sums(poles, sq, np.arange(384, 512), workspace)
        tau = 64.0 * propagator._NODES[3:4]  # from pole 447, the interval's midpoint
        gaps = poles - (447.0 + tau)
        exact = [np.sum(1.0 / gaps[side] ** power) for side in (slice(0, 255), slice(640, None))
                 for power in (1, 2)]
        np.testing.assert_allclose(sums(np.array([447]), tau)[0], exact, rtol=8 * EPS, atol=0.0)

    def test_outer_roots_and_near_far_sides_are_summed_per_pole(self):
        """Roots 0 and N sum all poles, the rest of their blocks take a far side; a near far side joins."""
        poles, sq = np.arange(1000.0), np.ones(1000)
        workspace = (np.empty((128, 1000)), np.empty((128, 1000)))
        tiles = propagator._root_tiles(poles)
        assert [(ks[0], ks[-1]) for ks in tiles[:2] + tiles[-1:]] == [(0, 1000), (1, 127), (896, 999)]
        assert propagator._far_sums(poles, sq, tiles[0], workspace) == (slice(0, 1000), None)
        for ks, near in ((tiles[1], slice(0, 256)), (tiles[-1], slice(767, 1000))):
            columns, sums = propagator._far_sums(poles, sq, ks, workspace)
            assert columns == near and sums is not None
        # 383 poles: a far side of at most 127 poles joins, so every block stays whole and near.
        blocks = propagator._root_tiles(poles[:383])
        assert [list(ks) for ks in blocks] == [list(ks) for ks in propagator._root_blocks(384)]
        assert all(propagator._far_field(poles[:383], ks).near == slice(0, 383) for ks in blocks)
        ks = np.arange(384, 512)
        columns, sums = propagator._far_sums(poles, sq, ks, workspace)
        assert columns == slice(255, 640) and sums is not None
        # Cells three wide under the block: its interval [383, 765] is 382 wide, pole 254
        # lies 129 below it and joins; a gap of 1000 above pole 511 keeps the right side far.
        poles[384:] += 2.0 * np.minimum(np.arange(616.0), 127.0)
        poles[512:] += 1000.0
        columns, sums = propagator._far_sums(poles, sq, ks, workspace)
        assert columns == slice(0, 640) and sums is not None


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


def _all_poles_evolve(spectrum, x, times):
    """exp(-i H t) x with every root block summed over all N poles: the reference.

    A copy of ArrowheadSpectrum.evolve as it was before the far field: one
    (128, N) Cauchy tile and one (2T, 128) x (128, N) product per block.
    """
    times = np.asarray(times, dtype=float)
    flat = times.reshape(-1)
    x = np.array(x, dtype=complex)
    spectrum._rotate(x, back=False)
    free_phases = propagator._phases(flat, spectrum.free)
    y = spectrum.c_hat * x[spectrum.bath_rows]
    system = np.zeros(flat.size, dtype=complex)
    bath = np.zeros((2 * flat.size, spectrum.poles.size))  # real parts, then imaginary
    for ks in propagator._root_blocks(spectrum.roots.size):
        cauchy = spectrum._cauchy(ks)
        components = x[0] + cauchy @ y.real + 1j * (cauchy @ y.imag)
        phased = propagator._phases(flat, spectrum.roots[ks])
        phased *= spectrum.inv_norm[ks] ** 2 * components
        system += phased.sum(axis=1)
        bath += np.concatenate((phased.real, phased.imag)) @ cauchy
    bath *= spectrum.c_hat
    out = np.empty((flat.size, spectrum.dim), dtype=complex)
    out[:, 0] = system
    out.real[:, spectrum.bath_rows], out.imag[:, spectrum.bath_rows] = np.split(bath, 2)
    out[:, spectrum.free_rows] = free_phases * x[spectrum.free_rows]
    spectrum._rotate(out, back=True)
    return out.reshape(times.shape + (-1,))


def _system_and_random_vectors(dim, seed):
    """The system unit vector and a random complex unit vector of ``dim`` entries."""
    system = np.zeros(dim, dtype=complex)
    system[0] = 1.0
    x = [1.0, 1j] @ np.random.default_rng(seed).normal(size=(2, dim))
    return system, x / np.linalg.norm(x)


def _assert_evolves_as_all_poles(spectrum, times, seed, bits=False):
    """evolve of the system vector and of a random complex unit vector against the reference.

    Within 1e-15 absolute, or bit for bit with ``bits``.
    """
    for x in _system_and_random_vectors(spectrum.dim, seed):
        evolved, reference = spectrum.evolve(x, times), _all_poles_evolve(spectrum, x, times)
        assert np.all(np.isfinite(evolved))
        if bits:
            assert np.array_equal(evolved, reference)
        else:
            assert np.max(np.abs(evolved - reference)) <= 1e-15


class TestFarFieldEvolve:
    """Near band per pole, far sides through 24 proxy charges, against summing every pole."""

    @pytest.mark.parametrize("n_modes", [2000, 4000])
    def test_wwa_evolution_matches_all_poles(self, n_modes, wwa_system):
        bath = discretize_bath(SpectralDensitySpec(GAMMA, 100.0, 20.0), n_modes)
        spectrum = ExactPropagator(wwa_system, bath).spectrum
        _assert_evolves_as_all_poles(spectrum, np.linspace(0.0, 5.0, 21), n_modes)

    @settings(max_examples=6, deadline=None)
    @given(
        st.integers(600, 1200),
        st.integers(0, 2**32 - 1),
        st.floats(0.3, 3.0),
        st.floats(0.0, 0.45),
        st.floats(0.1, 12.0),
    )
    def test_nonuniform_evolution_matches_all_poles(self, n, seed, power, jitter, omega_b):
        """Unevenly spaced poles, some far sides joined to the near band, t ||H|| up to 100."""
        spectrum = ExactPropagator(SystemMode(omega_b), _warped_bath(n, seed, power, jitter)).spectrum
        times = np.array([0.0, 0.7, 3.0, 10.0, 100.0]) / np.max(np.abs(spectrum.eigenvalues))
        _assert_evolves_as_all_poles(spectrum, times, seed)

    @pytest.mark.parametrize("n_modes", [8, 128, 256, 376])
    def test_all_near_blocks_keep_the_all_poles_bits(self, n_modes, wwa_system):
        """At most 383 modes every block is near; a multiple of 8 needs no padding."""
        bath = discretize_bath(SpectralDensitySpec(GAMMA, 100.0, 20.0), n_modes)
        spectrum = ExactPropagator(wwa_system, bath).spectrum
        _assert_evolves_as_all_poles(spectrum, np.linspace(0.0, 5.0, 21), n_modes, bits=True)

    def test_nonuniform_all_near_bath_keeps_the_all_poles_bits(self):
        spectrum = ExactPropagator(SystemMode(4.0), _warped_bath(376, 7, 2.0, 0.3)).spectrum
        _assert_evolves_as_all_poles(spectrum, np.linspace(0.0, 5.0, 21), 376, bits=True)

    @pytest.mark.parametrize("omega_b, xi, root, beyond", [(1e3, 0.5, -1, 1e3), (5.0, 3.0, 0, -80.0)])
    def test_outer_roots_far_outside_a_large_bath(self, omega_b, xi, root, beyond):
        """1000 poles on [0, 10]: omega_b = 1e3 puts root N above 1e3, coupling 3 root 0 below -80.

        Roots 0 and N are one tile over every pole; the rest of their blocks take far sides.
        """
        bath = _bath(np.linspace(0.0, 10.0, 1000), np.full(1000, xi))
        system = SystemMode(omega_b)
        _assert_matches_dense_eigh(system, bath)
        spectrum = ExactPropagator(system, bath).spectrum
        tiles = propagator._root_tiles(spectrum.poles)
        assert [list(ks) for ks in tiles[:2]] == [[0, 1000], list(range(1, 128))]
        lam = spectrum.eigenvalues
        assert lam[root] / beyond > 1.0
        times = np.array([0.0, 0.7, 3.0, 10.0, 100.0]) / np.max(np.abs(lam))
        _assert_evolves_as_all_poles(spectrum, times, 1000)

    def test_root_on_a_chebyshev_node(self, wwa_propagator):
        """A root moved exactly onto a node of its block's interval takes that node's charge alone."""
        spectrum = wwa_propagator.spectrum
        ks = np.arange(384, 512)
        field = propagator._far_field(spectrum.poles, ks)
        mid, half = field.mid, field.half
        k = 400
        scaled = (spectrum.poles[spectrum.origin[k]] - mid + spectrum.tau[k]) / half
        node = propagator._NODES[np.argmin(np.abs(propagator._NODES - scaled))]
        tau = spectrum.tau.copy()
        tau[k] = half * node - (spectrum.poles[spectrum.origin[k]] - mid)
        assert (spectrum.poles[spectrum.origin[k]] - mid + tau[k]) / half == node
        factor = spectrum.poles[0] / wwa_propagator.bath.omegas[0]
        roots = spectrum.roots.copy()
        roots[k] = (spectrum.poles[spectrum.origin[k]] + tau[k]) / factor
        moved = dataclasses.replace(spectrum, tau=tau, roots=roots)
        terms, total = field.lagrange(spectrum.poles, spectrum.origin[k : k + 1], tau[k : k + 1])
        assert np.array_equal(terms[0] / total[0], propagator._NODES == node)
        _assert_evolves_as_all_poles(moved, np.linspace(0.0, 5.0, 21), k)

    def test_far_side_that_joins_the_near_band(self):
        """Cells three wide under roots 384..511 pull their left side in; the right stays far."""
        poles = np.arange(1000.0)
        poles[384:] += 2.0 * np.minimum(np.arange(616.0), 127.0)
        poles[512:] += 1000.0
        spectrum = ExactPropagator(SystemMode(poles[450]), _bath(poles, 0.05 * np.sqrt(np.gradient(poles)))).spectrum
        ks = np.arange(384, 512)
        assert propagator._far_field(spectrum.poles, ks).near == slice(0, 640)
        _assert_evolves_as_all_poles(spectrum, np.linspace(0.0, 5.0, 11), 640)

    def test_evaluate_peaks_below_summing_every_pole(self, wwa_propagator):
        """N = 2000 over 201 times: at most twice the 16 T (N+1)-byte result and one (128, N) tile.

        Summing every pole peaked at 15.9 MB, over this 14.9 MB bound: the
        result, a (2T, N) bath array, one (2T, N) product and the tile.
        """
        tracemalloc.start()
        try:
            coeffs = wwa_propagator.evaluate(np.linspace(0.0, 5.0, 201))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coeffs.absorption.shape == (201, 2000)
        assert peak <= 2 * 16 * 201 * 2001 + 8 * 128 * 2000

    @pytest.mark.parametrize("threads", ["2", "4"])
    def test_same_bits_on_any_blas_thread_count(self, threads):
        """evaluate and propagate at N = 201, 300, 500 and 4000 on one BLAS thread and on more.

        Summing every pole, the first three rounded differently on two threads
        than on one (OpenBLAS 0.3.31): their products had 201, 300 and 500
        output columns. At N = 4000 the far pass sums 720 proxy charges per
        pole. OpenBLAS caps the count at the CPUs it finds.
        """
        script = (
            "import hashlib, numpy as np\n"
            "from boson_decay import ExactPropagator, SpectralDensitySpec, SystemMode, discretize_bath\n"
            "digest = hashlib.sha256()\n"
            "for n in (201, 300, 500, 4000):\n"
            "    bath = discretize_bath(SpectralDensitySpec(1.0, 800.0, 80.0), n)\n"
            "    exact = ExactPropagator(SystemMode(800.0), bath)\n"
            "    for steps in (21, 201):\n"
            "        coeffs = exact.evaluate(np.linspace(0.0, 5.0, steps))\n"
            "        digest.update(coeffs.survival.tobytes() + coeffs.absorption.tobytes())\n"
            "    x = [1.0, 1j] @ np.random.default_rng(n).normal(size=(2, n + 1))\n"
            "    digest.update(exact.propagate(x, np.linspace(0.0, 5.0, 21)).tobytes())\n"
            "print(digest.hexdigest())\n"
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
        assert len(outputs[0].strip()) == 64


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
