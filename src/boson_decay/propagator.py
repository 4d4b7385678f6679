"""Single-excitation propagator coefficients, analytically and from an exact oracle.

The annihilation operator of the system mode evolves into a linear combination
of the initial system and bath operators. The closed forms below hold in the
broadband (flat, wide-bath) regime; the oracle realizes the same coefficients
exactly at finite mode count via one Hermitian eigendecomposition, reused for
every requested time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathMode, DiscreteBath

PROVENANCE_ANALYTIC = "analytic"
PROVENANCE_ORACLE = "oracle"


@dataclass(frozen=True)
class SystemMode:
    """The damped oscillator: a single bosonic mode at frequency ``omega_b``."""

    omega_b: float

    def __post_init__(self) -> None:
        if not self.omega_b > 0:
            raise ValueError(f"omega_b must be positive (got {self.omega_b})")


@dataclass(frozen=True)
class PropagatorCoefficients:
    """Linear input-output amplitudes of the coupled mode network on a time grid.

    ``survival`` multiplies the initial system operator in the evolved system
    operator; ``absorption[..., j]`` multiplies the initial bath operator j
    there. Couplings are real, so ``absorption[..., j]`` is also the reverse
    amplitude (initial system operator appearing in evolved bath operator j).
    ``t`` and ``survival`` share the time shape: () at one time, (T,) on a
    grid, where ``absorption`` has shape (T, N).
    """

    t: float | np.ndarray
    survival: complex | np.ndarray
    absorption: np.ndarray
    bath_omegas: np.ndarray
    provenance: str

    def __post_init__(self) -> None:
        if self.provenance not in (PROVENANCE_ANALYTIC, PROVENANCE_ORACLE):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        n = self.bath_omegas.size
        if self.absorption.shape != np.shape(self.survival) + (n,):
            raise ValueError("absorption must have one entry per bath mode and time")
        if np.any(np.abs(self.survival) > 1.0 + 1e-9):
            raise ValueError("survival amplitude cannot exceed unit magnitude")

    @property
    def n_modes(self) -> int:
        return int(self.bath_omegas.size)


def analytic_survival(system: SystemMode, gamma: float, t):
    """Broadband closed form for the system self-amplitude at time(s) ``t``: damped rotation."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    return (np.exp(-0.5 * gamma * t) * np.exp(-1j * system.omega_b * t))[()]


def _transfer_kernel(system: SystemMode, gamma: float, omegas: np.ndarray, t: float) -> np.ndarray:
    """Common factor of the system-bath transfer amplitudes (coupling stripped)."""
    detuning = system.omega_b - omegas
    numerator = np.exp(-0.5 * gamma * t) * np.exp(-1j * detuning * t) - 1.0
    return np.exp(-1j * omegas * t) * numerator / (detuning - 0.5j * gamma)


def analytic_absorption(system: SystemMode, gamma: float, mode: BathMode, t: float) -> complex:
    """Closed-form amplitude for one bath excitation to appear in the system."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    kernel = _transfer_kernel(system, gamma, np.asarray([mode.omega], dtype=float), t)
    return complex(mode.xi * kernel[0])


def analytic_emission(system: SystemMode, gamma: float, mode: BathMode, t: float) -> complex:
    """Closed-form amplitude for the system excitation to appear in one bath mode.

    Identical to :func:`analytic_absorption` up to conjugation of the coupling;
    couplings are real here, so the two coincide exactly.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    kernel = _transfer_kernel(system, gamma, np.asarray([mode.omega], dtype=float), t)
    return complex(np.conj(mode.xi) * kernel[0])


def analytic_propagator(
    system: SystemMode, gamma: float, bath: DiscreteBath, t: float
) -> PropagatorCoefficients:
    """Assemble broadband closed-form coefficients for every mode of ``bath``."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return PropagatorCoefficients(
        t=float(t),
        survival=analytic_survival(system, gamma, t),
        absorption=bath.xis * _transfer_kernel(system, gamma, bath.omegas, t),
        bath_omegas=bath.omegas,
        provenance=PROVENANCE_ANALYTIC,
    )


def single_particle_hamiltonian(system: SystemMode, bath: DiscreteBath) -> np.ndarray:
    """Arrowhead matrix of mode frequencies and couplings.

    Row/column 0 is the system mode; rows 1..N are the bath modes. The
    excitation-conserving interaction leaves all bath-bath couplings zero.
    """
    n = bath.n_modes
    h = np.zeros((n + 1, n + 1))
    h[0, 0] = system.omega_b
    idx = np.arange(1, n + 1)
    h[idx, idx] = bath.omegas
    h[0, 1:] = bath.xis
    h[1:, 0] = bath.xis
    return h


def _phases(times, eigenvalues: np.ndarray) -> np.ndarray:
    """exp(-i t lambda_k): the shape of ``times`` plus one axis over eigenvalues."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("time must be nonnegative")
    return np.exp(-1j * np.multiply.outer(times, eigenvalues))


def spectral_evolution(
    eigenvalues: np.ndarray, eigenvectors: np.ndarray, components: np.ndarray, times
) -> np.ndarray:
    """exp(-i H t) x over ``times`` for a real symmetric H = V diag(lambda) V^T.

    ``components`` is V^T x, shape (d,). The phased components
    exp(-i lambda t) * V^T x at every time are contracted with V^T as their
    real and imaginary parts, two real matrix products, so the real
    eigenvector matrix is never copied to complex. The result has the shape
    of ``times`` plus (d,); peak memory is about 40 T d bytes for T times.
    """
    times = np.asarray(times, dtype=float)
    weighted = _phases(times.reshape(-1), eigenvalues)
    weighted *= components
    v_t = eigenvectors.T
    evolved = np.empty(weighted.shape, dtype=complex)
    evolved.real = weighted.real @ v_t
    evolved.imag = weighted.imag @ v_t
    return evolved.reshape(times.shape + (-1,))


class ExactPropagator:
    """Exact finite-bath propagator from one symmetric eigendecomposition.

    The decomposition is computed once per (system, bath) pair; evolving any
    single-excitation vector over a whole time grid then costs two real
    matrix products (:func:`spectral_evolution`).
    """

    def __init__(self, system: SystemMode, bath: DiscreteBath):
        self.system = system
        self.bath = bath
        h = single_particle_hamiltonian(system, bath)
        self._eigenvalues, self._eigenvectors = np.linalg.eigh(h)

    def unitary(self, t: float) -> np.ndarray:
        """Full (N+1) x (N+1) single-excitation evolution matrix."""
        v = self._eigenvectors
        return (v * _phases(t, self._eigenvalues)) @ v.T

    def propagate(self, x, times) -> np.ndarray:
        """``unitary(t) @ x`` for every time in ``times``: shape of ``times`` plus (N+1,).

        Entry 0 of ``x`` belongs to the system mode and entries 1..N to the
        bath modes. ``V^T x`` is formed from the real and imaginary parts of
        ``x``, so the eigenvector matrix stays real.
        """
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.bath.n_modes + 1,):
            raise ValueError("need one amplitude for the system and one per bath mode")
        v = self._eigenvectors
        components = x.real @ v + 1j * (x.imag @ v)
        return spectral_evolution(self._eigenvalues, v, components, times)

    def evaluate(self, times) -> PropagatorCoefficients:
        """Coefficients over ``times`` (one time or a grid), from one contraction.

        Row 0 of the evolution matrix is the evolved system vector, whose
        spectral components are ``V[0]``. The arrowhead matrix is real
        symmetric, so the evolution matrix is complex symmetric and row 0 also
        serves as column 0. On a grid the result carries ``t`` and
        ``survival`` of shape (T,) and ``absorption`` of shape (T, N), a view
        into one (T, N+1) array. A scalar time gives scalar ``t`` and
        ``survival``.
        """
        times = np.asarray(times, dtype=float)
        rows = spectral_evolution(
            self._eigenvalues, self._eigenvectors, self._eigenvectors[0], times
        )
        return PropagatorCoefficients(
            t=times[()],
            survival=rows[..., 0][()],
            absorption=rows[..., 1:],
            bath_omegas=self.bath.omegas,
            provenance=PROVENANCE_ORACLE,
        )


def dissipation_sum(coeffs: PropagatorCoefficients):
    """Total probability transferred into the bath, summed over modes, per time."""
    return np.sum(np.abs(coeffs.absorption) ** 2, axis=-1)[()]


def unitarity_defect(coeffs: PropagatorCoefficients):
    """Deviation of ``|survival|^2 + dissipation_sum`` from one, per time.

    Vanishes to roundoff for oracle coefficients; for analytic coefficients
    summed over a discrete bath it measures the broadband-approximation error.
    """
    return np.abs(np.abs(coeffs.survival) ** 2 + dissipation_sum(coeffs) - 1.0)[()]
