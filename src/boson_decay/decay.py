"""Zero-temperature decay of Fock and coherent states, plus a dense Fock-space oracle.

The closed-form laws (binomial populations, exponential survival, coherent
label contraction) are validated elsewhere against :class:`FockSpaceOracle`,
which evolves the full joint state in a truncated product Fock basis and
partial-traces the bath from first principles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Any, Union

import numpy as np

from .bath import DiscreteBath
from .errors import ResourceLimitError, TruncationError
from .propagator import ExactPropagator, SystemMode, _phases, as_times

_MAX_ORACLE_BATH_MODES = 4
_TRACE_DEFECT_TOL = 1e-6


# --------------------------------------------------------------------------
# initial states


@dataclass(frozen=True)
class FockState:
    """Number eigenstate with ``n`` excitations."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"excitation number must be nonnegative (got {self.n})")

    def norm(self) -> float:
        return 1.0

    def amplitudes(self, n_max: int) -> np.ndarray:
        """Number-basis amplitudes, m = 0..n_max: one at m = n."""
        if self.n > n_max:
            raise ValueError(
                f"truncation n_max={n_max} cannot represent a {self.n}-excitation state"
            )
        amps = np.zeros(n_max + 1, dtype=complex)
        amps[self.n] = 1.0
        return amps


@dataclass(frozen=True)
class CoherentState:
    """Displaced vacuum with complex label ``alpha``."""

    alpha: complex

    def norm(self) -> float:
        return 1.0

    def amplitudes(self, n_max: int) -> np.ndarray:
        """Number-basis amplitudes <m|alpha>, m = 0..n_max."""
        return coherent_amplitudes(self.alpha, n_max)


@dataclass(frozen=True)
class CoherentSuperposition:
    """Finite weighted superposition of coherent states: sum_k C_k |alpha_k>."""

    terms: tuple[tuple[complex, complex], ...]

    def __post_init__(self) -> None:
        terms = tuple((complex(c), complex(a)) for c, a in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("a superposition needs at least one term")
        if not self.norm() > 0:
            raise ValueError("superposition must have positive norm")

    def norm(self) -> float:
        """Vector norm computed with coherent-state overlaps."""
        total = 0.0j
        for ck, ak in self.terms:
            for cl, al in self.terms:
                total += np.conj(ck) * cl * coherent_overlap(ak, al)
        return math.sqrt(max(total.real, 0.0))

    def amplitudes(self, n_max: int) -> np.ndarray:
        """Unnormalized number-basis amplitudes sum_k C_k <m|alpha_k>, m = 0..n_max."""
        amps = np.zeros(n_max + 1, dtype=complex)
        for weight, label in self.terms:
            amps += weight * coherent_amplitudes(label, n_max)
        return amps


OpenSystemState = Union[FockState, CoherentState, CoherentSuperposition]


def basis_amplitudes(state: OpenSystemState, n_max: int) -> np.ndarray:
    """Normalized number-basis amplitudes of ``state``, m = 0..n_max.

    Raises :class:`TruncationError` where the basis drops more than
    _TRACE_DEFECT_TOL of the state's squared norm.
    """
    amps = state.amplitudes(n_max)
    norm = state.norm()
    defect = abs(float(np.vdot(amps, amps).real) / norm**2 - 1.0)
    if defect > _TRACE_DEFECT_TOL:
        raise TruncationError(
            f"truncated basis drops {defect:.3e} of the initial norm "
            f"(tolerance {_TRACE_DEFECT_TOL:.0e}); raise n_max"
        )
    return amps / norm


def _label_sq(label: complex) -> float:
    """|label|^2 of a coherent label; a ValueError names a label whose square is past float64."""
    magnitude = abs(complex(label))
    if not math.isfinite(magnitude * magnitude):
        raise ValueError(f"coherent label {label!r} is too large: |alpha|^2 is past float64")
    return magnitude * magnitude


def coherent_overlap(a: complex, b: complex) -> complex:
    """<a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a) b)."""
    return complex(np.exp(-0.5 * _label_sq(a) - 0.5 * _label_sq(b) + np.conj(a) * b))


def _log_factorials(n: int) -> np.ndarray:
    """log m! for m = 0..n, a cumulative sum of log m in extended precision (np.longdouble)."""
    logs = np.zeros(n + 1, dtype=np.longdouble)
    np.log(np.arange(1, n + 1, dtype=np.longdouble), out=logs[1:])
    return np.cumsum(logs, out=logs)


def coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """Number-basis amplitudes <m|alpha> of |alpha>, m = 0..n_max.

    The magnitude is exp(-|alpha|^2/2 + m log|alpha| - log(m!)/2), so no
    amplitude underflows before its own magnitude does, and the phase is
    the m-th power of alpha / |alpha|, a running product: exact for a label
    on either axis, so a real cat state keeps exact zeros.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mag = np.arange(n_max + 1) * np.log(np.longdouble(abs(alpha)))
    log_mag[0] = 0.0  # |alpha|^0 = 1, also at alpha = 0
    log_mag -= 0.5 * _log_factorials(n_max) + 0.5 * _label_sq(alpha)
    phase = np.full(n_max + 1, complex(alpha) / abs(alpha) if alpha else 1.0, dtype=complex)
    phase[0] = 1.0
    return np.exp(log_mag.astype(float)) * np.cumprod(phase, out=phase)


def default_fock_cutoff(alpha_scale: float) -> int:
    """Truncation that bounds the dropped Poisson tail well below 1e-6."""
    a = abs(alpha_scale)
    cutoff = a * a + 6.0 * a + 10.0
    if not math.isfinite(cutoff):
        raise ValueError(f"coherent label scale {alpha_scale!r} is too large: |alpha|^2 is past float64")
    return int(math.ceil(cutoff))


# --------------------------------------------------------------------------
# closed-form decay laws


@dataclass(frozen=True)
class PopulationDistribution:
    """Probabilities of m = 0..n system excitations: shape (n+1,), or (T, n+1) over T times."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))

    @property
    def mean(self):
        return self.probs @ np.arange(self.probs.shape[-1])

    @property
    def variance(self):
        m = np.arange(self.probs.shape[-1])
        return self.probs @ (m * m) - self.mean**2


def fock_populations(n: int, survival) -> PopulationDistribution:
    """Binomial population law for an initial n-excitation state.

    ``survival`` is the single-excitation survival probability, one value or
    an array of them (one per time); each of the n excitations is
    independently retained with that probability, giving
    P_m = C(n, m) p^m (1-p)^(n-m). The law is evaluated in log space, with
    log C(n, m) = log n! - log m! - log (n-m)! from one table of
    :func:`_log_factorials`, so it stays finite and costs O(n) per time for
    large n; the endpoint terms are masked, so p = 0 and p = 1 give exact
    unit populations.
    """
    if n < 0:
        raise ValueError("excitation number must be nonnegative")
    p = np.asarray(survival, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError(f"survival probability must lie in [0, 1] (got {survival})")
    m = np.arange(n + 1)
    log_factorials = _log_factorials(n)
    log_comb = (log_factorials[n] - log_factorials - log_factorials[::-1]).astype(float)
    p = p[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        kept = m * np.log(p)
        lost = (n - m) * np.log1p(-p)
    kept[..., 0] = 0.0
    lost[..., n] = 0.0
    # In place, in the operand order of exp(log_comb + kept + lost): same bits.
    kept += log_comb
    kept += lost
    return PopulationDistribution(probs=np.exp(kept, out=kept))


def fock_survival(n: int, gamma: float, t):
    """Probability of retaining all ``n`` excitations, exp(-n gamma t), at time(s) ``t``."""
    if n < 0:
        raise ValueError("excitation number must be nonnegative")
    with np.errstate(over="ignore"):  # an exponent past float64 is -inf, and exp(-inf) = 0
        return np.exp(-n * gamma * as_times(t))[()]


def fock_decay_time(n: int, gamma: float) -> float:
    """Time constant of the full-retention probability; infinite for n = 0."""
    if n == 0:
        return math.inf
    return 1.0 / (n * gamma)


def coherent_decay(alpha: complex, survival_amplitude):
    """Label and mean excitation number of a decayed coherent state.

    A coherent state stays coherent with contracted label alpha * survival;
    the mean number is the squared label magnitude, independent of the phase
    of alpha. ``survival_amplitude`` may be one value or one per time.
    """
    u = np.asarray(survival_amplitude, dtype=complex)
    if np.any(np.abs(u) > 1.0 + 1e-9):
        raise ValueError("survival amplitude cannot exceed unit magnitude")
    label = (alpha * u)[()]
    return label, np.abs(label) ** 2


def coherent_decay_time(gamma: float) -> float:
    """Mean-number time constant of a decaying coherent state."""
    return 1.0 / gamma


# --------------------------------------------------------------------------
# propagation of joint coherent labels (excited bath)


@dataclass(frozen=True)
class JointCoherentLabels:
    """Coherent labels of the system and every bath mode after evolution.

    ``system_label`` has the time shape (() at one time, (T,) on a grid) and
    ``bath_labels`` adds the mode axis.
    """

    system_label: complex | np.ndarray
    bath_labels: np.ndarray

    @property
    def mean_number(self):
        """Mean excitation number of the system, |system label|^2, per time."""
        return np.abs(self.system_label) ** 2

    def total_norm_sq(self):
        """Squared norm of the joint label vector, per time."""
        return (self.mean_number + np.sum(np.abs(self.bath_labels) ** 2, -1))[()]


def excited_bath_evolution(
    alpha: complex, lambdas, propagator: ExactPropagator, times
) -> JointCoherentLabels:
    """Map initial coherent labels (system alpha, bath lambdas) through the propagator.

    A product of coherent states stays a product of coherent states; the label
    vector evolves with the single-excitation unitary, ``unitary(t) @ [alpha,
    lambdas]``. The map is exact and norm-preserving for any number of
    excited bath modes, at one time or over a grid.
    """
    joint = propagator.propagate(np.concatenate(([alpha], lambdas)), times)
    return JointCoherentLabels(system_label=joint[..., 0][()], bath_labels=joint[..., 1:])


# --------------------------------------------------------------------------
# reduced density matrices


@dataclass(frozen=True)
class DensityMatrixFock:
    """Reduced system density matrix in the number basis (dimension n_max + 1).

    ``entries`` has shape (d, d) at one time or (T, d, d) over a grid; every
    property then has the time shape.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", entries)
        if entries.ndim < 2 or entries.shape[-1] != entries.shape[-2]:
            raise ValueError("density matrix must be square")

    @property
    def dim(self) -> int:
        return int(self.entries.shape[-1])

    @property
    def trace(self):
        return np.trace(self.entries, axis1=-2, axis2=-1).real[()]

    @property
    def populations(self) -> np.ndarray:
        return np.diagonal(self.entries, axis1=-2, axis2=-1).real.copy()

    @property
    def mean_number(self):
        return (self.populations @ np.arange(self.dim))[()]

    @property
    def purity(self):
        return np.trace(self.entries @ self.entries, axis1=-2, axis2=-1).real[()]

    def fidelity_with_coherent(self, label: complex):
        """<label| rho |label> with |label> truncated to this dimension."""
        amps = coherent_amplitudes(label, self.dim - 1)
        return (np.conj(amps) @ self.entries @ amps).real[()]

    def max_offdiagonal(self):
        off = np.abs(self.entries) * ~np.eye(self.dim, dtype=bool)
        return np.max(off, axis=(-2, -1))[()]


# --------------------------------------------------------------------------
# dense Fock-space oracle


def _sector_basis(n_bath: int, k: int) -> list[tuple[int, ...]]:
    """Occupation tuples (system, bath_1..bath_N) with total excitation k.

    The interaction conserves the total excitation number, so each sector
    evolves independently and no truncation error arises inside a sector.
    """
    states = []
    # Distribute k excitations over n_bath + 1 modes.
    for split in combinations_with_replacement(range(n_bath + 1), k):
        occ = [0] * (n_bath + 1)
        for mode in split:
            occ[mode] += 1
        states.append(tuple(occ))
    states.sort()
    return states


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


def _check_mode_count(n_modes: int) -> None:
    """Raise ResourceLimitError for a bath too large for the dense oracle."""
    if n_modes > _MAX_ORACLE_BATH_MODES:
        raise ResourceLimitError(
            f"dense oracle supports at most {_MAX_ORACLE_BATH_MODES} bath modes (got {n_modes})"
        )


class FockSpaceOracle:
    """Dense evolution of the joint state in a truncated product Fock basis.

    Intended for small baths (N <= 4) as a first-principles check of the
    combinatorial decay laws. The basis is organized by total excitation
    number; a sector is diagonalized only when an initial state occupies it
    (a Fock state occupies one), then cached and reused for every time. The
    partial trace over the bath is taken by grouping joint amplitudes by
    their bath occupation string.
    """

    def __init__(self, system: SystemMode, bath: DiscreteBath, n_max: int):
        _check_mode_count(bath.n_modes)
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        self.system = system
        self.bath = bath
        self.n_max = n_max

        # Bath occupation strings index the columns of the partial-trace table.
        self._bath_strings: dict[tuple[int, ...], int] = {}
        self._sectors: dict[int, dict[str, Any]] = {}

    @staticmethod
    def sector_bytes(n_modes: int, k: int, n_times: int) -> int:
        """Bytes that :meth:`reduced_density` takes for ``Fock(k)`` over ``n_times`` times.

        At ``n_modes`` = N it diagonalizes the dense Hamiltonian of the one excitation sector,
        of dimension d = C(k + N, N): the matrix, the eigensolver's copy and
        2 d^2 workspace, and the eigenvectors take about 40 d^2 bytes.
        Evolving the sector over the grid takes about 40 bytes per grid point
        and sector state, its partial-trace table 16 bytes per sector state
        and Fock level, and the reduced density 16 bytes per grid point and
        pair of Fock levels. An exact integer; N above the oracle's limit of
        4 modes raises :class:`ResourceLimitError` before d is formed, so
        every size returns at once.
        """
        _check_mode_count(n_modes)
        levels = k + 1
        # C(k + N, N) = (k + 1) ... (k + N) / N!; N < 1 (no bath) sizes one state
        sector = math.prod(range(k + 1, k + n_modes + 1)) // math.factorial(max(n_modes, 0))
        return 40 * sector * (sector + n_times) + 16 * levels * (sector + n_times * levels)

    def _sector(self, k: int) -> dict[str, Any]:
        """The sector of total excitation k, diagonalized on first use and cached."""
        if k not in self._sectors:
            basis = _sector_basis(self.bath.n_modes, k)
            index = {occ: i for i, occ in enumerate(basis)}
            eigenvalues, eigenvectors = np.linalg.eigh(self._sector_hamiltonian(basis, index))
            self._sectors[k] = {
                "index": index,
                "eigenvalues": eigenvalues,
                "eigenvectors": eigenvectors,
                "system_occ": np.array([occ[0] for occ in basis]),
                "bath_cols": np.array([self._bath_string_index(occ[1:]) for occ in basis]),
            }
        return self._sectors[k]

    def _bath_string_index(self, string: tuple[int, ...]) -> int:
        if string not in self._bath_strings:
            self._bath_strings[string] = len(self._bath_strings)
        return self._bath_strings[string]

    def _sector_hamiltonian(self, basis, index) -> np.ndarray:
        omegas = self.bath.omegas
        xis = self.bath.xis
        omega_b = self.system.omega_b
        dim = len(basis)
        h = np.zeros((dim, dim))
        for i, occ in enumerate(basis):
            m = occ[0]
            h[i, i] = m * omega_b + float(np.dot(occ[1:], omegas))
            if m == 0:
                continue
            # One quantum hops from the system into bath mode j.
            for j in range(self.bath.n_modes):
                target = list(occ)
                target[0] -= 1
                target[j + 1] += 1
                i2 = index[tuple(target)]
                amp = xis[j] * math.sqrt(m) * math.sqrt(occ[j + 1] + 1)
                h[i, i2] = amp
                h[i2, i] = amp
        return h

    def reduced_density(self, initial: OpenSystemState, times) -> DensityMatrixFock:
        """Evolve ``initial`` (bath in vacuum) over ``times`` and trace out the bath.

        ``times`` is one time or a grid; the result has the time shape plus
        (n_max + 1, n_max + 1). Each occupied sector is evolved over the whole
        grid in one :func:`spectral_evolution` call. The partial-trace table
        (system occupation x bath string) is then filled one time at a time:
        an occupation pair fixes the sector, so no entry is written twice, and
        the table is never held for the whole grid.
        """
        times = np.asarray(times, dtype=float)
        vacuum = (0,) * self.bath.n_modes
        evolved = []
        amps = basis_amplitudes(initial, self.n_max)
        for m in np.flatnonzero(amps).tolist():
            sector = self._sector(m)
            v = sector["eigenvectors"]
            components = amps[m] * v[sector["index"][(m,) + vacuum]]
            states = spectral_evolution(sector["eigenvalues"], v, components, times)
            evolved.append((sector["system_occ"], sector["bath_cols"], states.reshape(-1, len(v))))
        table = np.zeros((self.n_max + 1, len(self._bath_strings)), dtype=complex)
        rho = np.empty((times.size,) + (self.n_max + 1,) * 2, dtype=complex)
        for i in range(times.size):
            for system_occ, bath_cols, states in evolved:
                table[system_occ, bath_cols] = states[i]
            rho[i] = table @ table.conj().T
        return DensityMatrixFock(entries=rho.reshape(times.shape + rho.shape[1:]))
