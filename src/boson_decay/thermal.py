"""Finite-temperature decay: enhancement factor, conditional state, effective
Hamiltonian laws, and a seeded Monte Carlo sampler checked against exact
Gaussian moments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .bath import DiscreteBath, ThermalSpec
from .decay import CoherentSuperposition, DensityMatrixFock, default_fock_cutoff
from .errors import InfiniteOccupationError
from .propagator import PROVENANCE_ORACLE, PropagatorCoefficients, as_times, dissipation_sum

SHORT_TIME_WINDOW = 0.1
# Bytes of one Monte Carlo block: its (rows, N) samples and its (T, rows) branch values.
MC_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class ThermalFactor:
    """Temperature enhancement of the conditional state normalization (>= 1), per time."""

    value: float | np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.asarray(self.value) < 1.0 - 1e-12):
            raise ValueError(f"thermal factor must be at least 1 (got {self.value})")


def thermal_factor_discrete(
    bath: DiscreteBath, thermal: ThermalSpec, coeffs: PropagatorCoefficients
) -> ThermalFactor:
    """Mode-resolved enhancement: 1 + sum_j n_j |absorption_j|^2."""
    if coeffs.n_modes != bath.n_modes:
        raise ValueError("coefficients and bath disagree on the mode count")
    return ThermalFactor(value=1.0 + dissipation_sum(coeffs, thermal.occupations(bath)))


def thermal_mean_number(n0: float, n_th: float, gamma: float, t):
    """Broadband mean excitation number n0 e^{-gamma t} + n_th (1 - e^{-gamma t}), per time.

    The system starts with mean number ``n0`` and relaxes towards the bath's
    occupation ``n_th`` at its frequency; with n0 = 0 and n_th = 1 it is the
    broadband law of the transferred probability :func:`dissipation_sum`.
    """
    t = as_times(t)
    if n_th < 0:
        raise ValueError("n_th must be nonnegative")
    return (n0 * np.exp(-gamma * t) + n_th * -np.expm1(-gamma * t))[()]


def thermal_factor_closed(n_th: float, gamma: float, t) -> ThermalFactor:
    """Slow-varying-bath closed form: 1 + n_th (1 - exp(-gamma t))."""
    return ThermalFactor(value=1.0 + thermal_mean_number(0.0, n_th, gamma, t))


def _array(alpha: complex) -> np.ndarray:
    """``alpha`` as a 0-d array, so that its products round alike at one time and on a grid.

    numpy's product of two complex scalars rounds differently from its array loops.
    """
    return np.asarray(alpha, dtype=complex)


def conditional_wavefunction(alpha: complex, survival_amplitude, phi: ThermalFactor):
    """Sub-normalized conditional coherent state at finite temperature, per time.

    Returns ``(weight, label)`` with weight = phi^(-1/2) and
    label = alpha ((survival - 1) phi^(-1/2) + 1). At phi = 1 this reduces to
    the zero-temperature contraction alpha * survival.
    """
    inv_sqrt = 1.0 / np.sqrt(phi.value)
    u = np.asarray(survival_amplitude, dtype=complex)
    label = _array(alpha) * ((u - 1.0) * inv_sqrt + 1.0)
    return inv_sqrt[()], label[()]


def conditional_mean_number(alpha: complex, survival_amplitude, phi: ThermalFactor):
    """Mean excitation number of the sub-normalized conditional state.

    Equals |alpha|^2 |(survival - 1) phi^(-1) + phi^(-1/2)|^2, i.e. the squared
    label of :func:`conditional_wavefunction` times its squared weight; one
    value per time when the survival amplitudes and ``phi`` span a grid.
    """
    inv = 1.0 / np.asarray(phi.value)
    inner = (np.asarray(survival_amplitude, dtype=complex) - 1.0) * inv + np.sqrt(inv)
    return (abs(alpha) ** 2 * np.abs(inner) ** 2)[()]


class FockEvolution(NamedTuple):
    amplitude: complex | np.ndarray
    mean_number: float | np.ndarray
    decay_time: float | np.ndarray


class CoherentEvolution(NamedTuple):
    weight: float | np.ndarray
    label: complex | np.ndarray
    mean_number: float | np.ndarray
    decay_time: float


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Non-Hermitian short-time generator of the finite-temperature decay.

    Acts diagonally in the number basis: a state with m excitations picks up
    the phase exp(-i m omega_b t) and the damping exp(-(m + n_th) gamma t / 2).
    Every law takes one time or a grid, and its amplitudes, weights, labels,
    mean numbers and density matrices then carry the shape of the times.
    """

    omega_b: float
    gamma: float
    n_th: float

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive (got {self.gamma})")
        if self.n_th < 0:
            raise ValueError(f"n_th must be nonnegative (got {self.n_th})")

    def evolve_fock(self, n, t) -> FockEvolution:
        """Closed-form number-state evolution and its decay time 1/((n_th + n) gamma).

        ``n`` may be an integer array; it broadcasts against ``t`` as numpy
        operands do, and a scalar ``n`` gives a float ``decay_time``.
        """
        if np.any(np.asarray(n) < 0):
            raise ValueError("excitation number must be nonnegative")
        t = as_times(t)
        rate = (self.n_th + n) * self.gamma
        amplitude = np.exp(-1j * n * self.omega_b * t) * np.exp(-0.5 * rate * t)
        mean_number = n * np.exp(-rate * t)
        with np.errstate(divide="ignore"):
            decay_time = np.divide(1.0, rate)  # infinite where nothing decays
        return FockEvolution(amplitude[()], mean_number[()], decay_time)

    def evolve_coherent(self, alpha: complex, t) -> CoherentEvolution:
        """Closed-form coherent-state evolution and its decay time 1/((n_th + 1) gamma)."""
        t = as_times(t)
        weight = np.exp(-0.5 * self.n_th * self.gamma * t)
        label = _array(alpha) * np.exp(-1j * (self.omega_b - 0.5j * self.gamma) * t)
        mean_number = abs(alpha) ** 2 * np.exp(-(self.n_th + 1.0) * self.gamma * t)
        decay_time = 1.0 / ((self.n_th + 1.0) * self.gamma)
        return CoherentEvolution(weight[()], label[()], mean_number[()], decay_time)

    def evolve_superposition(
        self, state: CoherentSuperposition, t, n_max: int | None = None
    ) -> tuple[DensityMatrixFock, float | np.ndarray]:
        """Evolve a coherent superposition in a truncated number basis, per time.

        Number state m of the normalized input picks up
        ``evolve_fock(m, t).amplitude``. Because the generator is
        non-Hermitian the norm leaks; the returned matrix is renormalized to
        unit trace and the pre-normalization trace (the leaked norm) is
        returned alongside. On a grid of T times the entries have shape
        (T, d, d) and the pre-trace shape (T,).
        """
        t = as_times(t)
        if np.any(self.gamma * t > SHORT_TIME_WINDOW):
            warnings.warn(
                "effective-Hamiltonian evolution requested beyond its short-time "
                f"window (gamma*t = {self.gamma * np.max(t):.3g} > {SHORT_TIME_WINDOW})",
                stacklevel=2,
            )
        if n_max is None:
            n_max = default_fock_cutoff(max(abs(a) for _, a in state.terms))
        amps = state.amplitudes(n_max) / state.norm()
        truncated = float(np.sum(np.abs(amps) ** 2))
        if abs(truncated - 1.0) > 1e-6:
            raise ValueError(
                f"truncated basis keeps only {truncated:.8f} of the initial norm; raise n_max"
            )
        evolved = amps * self.evolve_fock(np.arange(n_max + 1), t[..., None]).amplitude
        pre_trace = np.sum(np.abs(evolved) ** 2, axis=-1)
        rho = evolved[..., :, None] * np.conj(evolved[..., None, :]) / pre_trace[..., None, None]
        return DensityMatrixFock(entries=rho), pre_trace[()]


# --------------------------------------------------------------------------
# thermal sampling and moments


@dataclass(frozen=True)
class ThermalSampleSet:
    """I.i.d. coherent-label vectors drawn from the thermal phase-space weight.

    The set is a replayable stream, not a stored array: it holds the per-mode
    scale sqrt(n_j / 2), the sample count, the seed and the temperature, and
    :meth:`blocks` redraws the labels from ``np.random.default_rng(seed)``
    each time it is iterated. Its memory is O(N) however many samples it has.
    """

    scale: np.ndarray
    count: int
    seed: int
    beta: float

    def __post_init__(self) -> None:
        scale = np.asarray(self.scale, dtype=float)
        object.__setattr__(self, "scale", scale)
        if scale.ndim != 1:
            raise ValueError("scale must be a (n_modes,) array")
        if self.count < 1:
            raise ValueError(f"count must be at least 1 (got {self.count})")

    @property
    def n_modes(self) -> int:
        return int(self.scale.size)

    def blocks(self, rows: int | None = None) -> Iterator[np.ndarray]:
        """Yield the samples in order as (rows, N) complex blocks; the last may be shorter.

        Every block comes from one generator seeded with ``seed``, drawing
        2 * rows * N normals at a time. Chunked draws consume the generator
        exactly as one (count, 2N) draw does, so the values do not depend on
        ``rows`` (default: the block size for a single time).
        """
        if rows is None:
            rows = _block_rows(self.n_modes, 1)
        if rows < 1:
            raise ValueError(f"rows must be at least 1 (got {rows})")
        rng = np.random.default_rng(self.seed)
        for start in range(0, self.count, rows):
            block = rng.standard_normal((min(rows, self.count - start), 2 * self.n_modes))
            block = block.view(complex)
            block *= self.scale
            yield block

    @property
    def samples(self) -> np.ndarray:
        """All samples as one (count, N) complex array; for small sets and tests."""
        return np.concatenate(list(self.blocks()))


def _block_rows(n_modes: int, n_times: int) -> int:
    """Samples per Monte Carlo block: a (rows, N) block and a (T, rows) branch fit the budget."""
    return max(1, MC_BLOCK_BYTES // (16 * max(n_modes, n_times)))


def sample_thermal_bath(
    bath: DiscreteBath, thermal: ThermalSpec, count: int, seed: int
) -> ThermalSampleSet:
    """The stream of ``count`` thermal label vectors, one complex Gaussian per mode.

    Mode j has independent real and imaginary parts of variance n_j / 2, so
    E|lambda_j|^2 = n_j. Nothing is drawn here: the set stores the per-mode
    scale and the seed, and its blocks are drawn when they are consumed.
    """
    if thermal.beta == 0:
        raise InfiniteOccupationError(
            "infinite variance: beta = 0 gives divergent thermal occupations"
        )
    scale = np.sqrt(thermal.occupations(bath) / 2.0)
    return ThermalSampleSet(scale=scale, count=count, seed=seed, beta=thermal.beta)


@dataclass(frozen=True)
class GaussianMoments:
    """First and second moments of the system mode, <b> and <b^dag b>, per time."""

    mean_amplitude: complex | np.ndarray
    occupation: float | np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.occupation < np.abs(self.mean_amplitude) ** 2 - 1e-9):
            raise ValueError("occupation cannot fall below the squared mean amplitude")


class MomentErrors(NamedTuple):
    mean_amplitude: float
    occupation: float


def monte_carlo_moments(
    alpha: complex,
    thermal: ThermalSpec,
    coeffs: PropagatorCoefficients,
    samples: ThermalSampleSet,
) -> tuple[GaussianMoments, MomentErrors]:
    """Monte Carlo estimate of the system moments over thermal bath samples.

    Each sample is a joint coherent state, so its evolved system branch is the
    coherent label alpha * survival + sum_j lambda_j absorption_j and
    contributes |label|^2 to the occupation with no within-branch correction.
    The samples are streamed: each block is one (T, N) @ (N, rows) product,
    and the per-time means and sums of squared deviations of the blocks are
    merged pairwise (Chan, Golub and LeVeque). Block and branch both stay
    within ``MC_BLOCK_BYTES``, so memory is O(T * N + MC_BLOCK_BYTES) for any
    sample count.
    """
    if samples.n_modes != coeffs.n_modes:
        raise ValueError("sample set and coefficients disagree on the mode count")
    if abs(samples.beta - thermal.beta) > 1e-12 * max(1.0, abs(thermal.beta)):
        raise ValueError("sample set was drawn at a different temperature")

    count = samples.count
    shape = np.shape(coeffs.survival)
    offsets = complex(alpha) * np.reshape(coeffs.survival, (-1, 1))
    absorption = coeffs.absorption.reshape(offsets.size, -1)
    # Running per-time statistics of the samples seen so far; merging the
    # first block into these zeros reproduces the block's own exactly.
    mean_amplitude = np.zeros(offsets.size, dtype=complex)
    occupation, spread_m2, occ_m2 = np.zeros((3, offsets.size))
    seen = 0
    for block in samples.blocks(_block_rows(samples.n_modes, offsets.size)):
        branch = absorption @ block.T
        branch += offsets
        rows = branch.shape[1]
        total = seen + rows
        pair_weight = seen * rows / total
        block_mean = branch.mean(axis=1)
        occ = np.abs(branch) ** 2
        delta_occ = occ.mean(axis=1) - occupation
        occ_m2 += occ.var(axis=1) * rows + delta_occ**2 * pair_weight
        occupation += delta_occ * (rows / total)
        branch -= block_mean[:, None]
        delta = block_mean - mean_amplitude
        spread_m2 += np.sum(np.abs(branch) ** 2, axis=1) + np.abs(delta) ** 2 * pair_weight
        mean_amplitude += delta * (rows / total)
        seen = total

    # Standard errors of the two sample means, with the unbiased (count - 1) variance.
    errors = np.sqrt(np.stack([spread_m2, occ_m2]) / count / max(count - 1, 1))
    if count == 1:
        errors[:] = math.inf
    # mean(|x|^2) >= |mean(x)|^2 holds for any sample, so the moment invariant
    # is automatic here.
    moments = GaussianMoments(mean_amplitude.reshape(shape)[()], occupation.reshape(shape)[()])
    return moments, MomentErrors(*(e.reshape(shape)[()] for e in errors))


def exact_thermal_moments(
    alpha: complex,
    bath: DiscreteBath,
    thermal: ThermalSpec,
    coeffs: PropagatorCoefficients,
) -> GaussianMoments:
    """Exact thermal-average moments from the linear operator evolution.

    <b(t)> = alpha * survival and
    <b^dag b>(t) = |alpha * survival|^2 + sum_j n_j |absorption_j|^2; thermal
    modes contribute only through their mean occupations. Requires oracle
    coefficients so the result is exact at the given finite bath.
    """
    if coeffs.provenance != PROVENANCE_ORACLE:
        raise ValueError("exact thermal moments require oracle coefficients")
    if coeffs.n_modes != bath.n_modes:
        raise ValueError("coefficients and bath disagree on the mode count")
    mean_amplitude = complex(alpha) * coeffs.survival
    occupation = np.abs(mean_amplitude) ** 2 + dissipation_sum(coeffs, thermal.occupations(bath))
    return GaussianMoments(mean_amplitude=mean_amplitude, occupation=occupation)
