"""Finite-temperature decay: the exact thermal channel, enhancement factor,
conditional state, effective Hamiltonian laws, and a seeded Monte Carlo
sampler checked against the channel's exact moments.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .decay import CoherentSuperposition, DensityMatrixFock, basis_amplitudes, default_fock_cutoff
from .propagator import (
    _COMPLEX_TERMS,
    PROVENANCE_ORACLE,
    PropagatorCoefficients,
    _chunked_product,
    as_times,
)

SHORT_TIME_WINDOW = 0.1
# Bytes of one Monte Carlo block: its (rows, r) normal draws and its (T, rows) branch values.
MC_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class ThermalFactor:
    """Temperature enhancement of the conditional state normalization (>= 1), per time."""

    value: float | np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.asarray(self.value) < 1.0 - 1e-12):
            raise ValueError(f"thermal factor must be at least 1 (got {self.value})")


@dataclass(frozen=True)
class ThermalAttenuator:
    """The system's exact thermal channel: its survival u and added noise N, per time.

    In this excitation-conserving quadratic model the bath acts on the system
    mode only through u(t) and N(t) = sum_j n_j |v_j(t)|^2 over the
    occupations n_j of the bath modes: a thermal attenuator (Weedbrook et
    al., Rev. Mod. Phys. 84, 621 (2012)). Its methods are the exact laws of
    the finite bath.
    """

    survival: complex | np.ndarray
    noise: float | np.ndarray

    @classmethod
    def from_coefficients(cls, coeffs: PropagatorCoefficients, occupations) -> ThermalAttenuator:
        """The channel of oracle ``coeffs``, with mode j weighted by ``occupations[j]``."""
        if coeffs.provenance != PROVENANCE_ORACLE:
            raise ValueError("the exact thermal channel requires oracle coefficients")
        if coeffs.n_modes != np.size(occupations):
            raise ValueError("coefficients and occupations disagree on the mode count")
        noise = np.abs(coeffs.absorption)
        noise *= noise
        noise *= occupations
        return cls(survival=coeffs.survival, noise=np.sum(noise, axis=-1)[()])

    def phi_discrete(self) -> ThermalFactor:
        """Mode-resolved enhancement of the conditional state normalization: 1 + N."""
        return ThermalFactor(value=1.0 + self.noise)

    def occupation(self, alpha: complex):
        """<b^dag b> from a coherent label ``alpha``: |alpha u|^2 + N."""
        return np.abs(complex(alpha) * self.survival) ** 2 + self.noise

    def fock_mean(self, n: int):
        """<b^dag b> from the number state ``n``: n |u|^2 + N."""
        return n * np.abs(self.survival) ** 2 + self.noise


def thermal_mean_number(n0: float, n_th: float, gamma: float, t):
    """Broadband mean excitation number n0 e^{-gamma t} + n_th (1 - e^{-gamma t}), per time.

    The system starts with mean number ``n0`` and relaxes towards the bath's
    occupation ``n_th`` at its frequency; with n0 = 0 and n_th = 1 it is the
    broadband law of the transferred probability :func:`dissipation_sum`.
    """
    t = as_times(t)
    if n_th < 0:
        raise ValueError("n_th must be nonnegative")
    with np.errstate(over="ignore"):  # gamma t past float64 is the -inf exponent
        exponent = -gamma * t
    return (n0 * np.exp(exponent) + n_th * -np.expm1(exponent))[()]


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
        with np.errstate(over="ignore"):  # rate t past float64 is the -inf exponent
            damping = np.exp(-0.5 * rate * t)
            survival = np.exp(-rate * t)
        amplitude = np.exp(-1j * n * self.omega_b * t) * damping
        mean_number = n * survival
        with np.errstate(divide="ignore"):
            decay_time = np.divide(1.0, rate)  # infinite where nothing decays
        return FockEvolution(amplitude[()], mean_number[()], decay_time)

    def evolve_coherent(self, alpha: complex, t) -> CoherentEvolution:
        """Closed-form coherent-state evolution and its decay time 1/((n_th + 1) gamma)."""
        t = as_times(t)
        with np.errstate(over="ignore"):  # gamma t past float64 is the -inf exponent
            weight = np.exp(-0.5 * self.n_th * self.gamma * t)
            damping = np.exp(-0.5 * self.gamma * t)
            mean_number = abs(alpha) ** 2 * np.exp(-(self.n_th + 1.0) * self.gamma * t)
        label = _array(alpha) * (damping * np.exp(-1j * self.omega_b * t))
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
        amps = basis_amplitudes(state, n_max)
        evolved = amps * self.evolve_fock(np.arange(n_max + 1), t[..., None]).amplitude
        pre_trace = np.sum(np.abs(evolved) ** 2, axis=-1)
        rho = evolved[..., :, None] * np.conj(evolved[..., None, :]) / pre_trace[..., None, None]
        return DensityMatrixFock(entries=rho), pre_trace[()]


# --------------------------------------------------------------------------
# thermal sampling and moments


def _block_rows(rank: int, n_times: int) -> int:
    """Samples per Monte Carlo block: its (rows, r) draws and (T, rows) branch fit the budget."""
    return max(1, MC_BLOCK_BYTES // (16 * (rank + n_times)))


def _rank(count: int, n_modes: int, n_times: int) -> int:
    """Most columns r of the Monte Carlo factor for ``count`` samples of N modes at T times.

    Drawn directly, each sample costs 2N normals and a T x N product, and
    r = N. The Gram of the branch covariance costs as much as T samples'
    products, so it is factored only for more samples than grid times, and
    only where T < N leaves columns to save; then r <= T.
    """
    return n_times if n_times < min(n_modes, count) else n_modes


def monte_carlo_bytes(count: int, n_modes: int, n_times: int) -> int:
    """Bytes :func:`monte_carlo_moments` takes for ``count`` samples of N modes at T times.

    It holds the (T, N) absorption array weighted by the occupations
    (16 N T bytes); where it factors the branch covariance (:func:`_rank`)
    also that array's conjugate while the Gram is summed (16 N T bytes), the
    T x T Gram and one more T x T array at a time (a chunk's product, a
    rank-one update or the factor; 16 T^2 bytes each); and at most two
    blocks of ``MC_BLOCK_BYTES`` whatever the sample count. An exact
    integer, for any size.
    """
    factored = _rank(count, n_modes, n_times) < n_modes
    gram = 16 * n_times * (n_modes + 2 * n_times) if factored else 0
    return 16 * n_times * n_modes + gram + 2 * MC_BLOCK_BYTES


def check_squared_occupations(alpha: complex, occupations: np.ndarray, count: int) -> None:
    """Raise ValueError where the Monte Carlo sums of squared occupations would overflow.

    A sample's occupation |alpha u_t + (L z)_t|^2 is at most
    2 |alpha|^2 + 2 |(L z)_t|^2, where L is the (T, r) branch factor,
    r <= N, and z holds r complex numbers of two normal draws each. numpy's
    ziggurat draw stays within 14 standard deviations (its tail is
    r - ln(u) / r with r < 3.7 and u >= 2^-53), so |z|^2 <= 392 r. Each row
    of L, drawn directly as A diag(sqrt(n / 2)) or factored from the
    covariance it makes, has |L_t|^2 = sum_j n_j |v_j(t)|^2 / 2
    <= max_j n_j / 2, as |u|^2 + sum_j |v_j|^2 = 1. So the occupation is at
    most 2 |alpha|^2 + 392 N max_j n_j over the N ``occupations``, and the
    moments add up to twice ``count`` squares of such occupations.
    """
    bound = 2.0 * abs(alpha) * abs(alpha) + 392.0 * occupations.size * float(np.max(occupations))
    limit = math.sqrt(int(sys.float_info.max) / (2 * count))  # int / int: any count
    if not bound <= limit:
        raise ValueError(
            f"thermal Monte Carlo squares per-sample occupations of up to {bound:.3g}, over the "
            f"{limit:.3g} that {count} samples allow in float64 (lower alpha or raise beta)"
        )


def _gram_factor(weighted: np.ndarray) -> np.ndarray:
    """A (T, k) factor L with L L^H = K, the Gram ``weighted @ weighted^H`` of a (T, N) array.

    K is summed over the fixed chunks of _COMPLEX_TERMS modes
    (:func:`_chunked_product`) and then factored in place by a right-looking
    Cholesky with diagonal pivoting, written as elementwise numpy updates:
    LAPACK's factorizations round differently with the number of threads,
    these updates do not. Each step
    takes the largest remaining pivot. Once that is at rounding level,
    T eps max_t K_tt, the factor stops: every entry of the remaining Schur
    complement is then that small too, so L L^H = K to about
    T eps max_t K_tt, and k is the numerical rank of K, at most min(N, T).
    (Without pivoting, a numerically singular K, as on a fine grid or at
    nearly repeated times, puts a rounding-level pivot ahead of larger ones
    and the factor breaks.) Besides its argument it holds K, one more
    array of at most 16 T^2 bytes at a time (a chunk's product, a rank-one
    update or L) and, while K is summed, the argument's conjugate.
    """
    size = len(weighted)
    work = _chunked_product(weighted, weighted.conj().T, _COMPLEX_TERMS)
    order = np.arange(size)
    floor = size * np.finfo(float).eps * float(np.max(work.diagonal().real, initial=0.0))
    rank = size
    for k in range(size):
        p = k + int(np.argmax(work.diagonal()[k:].real))
        pivot = work[p, p].real
        if not pivot > floor:
            rank = k
            break
        work[[k, p]] = work[[p, k]]
        work[:, [k, p]] = work[:, [p, k]]
        order[[k, p]] = order[[p, k]]
        work[:k, k] = 0.0  # no later swap moves these rows or this column
        work[k:, k] /= math.sqrt(pivot)
        column = work[k + 1 :, k]
        work[k + 1 :, k + 1 :] -= column[:, None] * column.conj()
    return work[np.argsort(order), :rank]


def _branch_factor(absorption: np.ndarray, scale: np.ndarray, count: int) -> np.ndarray:
    """The (T, r) factor L of the branch covariance: L L^H = A diag(n / 2) A^H.

    ``absorption`` is the (T, N) array A and ``scale`` is sqrt(n / 2). Where
    :func:`_rank` gives r = N, L is A diag(scale) itself; otherwise it is the
    factor of the T x T Gram of that array, with as many columns as its
    numerical rank.
    """
    weighted = absorption * scale
    n_times, n_modes = weighted.shape
    if _rank(count, n_modes, n_times) == n_modes:
        return weighted
    return _gram_factor(weighted)


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
    occupations: np.ndarray,
    coeffs: PropagatorCoefficients,
    count: int,
    seed: int,
) -> tuple[GaussianMoments, MomentErrors]:
    """Monte Carlo estimate of the system moments over ``count`` thermal bath samples.

    Each sample draws a label lambda_j ~ CN(0, n_j) per mode, n_j being
    ``occupations[j]``, with independent real and imaginary parts of
    variance n_j / 2. The sample is then a joint coherent state, so its
    evolved system branch is the coherent label alpha * survival +
    sum_j lambda_j absorption_j and contributes |label|^2 to the occupation
    with no within-branch correction.
    Over the T times the branch minus alpha * survival is a circular Gaussian
    vector with covariance K = A diag(n) A^H, so it is drawn as L z: L is the
    (T, r) factor of :func:`_branch_factor` and z holds 2r standard normals
    from ``np.random.default_rng(seed)``, taken as r complex numbers. The
    samples are streamed in blocks of ``MC_BLOCK_BYTES``, and the per-time
    means and sums of squared deviations of the blocks are merged pairwise
    (Chan, Golub and LeVeque). Memory is O(T * N + T^2 + MC_BLOCK_BYTES) for
    any sample count.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1 (got {count})")
    if coeffs.n_modes != np.size(occupations):
        raise ValueError("coefficients and occupations disagree on the mode count")
    scale = np.sqrt(occupations / 2.0)

    shape = np.shape(coeffs.survival)
    offsets = complex(alpha) * np.reshape(coeffs.survival, (-1, 1))
    factor = _branch_factor(coeffs.absorption.reshape(offsets.size, -1), scale, count)
    rank = factor.shape[1]
    rows = _block_rows(rank, offsets.size)
    rng = np.random.default_rng(seed)
    # Running per-time statistics of the samples seen so far; merging the
    # first block into these zeros reproduces the block's own exactly.
    mean_amplitude = np.zeros(offsets.size, dtype=complex)
    occ_mean, spread_m2, occ_m2 = np.zeros((3, offsets.size))
    seen = 0
    while seen < count:
        draws = rng.standard_normal((min(rows, count - seen), 2 * rank)).view(complex)
        branch = _chunked_product(factor, draws.T, _COMPLEX_TERMS)
        del draws
        branch += offsets
        size = branch.shape[1]
        total = seen + size
        pair_weight = seen * size / total
        block_mean = branch.mean(axis=1)
        occ = np.abs(branch) ** 2
        delta_occ = occ.mean(axis=1) - occ_mean
        occ_m2 += occ.var(axis=1) * size + delta_occ**2 * pair_weight
        occ_mean += delta_occ * (size / total)
        branch -= block_mean[:, None]
        delta = block_mean - mean_amplitude
        spread_m2 += np.sum(np.abs(branch) ** 2, axis=1) + np.abs(delta) ** 2 * pair_weight
        mean_amplitude += delta * (size / total)
        seen = total
        # Hold no block while the next is drawn: with two alive, the allocator
        # could grow and trim the heap once per block and fault in fresh pages.
        del branch, occ

    # Standard errors of the two sample means, with the unbiased (count - 1) variance.
    errors = np.sqrt(np.stack([spread_m2, occ_m2]) / count / max(count - 1, 1))
    if count == 1:
        errors[:] = math.inf
    # The occupation comes from the sample identity mean(|x|^2) = |mean(x)|^2 +
    # mean(|x - mean(x)|^2), so it keeps the moment invariant after rounding
    # too: at large |alpha| the streamed mean of |x|^2 can round below |mean(x)|^2.
    occupation = np.abs(mean_amplitude) ** 2 + spread_m2 / count
    moments = GaussianMoments(mean_amplitude.reshape(shape)[()], occupation.reshape(shape)[()])
    return moments, MomentErrors(*(e.reshape(shape)[()] for e in errors))
