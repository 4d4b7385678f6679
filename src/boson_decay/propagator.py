"""Single-excitation propagator coefficients, analytically and from an exact oracle.

The annihilation operator of the system mode evolves into a linear combination
of the initial system and bath operators. The closed forms below hold in the
broadband (flat, wide-bath) regime; the oracle realizes the same coefficients
exactly at finite mode count via one eigendecomposition of the arrowhead
single-excitation Hamiltonian, reused for every requested time. The
decomposition is kept as O(N) numbers and evaluated matrix-free, so a grid of
T times takes O(T N + 128 N) memory.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .bath import DiscreteBath

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
    provenance: str

    def __post_init__(self) -> None:
        if self.provenance not in (PROVENANCE_ANALYTIC, PROVENANCE_ORACLE):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.absorption.ndim < 1 or self.absorption.shape[:-1] != np.shape(self.survival):
            raise ValueError("absorption must have one entry per bath mode and time")
        if np.any(np.abs(self.survival) > 1.0 + 1e-9):
            raise ValueError("survival amplitude cannot exceed unit magnitude")

    @property
    def n_modes(self) -> int:
        return int(self.absorption.shape[-1])


def as_times(t) -> np.ndarray:
    """One time or a grid of times as a float array; negative times are rejected."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    return t


def analytic_survival(system: SystemMode, gamma: float, t):
    """Broadband closed form for the system self-amplitude at time(s) ``t``: damped rotation."""
    t = as_times(t)
    return (np.exp(-0.5 * gamma * t) * np.exp(-1j * system.omega_b * t))[()]


def analytic_propagator(
    system: SystemMode, gamma: float, bath: DiscreteBath, t
) -> PropagatorCoefficients:
    """Broadband closed-form coefficients for every mode of ``bath`` at time(s) ``t``.

    Bath mode j reaches the system with amplitude
    xi_j e^{-i omega_j t} (e^{-(gamma/2 + i Delta_j) t} - 1) / (Delta_j - i gamma/2),
    Delta_j = omega_b - omega_j. On a grid ``absorption`` has shape (T, N),
    as from :meth:`ExactPropagator.evaluate`.
    """
    survival = analytic_survival(system, gamma, t)
    t = as_times(t)[..., None]
    detuning = system.omega_b - bath.omegas
    numerator = np.exp(-0.5 * gamma * t) * np.exp(-1j * detuning * t) - 1.0
    kernel = np.exp(-1j * bath.omegas * t) * numerator / (detuning - 0.5j * gamma)
    return PropagatorCoefficients(
        t=t[..., 0][()],
        survival=survival,
        absorption=bath.xis * kernel,
        provenance=PROVENANCE_ANALYTIC,
    )


_EPS = np.finfo(float).eps
# Roots solved together. Each solver thread holds a workspace of two
# (_ROOT_BLOCK, N) float arrays, so the solve takes O(W * _ROOT_BLOCK * N)
# memory on W threads; the root blocks also fix the order of every sum and
# of the Loewner product, whatever W is.
_ROOT_BLOCK = 128
_MAX_ROOT_STEPS = 64
# Memory the eigenvalue solve may take per bath mode; the config's size check
# charges the same figure. It admits two workspaces of 2 * 8 * _ROOT_BLOCK bytes.
SOLVER_BYTES_PER_MODE = 4096


def _root_blocks(count: int) -> list[np.ndarray]:
    return [np.arange(s, min(s + _ROOT_BLOCK, count)) for s in range(0, count, _ROOT_BLOCK)]


def _pole_gaps(
    poles: np.ndarray, origin: np.ndarray, tau: np.ndarray, out=None, columns=slice(None)
) -> np.ndarray:
    """lambda_k - omega_j for roots lambda_k = omega_origin + tau, shape (k, j).

    Formed as (omega_origin - omega_j) + tau, never from the rounded
    lambda_k: a root next to its origin pole keeps its full relative
    distance to it, which is what keeps the eigenvectors orthogonal.
    Only the poles j of ``columns`` are taken; written into ``out`` when given.
    """
    gaps = np.subtract(poles[origin][:, None], poles[columns], out=out)
    gaps += tau[:, None]
    return gaps


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, or every CPU where there is none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _worker_count(blocks: int) -> int:
    """Solver threads for ``blocks`` root blocks: one per usable CPU, within the memory budget."""
    budget = SOLVER_BYTES_PER_MODE // (2 * 8 * _ROOT_BLOCK)
    return max(1, min(usable_cpus(), blocks, budget))


def _on_workers(work, items, workspaces: list) -> None:
    """Call ``work(item, workspace)`` for every item, on one thread per workspace.

    The calling thread is the first worker; each takes the next item when it
    is free, and numpy releases the interpreter lock inside its loops, so
    they overlap. The first exception in ``work`` stops them all and is
    raised here once every thread has ended.
    """
    items, lock, failures = iter(items), threading.Lock(), []

    def run(workspace):
        while not failures:
            with lock:
                item = next(items, None)
            if item is None:
                return
            try:
                work(item, workspace)
            except BaseException as exc:
                failures.append(exc)

    threads = [threading.Thread(target=run, args=(w,)) for w in workspaces[1:]]
    for thread in threads:
        thread.start()
    run(workspaces[0])
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


def _secular_block(apex, poles, sq_couplings, ks, lower, upper, workspace):
    """Origin pole index and offset tau of the secular roots ``ks`` (one block).

    Root 0 lies in (lower, omega_0), root k in (omega_{k-1}, omega_k) and root
    N in (omega_{N-1}, upper); lower and upper lie strictly beyond the outer
    roots. An interior root is solved as an offset from the nearer pole of
    its bracket, found from the sign of the secular function at the midpoint;
    the outer roots from the pole that closes their bracket. Each step fits
    the secular function g(x) = omega_o - apex + x + sum_j c_j^2 / (delta_j - x)
    (delta_j = omega_j - omega_o) by a rational model that matches g and g' at
    x and keeps the bracket poles: c + b_L/(delta_L - y) + b_R/(delta_R - y)
    inside the band, y + c + b/(delta - y) for an outer root. Its zero is the
    root of a quadratic; a step leaving the current bracket is replaced by
    bisection. A root stops once |g| is within the rounding error of its
    evaluation, its step no longer moves it, or its bracket has collapsed.
    The per-pole terms live in ``workspace``, two (_ROOT_BLOCK, N) arrays.
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
    for step in range(_MAX_ROOT_STEPS):
        k, o = ks[active], origin[active]
        is_bottom, is_top = bottom[active], top[active]
        inv = _pole_gaps(poles, o, x, out=workspace[0][: k.size])
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
        done = np.abs(g) <= 8.0 * _EPS * rounding
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
        done |= (nxt == x) | (hi - lo <= 4.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)))
        tau[active[done]] = x[done]
        keep = ~done
        active, x, lo, hi = active[keep], nxt[keep], lo[keep], hi[keep]
        if active.size == 0:
            break
    tau[active] = x
    return origin, tau


def _deflate(poles: np.ndarray, couplings: np.ndarray):
    """Zero every coupling that moves no eigenvalue by more than eps ||H|| (||H|| < 1 here).

    A coupling below eps is dropped: its pole is an eigenvalue, with a bath
    unit vector. Two coupled poles closer than eps are rotated so that one
    mode carries their joint coupling and the other none (as LAPACK's
    ``dlaed2`` does); the rotated-away off-diagonal entry is below eps / 2.
    Returns the new poles and couplings and the rotations (i, j, cos, sin)
    in the order applied.
    """
    couplings = np.where(couplings > _EPS, couplings, 0.0)
    rotations = []
    coupled = np.flatnonzero(couplings)
    if coupled.size and np.any(np.diff(poles[coupled]) <= _EPS):
        poles = poles.copy()
        last = coupled[0]
        for j in coupled[1:]:
            if poles[j] - poles[last] > _EPS:
                last = j
                continue
            r = math.hypot(couplings[last], couplings[j])
            cos, sin = couplings[last] / r, couplings[j] / r
            poles[last], poles[j] = (
                cos * cos * poles[last] + sin * sin * poles[j],
                sin * sin * poles[last] + cos * cos * poles[j],
            )
            couplings[last], couplings[j] = r, 0.0
            rotations.append((last, j, cos, sin))
    return poles, couplings, rotations


@dataclass(frozen=True)
class ArrowheadSpectrum:
    """Eigendecomposition of an arrowhead matrix, held in O(N) numbers.

    Root k of the secular equation is kept as its origin pole and offset
    ``tau`` (:func:`_secular_block`), so every gap lambda_k - omega_j is
    formed to full relative accuracy (:func:`_pole_gaps`). With the
    recomputed couplings ``c_hat`` these fix eigenvector k as
    ``inv_norm[k] * [1, c_hat_j / (lambda_k - omega_j)]`` over the system row
    and ``bath_rows``; it is never stored. ``poles``, ``tau`` and ``c_hat``
    are in the solver's power-of-two scale, which cancels in every ratio;
    ``roots`` and ``free`` are eigenvalues in the matrix's own units. Each of
    ``free_rows`` (deflated modes, and the system row when nothing couples)
    is an eigenvector by itself. Both hold in the basis reached by
    ``rotations``: (i, j, cos, sin) on bath modes i and j, in the order applied.
    """

    dim: int
    roots: np.ndarray
    origin: np.ndarray
    tau: np.ndarray
    poles: np.ndarray
    c_hat: np.ndarray
    inv_norm: np.ndarray
    bath_rows: np.ndarray
    free_rows: np.ndarray
    free: np.ndarray
    rotations: tuple

    @property
    def _order(self) -> np.ndarray:
        """Roots, then free eigenvalues, sorted ascending (ties: root first)."""
        return np.argsort(np.concatenate((self.roots, self.free)), kind="stable")

    @property
    def eigenvalues(self) -> np.ndarray:
        """All ``dim`` eigenvalues, ascending."""
        return np.concatenate((self.roots, self.free))[self._order]

    @property
    def weights(self) -> np.ndarray:
        """V_0k^2 over ``eigenvalues``: the system mode's share of each eigenvector.

        They sum to one (the sum rule of the system's spectral density).
        """
        return np.concatenate((self.inv_norm**2, (self.free_rows == 0) * 1.0))[self._order]

    def _cauchy(self, ks: np.ndarray) -> np.ndarray:
        """1 / (lambda_k - omega_j) for the roots ``ks`` and every coupled pole j."""
        gaps = _pole_gaps(self.poles, self.origin[ks], self.tau[ks])
        return np.divide(1.0, gaps, out=gaps)

    def _rotate(self, a: np.ndarray, back: bool) -> None:
        """Apply the rotations to the last axis of ``a`` in place, or undo them."""
        for i, j, cos, sin in reversed(self.rotations) if back else self.rotations:
            sin = -sin if back else sin
            a_i, a_j = a[..., 1 + i].copy(), a[..., 1 + j]
            a[..., 1 + i] = cos * a_i + sin * a_j
            a[..., 1 + j] = cos * a_j - sin * a_i

    def vectors(self) -> np.ndarray:
        """The dense eigenvector matrix, one column per entry of ``eigenvalues``.

        It takes (N+1)^2 memory, so only checks and the dense
        :meth:`ExactPropagator.unitary` build it; :meth:`evolve` never does.
        """
        column = np.empty(self.dim, dtype=int)
        column[self._order] = np.arange(self.dim)
        root_column, free_column = np.split(column, [self.roots.size])
        v = np.zeros((self.dim, self.dim))
        v[self.free_rows, free_column] = 1.0
        for ks in _root_blocks(self.roots.size):
            v[0, root_column[ks]] = self.inv_norm[ks]
            vector = self._cauchy(ks) * self.c_hat
            v[self.bath_rows[:, None], root_column[ks]] = vector.T * self.inv_norm[ks]
        self._rotate(v.T, back=True)
        return v

    def evolve(self, x: np.ndarray, times) -> np.ndarray:
        """exp(-i H t) x for every time in ``times``: the shape of ``times`` plus (dim,).

        The components V^T x, the phases and the contraction with V are
        formed one block of 128 roots at a time from the Cauchy matrix
        C_kj = 1 / (lambda_k - omega_j): component k is
        ``inv_norm[k] * (x_0 + sum_j c_hat_j x_j C_kj)``, the system row sums
        ``inv_norm[k] * exp(-i lambda_k t) * component_k`` over the roots and
        bath row j is ``c_hat_j`` times the same sum weighted by C_kj, taken
        as one real matrix product per block of the stacked real and
        imaginary parts. Free rows keep their own phase.
        Memory is O(T N + 128 N) for T times; no (N+1)^2 array is formed.
        """
        times = np.asarray(times, dtype=float)
        flat = times.reshape(-1)
        x = np.array(x, dtype=complex)
        self._rotate(x, back=False)
        free_phases = _phases(flat, self.free)
        y = self.c_hat * x[self.bath_rows]
        system = np.zeros(flat.size, dtype=complex)
        bath = np.zeros((2 * flat.size, self.poles.size))  # real parts, then imaginary
        for ks in _root_blocks(self.roots.size):
            cauchy = self._cauchy(ks)
            components = x[0] + cauchy @ y.real + 1j * (cauchy @ y.imag)
            phased = _phases(flat, self.roots[ks])
            phased *= self.inv_norm[ks] ** 2 * components
            system += phased.sum(axis=1)
            bath += np.concatenate((phased.real, phased.imag)) @ cauchy
        bath *= self.c_hat
        out = np.empty((flat.size, self.dim), dtype=complex)
        out[:, 0] = system
        out.real[:, self.bath_rows], out.imag[:, self.bath_rows] = np.split(bath, 2)
        # Last: with nothing coupled, the system row is free and has no roots.
        out[:, self.free_rows] = free_phases * x[self.free_rows]
        self._rotate(out, back=True)
        return out.reshape(times.shape + (-1,))


def _arrowhead_spectrum(apex: float, poles: np.ndarray, couplings: np.ndarray) -> ArrowheadSpectrum:
    """Spectrum of the arrowhead matrix [[apex, c^T], [c, diag(poles)]].

    The poles ascend strictly and the couplings c are nonnegative. The
    eigenvalues are the roots of the secular equation
    lambda - apex - sum_j c_j^2 / (lambda - omega_j) = 0, one per
    interlacing bracket (:func:`_secular_block`). The couplings are then
    recomputed from the computed roots by the Loewner formula
    c_j^2 = prod_k |lambda_k - omega_j| / prod_{i != j} |omega_i - omega_j|,
    so the roots are the exact eigenvalues of a nearby arrowhead matrix,
    whose eigenvector k is [1, c_j / (lambda_k - omega_j)] normalized (Gu and
    Eisenstat, SIAM J. Matrix Anal. Appl. 16 (1995) 172). Deflated poles
    (:func:`_deflate`) are eigenvalues with their own eigenvectors.

    Three passes run on W threads (:func:`_worker_count`: one per usable
    CPU, at most two under ``SOLVER_BYTES_PER_MODE``) through
    :func:`_on_workers`, each thread reusing a workspace of two
    (_ROOT_BLOCK, N) float arrays allocated here, and each pass writes its
    results in place: the roots and then the norms one root block at a
    time, and between them the Loewner product over W contiguous chunks of
    poles. A chunk multiplies in the factor of every root block in block
    order, so every array of the result is bit-identical for any W. Time is
    O(N^2); memory is O(N) for the result and O(W _ROOT_BLOCK N) for the
    workspaces, as neither the matrix nor its eigenvectors are formed.
    """
    n = poles.size
    # Scale by a power of two near ||H|| (exact), so nothing under- or overflows.
    scale = max(abs(apex), abs(poles[0]), abs(poles[-1])) + float(np.linalg.norm(couplings))
    factor = np.ldexp(1.0, -np.frexp(scale)[1])
    apex = apex * factor
    poles, couplings, rotations = _deflate(poles * factor, couplings * factor)
    coupled = couplings > 0
    if not coupled.any():  # diagonal matrix: every row is an eigenvector
        empty = np.empty(0)
        return ArrowheadSpectrum(
            dim=n + 1,
            roots=empty,
            origin=np.empty(0, dtype=int),
            tau=empty,
            poles=empty,
            c_hat=empty,
            inv_norm=empty,
            bath_rows=np.empty(0, dtype=int),
            free_rows=np.arange(n + 1),
            free=np.concatenate(([apex], poles)) / factor,
            rotations=(),
        )
    d, c = poles[coupled], couplings[coupled]
    m = d.size
    sq = c * c
    spread = 2.0 * float(np.linalg.norm(c))
    lower, upper = min(apex, d[0]) - spread, max(apex, d[-1]) + spread
    blocks = _root_blocks(m + 1)
    workspaces = [
        (np.empty((_ROOT_BLOCK, m)), np.empty((_ROOT_BLOCK, m)))
        for _ in range(_worker_count(len(blocks)))
    ]
    origin, tau = np.empty(m + 1, dtype=int), np.empty(m + 1)

    def roots(ks, workspace):
        origin[ks], tau[ks] = _secular_block(apex, d, sq, ks, lower, upper, workspace)

    _on_workers(roots, blocks, workspaces)
    loewner = np.ones(m)

    def loewner_chunk(cols, workspace):
        """Multiply the Loewner product of the poles ``cols`` by each root block's factor, in order.

        Root k is paired to pole k-1 (k <= j) or pole k (k > j), so every
        ratio lies in (0, 1]; roots 0 and N stay unpaired.
        """
        js = np.arange(cols.start, cols.stop)
        for ks in blocks:
            tile = ks.size * js.size  # contiguous tiles: numpy's loops are slower on strided ones
            paired, ratio = (w.reshape(-1)[:tile].reshape(ks.size, -1) for w in workspace)
            above = d[np.minimum(ks, m - 1)][:, None]
            split = np.clip(ks[0] - cols.start, 0, js.size)
            paired[:, :split] = above
            paired[:, split:] = d[np.maximum(ks - 1, 0)][:, None]
            # Only columns ks[0] <= j < ks[-1] differ by row.
            band = slice(split, np.clip(ks[-1] - cols.start, 0, js.size))
            np.copyto(paired[:, band], above, where=ks[:, None] > js[band])
            paired -= d[cols]
            paired[(ks == 0) | (ks == m)] = 1.0
            _pole_gaps(d, origin[ks], tau[ks], out=ratio, columns=cols)
            ratio /= paired
            np.abs(ratio, out=ratio)
            loewner[cols] *= np.prod(ratio, axis=0)

    width = -(-m // len(workspaces))
    _on_workers(loewner_chunk, [slice(s, min(s + width, m)) for s in range(0, m, width)], workspaces)
    c_hat = np.sqrt(loewner)
    inv_norm = np.empty(m + 1)

    def norms(ks, workspace):
        vector = _pole_gaps(d, origin[ks], tau[ks], out=workspace[0][: ks.size])
        np.divide(c_hat, vector, out=vector)
        vector *= vector
        inv_norm[ks] = 1.0 / np.sqrt(1.0 + np.sum(vector, axis=1))

    _on_workers(norms, blocks, workspaces)
    free_rows = 1 + np.flatnonzero(~coupled)
    return ArrowheadSpectrum(
        dim=n + 1,
        roots=(d[origin] + tau) / factor,
        origin=origin,
        tau=tau,
        poles=d,
        c_hat=c_hat,
        inv_norm=inv_norm,
        bath_rows=1 + np.flatnonzero(coupled),
        free_rows=free_rows,
        free=poles[free_rows - 1] / factor,
        rotations=tuple(rotations),
    )


def _phases(times, eigenvalues: np.ndarray) -> np.ndarray:
    """exp(-i t lambda_k): the shape of ``times`` plus one axis over eigenvalues."""
    return np.exp(-1j * np.multiply.outer(as_times(times), eigenvalues))


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
    """Exact finite-bath propagator from one arrowhead eigendecomposition.

    The decomposition (:func:`_arrowhead_spectrum`: O(N^2) time, the dense
    Hamiltonian never formed) is computed once per (system, bath) pair and
    kept as O(N) numbers in ``spectrum``. Evolving any single-excitation
    vector over T times then costs O(T N^2) time, in one real matrix product
    per block of 128 eigenvalues, and O(T N + 128 N) memory
    (:meth:`ArrowheadSpectrum.evolve`): the (N+1)^2 eigenvector matrix is
    never stored.
    """

    def __init__(self, system: SystemMode, bath: DiscreteBath):
        self.system = system
        self.bath = bath
        self.spectrum = _arrowhead_spectrum(system.omega_b, bath.omegas, bath.xis)

    def unitary(self, t: float) -> np.ndarray:
        """Full (N+1) x (N+1) single-excitation evolution matrix.

        Dense, so it builds the eigenvectors V (:meth:`ArrowheadSpectrum.vectors`)
        and forms ``(V cos) V^T - i (V sin) V^T`` as two real matrix products.
        """
        v = self.spectrum.vectors()
        phases = _phases(t, self.spectrum.eigenvalues)
        u = np.empty(v.shape, dtype=complex)
        u.real = (v * phases.real) @ v.T
        u.imag = (v * phases.imag) @ v.T
        return u

    def propagate(self, x, times) -> np.ndarray:
        """``unitary(t) @ x`` for every time in ``times``: shape of ``times`` plus (N+1,).

        Entry 0 of ``x`` belongs to the system mode and entries 1..N to the
        bath modes.
        """
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.bath.n_modes + 1,):
            raise ValueError("need one amplitude for the system and one per bath mode")
        return self.spectrum.evolve(x, times)

    def evaluate(self, times) -> PropagatorCoefficients:
        """Coefficients over ``times`` (one time or a grid), from one evolution.

        Row 0 of the evolution matrix is the evolved system vector. The
        arrowhead matrix is real symmetric, so the evolution matrix is
        complex symmetric and row 0 also serves as column 0. On a grid the
        result carries ``t`` and ``survival`` of shape (T,) and
        ``absorption`` of shape (T, N), a view into one (T, N+1) array. A
        scalar time gives scalar ``t`` and ``survival``.
        """
        times = np.asarray(times, dtype=float)
        system_vector = np.zeros(self.bath.n_modes + 1, dtype=complex)
        system_vector[0] = 1.0
        rows = self.spectrum.evolve(system_vector, times)
        return PropagatorCoefficients(
            t=times[()],
            survival=rows[..., 0][()],
            absorption=rows[..., 1:],
            provenance=PROVENANCE_ORACLE,
        )


def dissipation_sum(coeffs: PropagatorCoefficients, occupations=None):
    """sum_j n_j |absorption_j|^2, per time.

    With every n_j = 1 (no ``occupations``) this is the total probability
    transferred into the bath; with the thermal occupations of the bath modes
    it is the thermal population they feed into the system.
    """
    weights = np.abs(coeffs.absorption)
    weights *= weights
    if occupations is not None:
        weights *= occupations
    return np.sum(weights, axis=-1)[()]


def unitarity_defect(coeffs: PropagatorCoefficients):
    """Deviation of ``|survival|^2 + dissipation_sum`` from one, per time.

    Vanishes to roundoff for oracle coefficients; for analytic coefficients
    summed over a discrete bath it measures the broadband-approximation error.
    """
    return np.abs(np.abs(coeffs.survival) ** 2 + dissipation_sum(coeffs) - 1.0)[()]
