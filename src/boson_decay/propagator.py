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
    with np.errstate(over="ignore"):  # gamma t past float64 is the -inf exponent
        damping = np.exp(-0.5 * gamma * t)
    return (damping * np.exp(-1j * system.omega_b * t))[()]


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
    with np.errstate(over="ignore"):  # gamma t past float64 is the -inf exponent
        damping = np.exp(-0.5 * gamma * t)
    numerator = damping * np.exp(-1j * detuning * t) - 1.0
    kernel = np.exp(-1j * bath.omegas * t) * numerator / (detuning - 0.5j * gamma)
    return PropagatorCoefficients(
        t=t[..., 0][()],
        survival=survival,
        absorption=bath.xis * kernel,
        provenance=PROVENANCE_ANALYTIC,
    )


_EPS = np.finfo(float).eps
# Roots solved together. The solve holds one workspace of two (_ROOT_BLOCK, N)
# float arrays, O(_ROOT_BLOCK * N) memory; the root blocks, split into the
# tiles of _root_tiles, also fix the order of every sum and of the Loewner product.
_ROOT_BLOCK = 128
_MAX_ROOT_STEPS = 64
# Memory the eigenvalue solve may take per mode; solve_bytes charges the same
# figure. It covers the one workspace, 2 * 8 * _ROOT_BLOCK = 2 KiB per mode,
# plus the O(N) result: the traced peak at N = 2000 is 2254 bytes per mode.
SOLVER_BYTES_PER_MODE = 4096
# A pole at least one interval width beyond an interval has Bernstein ellipse
# parameter 3 + sqrt(8) or more there, and the Chebyshev interpolant on r nodes
# of its term c^2 / (omega - lambda) or c^2 / (omega - lambda)^2 is then within
# 2 (1 + 2 r) (3 + sqrt(8))^-r of the term, relatively. _FAR_NODES is the least
# r that puts this below eps: 24. The Loewner pass interpolates log|x - omega|,
# whose Chebyshev coefficients there are 2 rho^-n / n: on r nodes it is within
# 4 rho^-r / (r (1 - 1 / rho)) of the term, absolutely, 8.5e-20 at r = 24, so
# the 2 * _ROOT_BLOCK terms of one tile's far factor stay below eps / 10 in its log.
_FAR_RHO = 3.0 + math.sqrt(8.0)
_FAR_NODES = next(r for r in range(1, 64) if 2 * (1 + 2 * r) * _FAR_RHO**-r <= _EPS)
_ANGLES = (np.arange(_FAR_NODES) + 0.5) * (math.pi / _FAR_NODES)
_NODES = np.cos(_ANGLES)  # Chebyshev points of the first kind, on [-1, 1]
_NODE_WEIGHTS = (-1.0) ** np.arange(_FAR_NODES) * np.sin(_ANGLES)  # their barycentric weights
# The root model converges quadratically: after a step within sqrt(eps) |x| the
# next would be within about eps |x|, a rounding-size move, so the root is settled.
_SETTLED = math.sqrt(_EPS)
# OpenBLAS rounds a product differently with its thread count unless two things
# hold. Its output has a whole number of groups of _ALIGN columns, so every column
# range that ArrowheadSpectrum.evolve multiplies starts and ends on one. And its
# inner dimension is short enough that OpenBLAS does not split it at boundaries
# that depend on the count: a longer sum goes through _add_product or
# _chunked_product, one piece of at most so many terms at a time. With OpenBLAS
# 0.3.31 on x86-64 the limit is 384 terms for a real matrix product (385 already
# round differently on one thread than on two), 512 for a real matrix-vector
# product, and 128 for a complex product (193 already differ).
_ALIGN = 8
_REAL_TERMS = 16 * _FAR_NODES  # 16 far-field tiles of nodes
_VECTOR_TERMS = 512
_COMPLEX_TERMS = 128
# evolve adds each product into its result this many columns at a time, so the
# product's temporary over T times is 2T x 512 floats, however many modes.
_PRODUCT_COLUMNS = 4 * _ROOT_BLOCK


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


@dataclass(frozen=True)
class _Tile:
    """One root tile of :func:`_root_tiles` and how it meets the poles: the one geometry of every pass.

    The roots ``ks`` sum their ``near`` band term by term. Over each of the
    ``far`` sides, 1 / (lambda - omega_j) is interpolated in lambda at the
    24 Chebyshev points x_p = mid + half t_p of the tile's bracket interval,
    within eps of each term (the comment at _FAR_RHO says why). Every pass
    reads the far poles at the nodes through :meth:`kernel` and carries node
    values to the roots through :meth:`lagrange`. A tile holding root 0 or N
    has no interval: ``mid`` and ``half`` are nan, and ``far`` is empty.
    """

    ks: np.ndarray
    near: slice
    far: tuple
    mid: float
    half: float

    def kernel(self, poles: np.ndarray, out=None) -> np.ndarray:
        """1 / (x_p - omega_j) at the nodes for the ``poles`` omega_j, shape (24, j).

        Formed as (x_p - mid) - (omega_j - mid), within 2 eps as mid is
        nearer; a pole at +inf gives -0. Written into ``out`` when given.
        """
        gaps = np.subtract.outer(self.half * _NODES, poles - self.mid, out=out)
        return np.divide(1.0, gaps, out=gaps)

    def lagrange(self, poles: np.ndarray, origin: np.ndarray, tau: np.ndarray):
        """Barycentric terms w_p / (s_k - t_p) at the roots, shape (k, 24), and their row sums.

        Root lambda_k = omega_origin + tau sits at s_k = ((omega_origin - mid) + tau) / half.
        A row over its sum is the Lagrange basis l_p(lambda_k); a root exactly
        on a node gets that node's indicator row instead, whose sum is one.
        """
        gaps = np.subtract.outer(((poles[origin] - self.mid) + tau) / self.half, _NODES)
        at_node = gaps == 0.0
        exact = at_node.any(axis=1)
        gaps[at_node] = 1.0
        terms = np.divide(_NODE_WEIGHTS, gaps, out=gaps)
        terms[exact] = at_node[exact]  # on a node, its own value
        return terms, terms.sum(axis=1)


def _root_tiles(poles: np.ndarray) -> tuple:
    """The roots 0..N as the tiles that every pass solves, in a fixed order, each with its geometry.

    The tiles are blocks of _ROOT_BLOCK roots, unless the other roots of a
    block holding root 0 or N take a far side. Then roots 0 and N, whose
    brackets reach beyond the poles, come first as one tile over every pole,
    and the rest of each block is a tile with its near band and far sides.
    A near band is the bracket poles omega_{ks[0]-1} .. omega_{ks[-1]} plus
    _ROOT_BLOCK poles on each side. A far side stays far only where it holds
    at least _ROOT_BLOCK poles and its nearest pole lies at least one
    interval width beyond the bracket interval [a, b]; otherwise it joins
    the near band, so a bath of at most 3 _ROOT_BLOCK - 1 modes keeps every
    pole near. With no pole there is no root and no tile.
    """
    m = poles.size

    def tile(ks):
        if not ks.size or ks[0] == 0 or ks[-1] == m:
            return _Tile(ks, slice(0, m), (), math.nan, math.nan)
        a, b = poles[ks[0] - 1], poles[ks[-1]]
        start, stop = ks[0] - 1 - _ROOT_BLOCK, ks[-1] + 1 + _ROOT_BLOCK
        if start < _ROOT_BLOCK or not a - poles[start - 1] >= b - a:
            start = 0
        if stop > m - _ROOT_BLOCK or not poles[stop] - b >= b - a:
            stop = m
        far = (slice(0, start), slice(stop, m)) if (start, stop) != (0, m) else ()
        return _Tile(ks, slice(start, stop), far, 0.5 * (a + b), 0.5 * (b - a))

    blocks = [np.arange(s, min(s + _ROOT_BLOCK, m + 1)) for s in range(0, m + 1 if m else 0, _ROOT_BLOCK)]
    inner = [tile(ks[(ks > 0) & (ks < m)]) for ks in blocks]
    if any(t.far for t in inner[:1] + inner[-1:]):
        return (tile(np.array([0, m])), *(t for t in inner if t.ks.size))
    return tuple(tile(ks) for ks in blocks)


def _far_sums(poles, sq_couplings, tile, workspace):
    """An interpolant of the secular sums over the far sides of ``tile``, or None if it has none.

    The far sums sum_j c_j^2 / (omega_j - lambda) and
    sum_j c_j^2 / (omega_j - lambda)^2 of each far side are taken once at
    the nodes, in the (_ROOT_BLOCK, N) arrays of ``workspace``. Returns
    ``sums(origin, tau)``: the left value, left slope, right value and right
    slope at lambda = omega_origin + tau, shape (k, 4).
    """
    if not tile.far:
        return None
    values = np.zeros((4, _FAR_NODES))
    for row, cols in zip((0, 2), tile.far):
        shape = (_FAR_NODES, cols.stop - cols.start)
        kernel, terms = (w.reshape(-1)[: shape[0] * shape[1]].reshape(shape) for w in workspace)
        tile.kernel(poles[cols], out=kernel)
        np.multiply(sq_couplings[cols], kernel, out=terms)  # c_j^2 / (x_p - omega_j)
        values[row] -= terms.sum(axis=1)  # 0 - sum: an empty side keeps +0
        terms *= kernel
        values[row + 1] = terms.sum(axis=1)

    def sums(origin, tau):
        terms, total = tile.lagrange(poles, origin, tau)
        return np.einsum("kr,cr->kc", terms, values) / total[:, None]

    return sums


def _secular_block(apex, poles, sq_couplings, tile, lower, upper, workspace):
    """Origin pole index and offset tau of the secular roots of ``tile`` (a :class:`_Tile`).

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
    evaluation, or its bracket has collapsed; it is settled without a
    further evaluation once its step is within sqrt(eps) |x|.

    Only the tile's near band is summed term by term at every step, in two
    (k, near) arrays of ``workspace``; its far sides add their interpolated
    sums (:func:`_far_sums`), the left ones to the part psi left of the root.
    A tile with no far side (the tile of roots 0 and N, or any block of a
    bath of at most 3 _ROOT_BLOCK - 1 modes) sums every term, as a dense
    solve does.
    """
    m, ks, columns = poles.size, tile.ks, tile.near
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
    far_sums = _far_sums(poles, sq_couplings, tile, workspace)
    neg_sq, width = -sq_couplings[columns], columns.stop - columns.start
    # Pole j is left of root k for j < k; only columns ks[0] <= j < ks[-1] differ by row.
    band = slice(ks[0] - columns.start, ks[-1] - columns.start)
    band_left = np.arange(ks[0], ks[-1]) < ks[:, None]
    for step in range(_MAX_ROOT_STEPS):
        k, o = ks[active], origin[active]
        is_bottom, is_top = bottom[active], top[active]
        size = k.size * width  # contiguous arrays: numpy's loops are slower on strided ones
        inv, terms = (w.reshape(-1)[:size].reshape(k.size, width) for w in workspace)
        _pole_gaps(poles, o, x, out=inv, columns=columns)
        np.divide(1.0, inv, out=inv)  # 1 / (x - delta_j)
        np.multiply(neg_sq, inv, out=terms)  # c_j^2 / (delta_j - x)
        inv *= terms  # minus the slope of each term
        left_mask = band_left[active]
        total, slope = terms.sum(axis=1), -inv.sum(axis=1)
        # Keep only the poles left of each root; terms and inv are not read after this.
        terms[:, band] *= left_mask
        inv[:, band] *= left_mask
        psi = terms[:, : band.start].sum(axis=1) + terms[:, band].sum(axis=1)
        psi_slope = -inv[:, : band.start].sum(axis=1) - inv[:, band].sum(axis=1)
        if far_sums is not None:
            left, left_slope, right, right_slope = far_sums(o, x).T
            total += left + right
            slope += left_slope + right_slope
            psi += left
            psi_slope += left_slope
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
        done |= hi - lo <= 4.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi))
        settled = ~done & (np.abs(nxt - x) <= _SETTLED * np.abs(x))
        tau[active[done]] = x[done]
        tau[active[settled]] = nxt[settled]
        keep = ~(done | settled)
        active, x, lo, hi = active[keep], nxt[keep], lo[keep], hi[keep]
        if active.size == 0:
            break
    tau[active] = x
    return origin, tau


def _loewner_factors(poles, tile, origin, tau, product, far_log, workspace):
    """Multiply the Loewner factors of the roots of ``tile`` into ``product``; add their far logs to ``far_log``.

    Root k is paired to pole k-1 (k <= j) or pole k (k > j), so every ratio
    |lambda_k - omega_j| / |omega_paired - omega_j| lies in (0, 1]; roots 0
    and N stay unpaired. The near band's ratios are multiplied in term by
    term. For a far pole the tile's sum of log ratios becomes
    sum_p D_p log|x_p - omega_j| over the nodes, with charges
    D_p = sum_k l_p(lambda_k) - l_p(omega_paired), which sum to zero; so the
    kernel is read as log((x_p - omega_j) / (mid - omega_j)), in
    [log(2/3), log(4/3)], whose constant part cancels.
    """
    m, ks, near = poles.size, tile.ks, tile.near
    size = ks.size * (near.stop - near.start)
    paired, ratio = (w.reshape(-1)[:size].reshape(ks.size, -1) for w in workspace)
    above = poles[np.minimum(ks, m - 1)][:, None]
    first, last = ks[0] - near.start, ks[-1] - near.start
    paired[:, :first] = above
    paired[:, first:] = poles[np.maximum(ks - 1, 0)][:, None]
    # Only columns ks[0] <= j < ks[-1] differ by row.
    np.copyto(paired[:, first:last], above, where=ks[:, None] > np.arange(ks[0], ks[-1]))
    paired -= poles[near]
    paired[(ks == 0) | (ks == m)] = 1.0
    _pole_gaps(poles, origin, tau, out=ratio, columns=near)
    ratio /= paired
    product[near] *= np.prod(np.abs(ratio, out=ratio), axis=0)
    if not tile.far:
        return
    terms, total = tile.lagrange(poles, origin, tau)
    at_roots = terms / total[:, None]
    terms, total = tile.lagrange(poles, np.arange(ks[0] - 1, ks[-1] + 1), 0.0)
    at_poles = terms / total[:, None]
    # Far left poles pair root k with pole k, far right ones with pole k - 1.
    for pairs, side in zip((at_poles[1:], at_poles[:-1]), tile.far):
        shape = (_FAR_NODES, side.stop - side.start)
        kernel = tile.kernel(poles[side], out=workspace[0].reshape(-1)[: shape[0] * shape[1]].reshape(shape))
        kernel *= tile.mid - poles[side]  # (mid - omega_j) / (x_p - omega_j)
        far_log[side] -= (at_roots - pairs).sum(axis=0) @ np.log(kernel, out=kernel)


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


def _add_product(out: np.ndarray, a: np.ndarray, b: np.ndarray, buffer: np.ndarray) -> None:
    """out += a @ b for real matrices, formed in ``buffer`` a fixed piece at a time.

    A piece is _PRODUCT_COLUMNS columns of b, a multiple of _ALIGN, and at
    most _REAL_TERMS terms of the inner dimension; the pieces of the
    inner dimension are added in order. Each piece then has the same bits on
    any number of BLAS threads.
    """
    rows = a.shape[0]
    for start in range(0, b.shape[1], _PRODUCT_COLUMNS):
        cols = slice(start, start + _PRODUCT_COLUMNS)
        target = out[:, cols]  # padding columns beyond ``out`` are dropped
        for first in range(0, a.shape[1], _REAL_TERMS):
            terms = slice(first, first + _REAL_TERMS)
            piece = b[terms, cols]
            product = buffer[: rows * piece.shape[1]].reshape(rows, -1)
            np.matmul(a[:, terms], piece, out=product)
            target += product[:, : target.shape[1]]


def _chunked_product(a: np.ndarray, b: np.ndarray, terms: int) -> np.ndarray:
    """a @ b summed over pieces of ``terms`` terms of the inner dimension, added in order.

    The first piece's product is the result and each later one is added
    into it. A caller picks ``terms`` so that one BLAS product of that length
    has the same bits on any number of threads; the sum then has them too.
    """
    out = a[:, :terms] @ b[:terms]
    for first in range(terms, a.shape[1], terms):
        out += a[:, first : first + terms] @ b[first : first + terms]
    return out


def _far_kernels(poles: np.ndarray, far: list):
    """The far-field kernels of the root tiles ``far``, _PRODUCT_COLUMNS poles at a time.

    ``far`` holds each tile's aligned near band and :class:`_Tile`. Yields
    (columns, kernel) per chunk of columns: rows 24 i .. 24 i + 23 of the
    kernel are tile i's :meth:`_Tile.kernel`, and zero over its near band.
    One array holds every chunk in turn.
    """
    kernel = np.empty((len(far) * _FAR_NODES, min(poles.size, _PRODUCT_COLUMNS)))
    for start in range(0, poles.size, _PRODUCT_COLUMNS):
        cols = slice(start, min(start + _PRODUCT_COLUMNS, poles.size))
        chunk = kernel[:, : cols.stop - start]
        chunk[:] = 0.0
        for rows, (near, tile) in zip(np.split(chunk, len(far)), far):
            for side in (slice(start, min(near.start, cols.stop)), slice(max(near.stop, start), cols.stop)):
                if side.start < side.stop:
                    tile.kernel(poles[side], out=rows[:, side.start - start : side.stop - start])
        yield cols, chunk


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
    ``tiles`` are the root tiles of the solve (:func:`_root_tiles`), which
    depend on ``poles`` alone; :meth:`evolve` and :meth:`vectors` read them.
    """

    dim: int
    roots: np.ndarray
    origin: np.ndarray
    tau: np.ndarray
    poles: np.ndarray
    tiles: tuple
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
        for ks in (tile.ks for tile in self.tiles):
            v[0, root_column[ks]] = self.inv_norm[ks]
            vector = self._cauchy(ks) * self.c_hat
            v[self.bath_rows[:, None], root_column[ks]] = vector.T * self.inv_norm[ks]
        self._rotate(v.T, back=True)
        return v

    def evolve(self, x: np.ndarray, times) -> np.ndarray:
        """exp(-i H t) x for every time in ``times``: the shape of ``times`` plus (dim,).

        The components V^T x, the phases and the contraction with V are
        formed one tile of up to 128 roots at a time from the Cauchy matrix
        C_kj = 1 / (lambda_k - omega_j): component k is
        ``inv_norm[k] * (x_0 + sum_j c_hat_j x_j C_kj)``, the system row sums
        the phased weights ``inv_norm[k] * exp(-i lambda_k t) * component_k``
        over the roots and bath row j is ``c_hat_j`` times the same sum
        weighted by C_kj (:meth:`_contract`). Free rows keep their own phase.
        Memory is O(T N + 128 N) for T times; no (N+1)^2 array is formed.
        """
        times = np.asarray(times, dtype=float)
        flat = times.reshape(-1)
        x = np.array(x, dtype=complex)
        self._rotate(x, back=False)
        m = self.poles.size
        out = np.zeros((flat.size, self.dim), dtype=complex)
        # Row t of ``out`` first holds the real parts of the bath rows out[t, j] / c_hat_j
        # in its first dim floats and their imaginary parts in the next dim.
        system = self._contract(x, flat, out.view(float).reshape(2 * flat.size, self.dim)[:, :m])
        # Unpack in pieces of about 2T x 512 floats, the product buffer's size; every entry is written.
        free = _phases(flat, self.free) * x[self.free_rows]
        step = max(1, flat.size * _PRODUCT_COLUMNS // max(m, 1))
        bath_rows = slice(1, self.dim) if m == self.dim - 1 else self.bath_rows
        for first in range(0, flat.size, step):
            rows = out[first : first + step]
            parts = rows.view(float).reshape(-1, 2, self.dim)[:, :, :m] * self.c_hat
            rows[:, 0] = system[first : first + step]
            rows.real[:, bath_rows], rows.imag[:, bath_rows] = parts[:, 0], parts[:, 1]
            # Last: with nothing coupled, the system row is free and has no roots.
            rows[:, self.free_rows] = free[first : first + step]
        self._rotate(out, back=True)
        return out.reshape(times.shape + (-1,))

    def _contract(self, x: np.ndarray, times: np.ndarray, bath: np.ndarray) -> np.ndarray:
        """Add the bath rows of exp(-i H t) x, each over c_hat_j, into ``bath``; return the system row.

        ``bath`` has shape (2T, N) for T ``times``: row 2t takes the real
        parts at time t and row 2t + 1 the imaginary parts. Each of the
        spectrum's ``tiles`` takes C_kj term by term over its near band,
        widened to whole groups of _ALIGN columns; the tile of roots 0 and N,
        over every pole, is a rank-two update. Beyond the near band, the
        tile's phased weights w_k become 24 proxy charges
        sum_k l_p(lambda_k) w_k, which reach bath row j through the kernel
        1 / (x_p - omega_j), and the far poles reach component k through the
        same kernel and l_p(lambda_k); the far sides of all tiles are added
        in one pass over the poles (:func:`_far_kernels`). Every product is real, of the
        stacked real and imaginary parts, over column ranges aligned to
        _ALIGN (the poles padded at +inf, whose kernel entries are -0) and in
        the fixed pieces of :func:`_add_product` and :func:`_chunked_product`,
        so the result has the same bits on any number of BLAS threads. A far
        side costs 24 of the 128 multiply-adds per pole that a near one
        costs: about 0.75 T N^2 + 1600 T N flops in all, against 4 T N^2.
        """
        m = self.poles.size
        width = -(-m // _ALIGN) * _ALIGN
        poles = np.concatenate((self.poles, np.full(width - m, np.inf)))
        y = np.zeros(width, dtype=complex)
        y[:m] = self.c_hat * x[self.bath_rows]
        aligned = [slice(t.near.start // _ALIGN * _ALIGN, -(-t.near.stop // _ALIGN) * _ALIGN) for t in self.tiles]
        far = [(near, tile) for near, tile in zip(aligned, self.tiles) if tile.far]
        # The far poles' sums sum_j y_j / (x_p - omega_j) at every far tile's nodes.
        # Without bath amplitudes (the system vector) every component is x_0.
        spread = y.any()
        at_nodes = np.zeros(len(far) * _FAR_NODES, dtype=complex)
        if far and spread:
            for cols, kernel in _far_kernels(poles, far):
                at_nodes += kernel @ y.real[cols] + 1j * (kernel @ y.imag[cols])
        system = np.zeros(times.size, dtype=complex)
        charges = np.empty((2 * times.size, len(far) * _FAR_NODES))
        buffer = np.empty(2 * times.size * min(width, _PRODUCT_COLUMNS))
        slot = 0
        for tile, near in zip(self.tiles, aligned):
            ks = tile.ks
            origin, tau = self.origin[ks], self.tau[ks]
            cauchy = _pole_gaps(poles, origin, tau, columns=near)
            np.divide(1.0, cauchy, out=cauchy)
            if spread:
                components = x[0] + _chunked_product(cauchy, y.real[near], _VECTOR_TERMS)
                components += 1j * _chunked_product(cauchy, y.imag[near], _VECTOR_TERMS)
            else:
                components = np.full(ks.size, x[0])
            if tile.far:
                nodes = slice(slot, slot + _FAR_NODES)
                slot += _FAR_NODES
                lagrange, total = tile.lagrange(poles, origin, tau)
                lagrange /= total[:, None]
                if spread:
                    components += lagrange @ at_nodes[nodes].real + 1j * (lagrange @ at_nodes[nodes].imag)
            phased = _phases(times, self.roots[ks])
            phased *= self.inv_norm[ks] ** 2 * components
            system += phased.sum(axis=1)
            stacked = np.stack((phased.real, phased.imag), axis=1).reshape(-1, ks.size)
            _add_product(bath[:, near], stacked, cauchy, buffer)
            if tile.far:
                charges[:, nodes] = stacked @ lagrange
        cauchy = stacked = None  # the last tile's Cauchy array is not needed beside the far kernel
        for cols, kernel in _far_kernels(poles, far) if far else ():
            _add_product(bath[:, cols], charges, kernel, buffer)
        return system


def _arrowhead_spectrum(apex: float, poles: np.ndarray, couplings: np.ndarray) -> ArrowheadSpectrum:
    """Spectrum of the arrowhead matrix [[apex, c^T], [c, diag(poles)]].

    The poles ascend strictly and the couplings c are nonnegative. The
    eigenvalues are the roots of the secular equation
    lambda - apex - sum_j c_j^2 / (lambda - omega_j) = 0, one per
    interlacing bracket (:func:`_secular_block`), solved a tile of at most
    128 roots at a time. The tiles and their near bands and far sides are
    built once here (:func:`_root_tiles`), read by every pass and kept on
    the spectrum for :meth:`~ArrowheadSpectrum.evolve`. The couplings are
    then recomputed from the computed roots by the Loewner formula
    c_j^2 = prod_k |lambda_k - omega_j| / prod_{i != j} |omega_i - omega_j|,
    so the roots are the exact eigenvalues of a nearby arrowhead matrix,
    whose eigenvector k is [1, c_j / (lambda_k - omega_j)] normalized (Gu and
    Eisenstat, SIAM J. Matrix Anal. Appl. 16 (1995) 172). Deflated poles
    (:func:`_deflate`) are eigenvalues with their own eigenvectors; with no
    coupled pole there is no root and no tile, and the system row is one too.

    Two passes run on the calling thread, one root tile at a time, each
    reusing one workspace of two (_ROOT_BLOCK, N) float arrays allocated
    here and writing its results in place. The first finds a tile's roots
    and at once takes its Loewner factors (:func:`_loewner_factors`): the
    near band's are multiplied into their poles, in tile order, and the far
    poles' logs are summed through 24 charges and applied once at the end.
    The second takes the norms: it sums c_hat_j^2 / (lambda_k - omega_j)^2
    over the near band and takes the far sides from the slope sums of
    :func:`_far_sums`, with c_hat in place of c. Only the tile of roots 0
    and N sums every pole. Time is O(N^2): each pass takes O(N) per tile and
    far side plus O(384) per root (and step, for the roots); memory is O(N)
    for the result and O(_ROOT_BLOCK N) for the workspace, as neither the
    matrix nor its eigenvectors are formed.
    """
    n = poles.size
    # Scale by a power of two near ||H|| (exact), so nothing under- or overflows.
    scale = max(abs(apex), abs(poles[0]), abs(poles[-1])) + float(np.linalg.norm(couplings))
    factor = np.ldexp(1.0, -np.frexp(scale)[1])
    apex = apex * factor
    poles, couplings, rotations = _deflate(poles * factor, couplings * factor)
    coupled = couplings > 0
    d, c = poles[coupled], couplings[coupled]
    m = d.size
    count = m + 1 if m else 0  # roots
    sq = c * c
    spread = 2.0 * float(np.linalg.norm(c))
    lower, upper = d.min(initial=apex) - spread, d.max(initial=apex) + spread
    tiles = _root_tiles(d)
    workspace = (np.empty((_ROOT_BLOCK, m)), np.empty((_ROOT_BLOCK, m)))
    origin, tau = np.empty(count, dtype=int), np.empty(count)
    loewner, far_log = np.ones(m), np.zeros(m)
    for tile in tiles:
        ks = tile.ks
        origin[ks], tau[ks] = _secular_block(apex, d, sq, tile, lower, upper, workspace)
        _loewner_factors(d, tile, origin[ks], tau[ks], loewner, far_log, workspace)
    c_hat = np.sqrt(loewner * np.exp(far_log))
    sq_hat = c_hat * c_hat
    inv_norm = np.empty(count)
    for tile in tiles:  # 1 / sqrt(1 + sum_j c_hat_j^2 / (lambda_k - omega_j)^2)
        ks, columns = tile.ks, tile.near
        vector = workspace[0].reshape(-1)[: ks.size * (columns.stop - columns.start)].reshape(ks.size, -1)
        _pole_gaps(d, origin[ks], tau[ks], out=vector, columns=columns)
        np.divide(c_hat[columns], vector, out=vector)
        vector *= vector
        total = np.sum(vector, axis=1)
        if tile.far:
            _, left_slope, _, right_slope = _far_sums(d, sq_hat, tile, workspace)(origin[ks], tau[ks]).T
            total += left_slope + right_slope
        inv_norm[ks] = 1.0 / np.sqrt(1.0 + total)
    free_rows = np.flatnonzero(np.concatenate(([m == 0], ~coupled)))
    return ArrowheadSpectrum(
        dim=n + 1,
        roots=(d[origin] + tau) / factor,
        origin=origin,
        tau=tau,
        poles=d,
        tiles=tiles,
        c_hat=c_hat,
        inv_norm=inv_norm,
        bath_rows=1 + np.flatnonzero(coupled),
        free_rows=free_rows,
        free=np.concatenate(([apex], poles))[free_rows] / factor,
        rotations=tuple(rotations),
    )


def _phases(times, eigenvalues: np.ndarray) -> np.ndarray:
    """exp(-i t lambda_k): the shape of ``times`` plus one axis over eigenvalues.

    Written as the cosine and sine of the real angles -t lambda_k into one
    complex array, which gives the bits of the complex exponential without
    forming a complex array of angles.
    """
    angles = np.multiply.outer(-as_times(times), eigenvalues)
    phases = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=phases.real)
    np.sin(angles, out=phases.imag)
    return phases


def solve_bytes(n_modes: int, n_times: int) -> int:
    """Bytes that an :class:`ExactPropagator` of ``n_modes`` bath modes takes over ``n_times`` times.

    The eigenvalue solve holds ``SOLVER_BYTES_PER_MODE`` (4 KiB) per mode,
    the system's included: its one workspace of two (128, N) float blocks
    takes 2 KiB per mode and the result O(N) more (the eigenvectors are
    never stored). Its :meth:`~ExactPropagator.evaluate`
    takes about 32 bytes per grid point and mode: the complex result and at
    most as much again in temporaries. An exact integer, for any size.
    """
    return (SOLVER_BYTES_PER_MODE + 32 * n_times) * (n_modes + 1)


class ExactPropagator:
    """Exact finite-bath propagator from one arrowhead eigendecomposition.

    The decomposition (:func:`_arrowhead_spectrum`: O(N^2) time, the dense
    Hamiltonian never formed) is computed once per (system, bath) pair and
    kept as O(N) numbers in ``spectrum``. Evolving any single-excitation
    vector over T times (:meth:`ArrowheadSpectrum.evolve`) sums each tile
    of up to 128 eigenvalues exactly over its near band of about 384 poles
    and through 24 Chebyshev proxy charges beyond it, within eps of each
    term: about 0.75 T N^2 + 1600 T N flops, against 4 T N^2 for summing
    every term, and O(T N + 128 N) memory. The (N+1)^2 eigenvector matrix is never
    stored. The decomposition runs on the calling thread and every product
    of the evolution is cut to round alike on any number of BLAS threads,
    so the result has the same bits on any number of CPUs.
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


def dissipation_sum(coeffs: PropagatorCoefficients):
    """sum_j |absorption_j|^2, per time: the total probability transferred into the bath."""
    weights = np.abs(coeffs.absorption)
    weights *= weights
    return np.sum(weights, axis=-1)[()]


def unitarity_defect(coeffs: PropagatorCoefficients):
    """Deviation of ``|survival|^2 + dissipation_sum`` from one, per time.

    Vanishes to roundoff for oracle coefficients; for analytic coefficients
    summed over a discrete bath it measures the broadband-approximation error.
    """
    return np.abs(np.abs(coeffs.survival) ** 2 + dissipation_sum(coeffs) - 1.0)[()]
