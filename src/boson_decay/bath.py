"""Flat-band coupling density, its finite discretizations, and thermal occupations.

Units: hbar = k_B = 1. All frequencies, rates, and inverse temperatures share
one angular-frequency unit; time is measured in its inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfiniteOccupationError

_SUM_RULE_RTOL = 1e-12


@dataclass(frozen=True)
class SpectralDensitySpec:
    """Flat coupling density on a symmetric band around ``band_center``.

    ``gamma`` is the energy damping rate of a resonant system mode. The
    golden-rule relation ``2 pi J(omega_b) = gamma`` then fixes the plateau
    value of the density at ``gamma / (2 pi)``; outside the band the density
    vanishes.
    """

    gamma: float
    band_center: float
    half_bandwidth: float

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive (got {self.gamma})")
        if not self.half_bandwidth > 0:
            raise ValueError(f"half_bandwidth must be positive (got {self.half_bandwidth})")

    @property
    def plateau(self) -> float:
        """In-band value of the coupling density."""
        return self.gamma / (2.0 * math.pi)

    @property
    def band(self) -> tuple[float, float]:
        return (self.band_center - self.half_bandwidth, self.band_center + self.half_bandwidth)

    @property
    def integrated_coupling(self) -> float:
        """Band integral of the density, i.e. the exact total squared coupling."""
        return self.plateau * 2.0 * self.half_bandwidth


def spectral_density(spec: SpectralDensitySpec, omega):
    """Evaluate the flat-band coupling density at ``omega`` (scalar or array)."""
    omega = np.asarray(omega, dtype=float)
    inside = np.abs(omega - spec.band_center) <= spec.half_bandwidth
    value = np.where(inside, spec.plateau, 0.0)
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class DiscreteBath:
    """Finite set of bath modes realizing a coupling density.

    Mode frequencies are strictly ascending and couplings are real and
    nonnegative; observable quantities depend on couplings only through
    their squares, so per-mode phases are dropped.
    """

    omegas: np.ndarray
    xis: np.ndarray
    spec: SpectralDensitySpec

    def __post_init__(self) -> None:
        omegas = np.asarray(self.omegas, dtype=float)
        xis = np.asarray(self.xis, dtype=float)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "xis", xis)
        if omegas.ndim != 1 or omegas.shape != xis.shape:
            raise ValueError("omegas and xis must be 1-d arrays of equal length")
        if omegas.size == 0:
            raise ValueError("a discrete bath needs at least one mode")
        if np.any(np.diff(omegas) <= 0):
            raise ValueError("mode frequencies must be strictly ascending")
        if np.any(xis < 0):
            raise ValueError("couplings must be nonnegative")
        lo, hi = self.spec.band
        tol = 1e-12 * max(1.0, abs(lo), abs(hi))
        if omegas[0] < lo - tol or omegas[-1] > hi + tol:
            raise ValueError("mode frequencies must lie within the generating band")

    @property
    def n_modes(self) -> int:
        return int(self.omegas.size)

    def coupling_sum(self) -> float:
        """Total squared coupling; matches the band integral for midpoint grids."""
        return float(np.sum(self.xis**2))


def discretize_bath(spec: SpectralDensitySpec, n_modes: int) -> DiscreteBath:
    """Realize the flat density with ``n_modes`` midpoint-rule modes.

    The grid is uniform over the band with spacing ``2 half_bandwidth / n_modes``
    and couplings ``xi_j = sqrt(J(omega_j) * spacing)``, which reproduces the
    band integral of the density exactly. A band that float64 cannot grid so
    (frequencies that are not finite and strictly ascending, or squared
    couplings that miss the band integral by more than _SUM_RULE_RTOL, as
    overflowing couplings and subnormal squares do) raises ValueError.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be at least 1 (got {n_modes})")
    spacing = 2.0 * spec.half_bandwidth / n_modes
    lo, _ = spec.band
    # Overflow is what the checks below report, so it is not also warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        omegas = lo + (np.arange(n_modes) + 0.5) * spacing
        xis = np.sqrt(np.atleast_1d(spectral_density(spec, omegas)) * spacing)
        total = float(np.sum(xis**2))
        resolved = np.isfinite(omegas).all() and np.all(np.diff(omegas) > 0)
    exact = spec.integrated_coupling
    if not (resolved and abs(total - exact) <= _SUM_RULE_RTOL * exact):
        raise ValueError(
            f"{n_modes} midpoint modes cannot resolve the band {spec.band} in float64 (they need "
            "finite, strictly ascending frequencies and couplings whose squares sum to the band integral)"
        )
    return DiscreteBath(omegas=omegas, xis=xis, spec=spec)


def thermal_occupation(beta: float, omega):
    """Bose-Einstein occupation 1 / (exp(beta*omega) - 1).

    ``beta = 0`` diverges at any finite frequency and is rejected;
    ``beta = inf`` is the vacuum, zero occupation at every frequency. A finite
    ``beta`` needs positive frequencies; where ``beta * omega`` rounds to zero
    the occupation is ``inf``.
    """
    if beta < 0:
        raise ValueError(f"beta must be nonnegative (got {beta})")
    omega_arr = np.asarray(omega, dtype=float)
    if math.isinf(beta):
        value = np.zeros_like(omega_arr)
    elif np.any(omega_arr <= 0):
        raise ValueError(
            f"thermal occupations need every mode above zero frequency (lowest at {np.min(omega_arr)})"
        )
    elif beta == 0:
        raise InfiniteOccupationError(
            "infinite occupation: beta = 0 gives a divergent Bose-Einstein factor"
        )
    else:
        # exp overflow is zero occupation, beta omega rounding to zero an infinite one
        with np.errstate(over="ignore", divide="ignore"):
            value = 1.0 / np.expm1(beta * omega_arr)
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class ThermalSpec:
    """Inverse temperature plus the derived occupation at the system frequency."""

    beta: float
    n_th: float

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative (got {self.beta})")
        if self.n_th < 0:
            raise ValueError(f"n_th must be nonnegative (got {self.n_th})")

    @classmethod
    def for_system(cls, beta: float, omega_b: float) -> "ThermalSpec":
        return cls(beta=beta, n_th=thermal_occupation(beta, omega_b))

    def occupations(self, bath: DiscreteBath) -> np.ndarray:
        """Per-mode occupations of ``bath`` at this temperature."""
        return np.atleast_1d(thermal_occupation(self.beta, bath.omegas))


def bath_to_csv(bath: DiscreteBath) -> str:
    """Serialize a bath as CSV with columns ``j, omega_j, xi_j``."""
    lines = ["j,omega_j,xi_j"]
    for j, (w, x) in enumerate(zip(bath.omegas, bath.xis)):
        lines.append(f"{j},{float(w)!r},{float(x)!r}")
    return "\n".join(lines) + "\n"


def write_bath_csv(bath: DiscreteBath, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(bath_to_csv(bath))
