"""Scenario configuration: flat key=value documents, flag overrides, validation.

The schema is flat: one ``key = value`` per line, ``#`` comments, no sections.
Unknown keys, missing required keys, and out-of-range values are hard errors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .bath import SpectralDensitySpec, _holds_sum_rule, _midpoint_modes, thermal_occupation
from .decay import _MAX_ORACLE_BATH_MODES
from .errors import ConfigError
from .propagator import SOLVER_BYTES_PER_MODE
from .thermal import MC_BLOCK_BYTES, _rank

SCENARIOS = (
    "fock-decay",
    "coherent-decay",
    "excited-bath",
    "thermal",
    "wwa-validate",
    "oracle-compare",
)

_BATH_SCENARIOS = ("excited-bath", "thermal", "wwa-validate", "oracle-compare")
_FOCK_SCENARIOS = ("fock-decay", "oracle-compare")

# A run whose largest arrays are estimated above this many bytes is rejected.
MEMORY_LIMIT_BYTES = 4 * 2**30

# key -> (type, default, help); ... means required (possibly per scenario).
# The command line offers every key as --key-with-dashes.
SCHEMA: dict[str, tuple[type, Any, str]] = {
    "scenario": (str, ..., f"one of {', '.join(SCENARIOS)}"),
    "gamma": (float, ..., "energy damping rate"),
    "omega_b": (float, ..., "system mode frequency"),
    "t_max": (float, ..., "end of the time grid"),
    "n_steps": (int, ..., "number of grid points"),
    "n_modes": (int, None, "bath discretization size"),
    "half_bandwidth": (float, None, "bath band half-width"),
    "band_center": (float, None, "bath band center (defaults to omega_b)"),
    "beta": (float, None, "inverse temperature"),
    "fock_n": (int, None, "initial excitation number"),
    "alpha_re": (float, 1.0, "initial label, real part"),
    "alpha_im": (float, 0.0, "initial label, imaginary part"),
    "samples": (int, None, "monte carlo sample count"),
    "seed": (int, None, "monte carlo seed"),
    "excited_mode": (int, 0, "index of the excited bath mode"),
    "lambda_re": (float, 0.0, "excited bath label, real part"),
    "lambda_im": (float, 0.0, "excited bath label, imaginary part"),
    "output": (str, "-", "output path ('-' for stdout)"),
    "format": (str, "csv", "csv or json"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated, fully-defaulted description of one run."""

    scenario: str
    gamma: float
    omega_b: float
    t_max: float
    n_steps: int
    n_modes: int | None
    half_bandwidth: float | None
    band_center: float | None
    beta: float | None
    fock_n: int | None
    alpha_re: float
    alpha_im: float
    samples: int | None
    seed: int | None
    excited_mode: int
    lambda_re: float
    lambda_im: float
    output: str
    format: str
    defaults_applied: tuple[str, ...] = ()
    # eps times the fastest frequency the run rotates a phase at, times t_max: the
    # rounding of its largest phase omega t. None for fock-decay, which rotates none.
    max_phase_rounding: float | None = None

    @property
    def alpha(self) -> complex:
        return complex(self.alpha_re, self.alpha_im)

    @property
    def excited_label(self) -> complex:
        return complex(self.lambda_re, self.lambda_im)

    def as_dict(self) -> dict[str, Any]:
        """Effective key-value view (defaults included), for the report metadata."""
        return {key: getattr(self, key) for key in SCHEMA}


def parse_document(text: str) -> dict[str, str]:
    """Read a flat key=value document into raw strings, rejecting unknown keys."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value' (got {stripped!r})")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}")
        if not value:
            raise ConfigError(f"key {key!r} has no value")
        raw[key] = value
    return raw


def _to_int(value: Any) -> int:
    """Integer strings parse exactly; other values must be integral floats."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    as_float = float(value)
    if as_float != int(as_float):
        raise ValueError
    return int(as_float)


def _coerce(key: str, value: Any) -> Any:
    kind = SCHEMA[key][0]
    if value is None:
        return value
    if not isinstance(value, kind):
        try:
            value = _to_int(value) if kind is int else kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"key {key!r} expects {kind.__name__} (got {value!r})") from None
    # beta = inf is the zero-temperature limit; every other float must be finite.
    if kind is float and not math.isfinite(value) and not (key == "beta" and value == math.inf):
        raise ConfigError(f"key {key!r} must be finite (got {value!r})")
    return value


def build_config(values: dict[str, Any], overrides: dict[str, Any] | None = None) -> ScenarioConfig:
    """Merge document values and flag overrides, apply defaults, validate."""
    merged: dict[str, Any] = {}
    for key, value in values.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        merged[key] = _coerce(key, value)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        merged[key] = _coerce(key, value)

    defaults_applied = []
    for key, (_, default, _) in SCHEMA.items():
        if key in merged:
            continue
        if default is ...:
            raise ConfigError(f"missing required key {key!r}")
        merged[key] = default
        defaults_applied.append(key)

    phase_rounding = _validate(merged, defaults_applied)
    return ScenarioConfig(
        **merged,
        defaults_applied=tuple(sorted(defaults_applied)),
        max_phase_rounding=phase_rounding,
    )


def parse_config(text: str, overrides: dict[str, Any] | None = None) -> ScenarioConfig:
    """Parse and validate a flat key=value configuration document."""
    return build_config(parse_document(text), overrides)


def _require(merged: dict[str, Any], key: str, scenario: str) -> None:
    if merged.get(key) is None:
        raise ConfigError(f"{scenario} requires {key}")


def _validate(merged: dict[str, Any], defaults_applied: list[str]) -> float | None:
    """Check ``merged`` in place; return the rounding of the run's largest phase, if it has one."""
    scenario = merged["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r} (choose from {', '.join(SCENARIOS)})")
    if merged["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json' (got {merged['format']!r})")
    if not merged["gamma"] > 0:
        raise ConfigError(f"gamma must be positive (got {merged['gamma']})")
    if not merged["omega_b"] > 0:
        raise ConfigError(f"omega_b must be positive (got {merged['omega_b']})")
    if not merged["t_max"] > 0:
        raise ConfigError(f"t_max must be positive (got {merged['t_max']})")
    if merged["n_steps"] < 2:
        raise ConfigError(f"n_steps must be at least 2 (got {merged['n_steps']})")
    # Every scenario squares the norm of its initial labels alpha and lambda.
    alpha = abs(complex(merged["alpha_re"], merged["alpha_im"]))
    label = abs(complex(merged["lambda_re"], merged["lambda_im"]))
    norm_sq = alpha * alpha + label * label
    if not math.isfinite(norm_sq):
        raise ConfigError(f"|alpha|^2 + |lambda|^2 must be a finite float (got {norm_sq})")

    if scenario in _FOCK_SCENARIOS:
        _require(merged, "fock_n", scenario)
        if merged["fock_n"] < 0:
            raise ConfigError(f"fock_n must be nonnegative (got {merged['fock_n']})")

    if scenario in _BATH_SCENARIOS:
        _require(merged, "n_modes", scenario)
        _require(merged, "half_bandwidth", scenario)
        if merged["n_modes"] < 1:
            raise ConfigError(f"n_modes must be at least 1 (got {merged['n_modes']})")
        if not merged["half_bandwidth"] > 0:
            raise ConfigError(
                f"half_bandwidth must be positive (got {merged['half_bandwidth']})"
            )
        if merged["band_center"] is None:
            merged["band_center"] = merged["omega_b"]
            defaults_applied.append("band_center")

    if scenario == "oracle-compare" and merged["n_modes"] > _MAX_ORACLE_BATH_MODES:
        raise ConfigError(
            f"oracle-compare runs the dense oracle and allows at most "
            f"{_MAX_ORACLE_BATH_MODES} modes (got {merged['n_modes']})"
        )

    if scenario == "thermal":
        _require(merged, "beta", scenario)
        _require(merged, "samples", scenario)
    if merged["beta"] is not None and not merged["beta"] > 0:
        raise ConfigError(f"beta must be positive (got {merged['beta']})")
    if merged["samples"] is not None:
        if merged["samples"] < 1:
            raise ConfigError(f"samples must be at least 1 (got {merged['samples']})")
        if merged["seed"] is None:
            raise ConfigError("monte carlo sampling requires seed")
        if merged["seed"] < 0:
            raise ConfigError(f"seed must be nonnegative (got {merged['seed']})")

    if scenario == "excited-bath" and merged["n_modes"] is not None:
        if not 0 <= merged["excited_mode"] < merged["n_modes"]:
            raise ConfigError(
                f"excited_mode must index a bath mode in [0, {merged['n_modes'] - 1}] "
                f"(got {merged['excited_mode']})"
            )

    estimate = _estimated_bytes(merged)
    if estimate > MEMORY_LIMIT_BYTES:
        raise ConfigError(
            f"run needs about {estimate / 2**30:.3g} GiB for its largest arrays, over the "
            f"{MEMORY_LIMIT_BYTES / 2**30:.3g} GiB limit (lower n_modes, n_steps, samples or fock_n)"
        )

    frequency = merged["omega_b"]  # the fastest rotation the run evaluates
    if scenario in _BATH_SCENARIOS:
        # discretize_bath's own grid, built once the size check has bounded n_modes;
        # its overflow is what the check reports, so it is not also warned about.
        spec = SpectralDensitySpec(merged["gamma"], merged["band_center"], merged["half_bandwidth"])
        with np.errstate(over="ignore", invalid="ignore"):
            omegas, xis = _midpoint_modes(spec, merged["n_modes"])
            # The sum rule fails for couplings that overflow and for squares that are subnormal.
            resolved = np.isfinite(omegas).all() and np.all(np.diff(omegas) > 0)
            resolved = resolved and _holds_sum_rule(spec, xis)
        if not resolved:
            raise ConfigError(
                f"{merged['n_modes']} midpoint modes cannot resolve the band {spec.band} in float64 (they need "
                "finite, strictly ascending frequencies and couplings whose squares sum to the band integral)"
            )
        if merged["beta"] is not None and not omegas[0] > 0:
            raise ConfigError(
                f"thermal occupations need every bath mode above zero frequency "
                f"(lowest mode at {omegas[0]})"
            )
        if scenario == "thermal":
            _check_squared_occupations(merged, alpha, omegas)
        if scenario == "oracle-compare" and merged["beta"] is not None:
            with np.errstate(divide="ignore"):
                occupations = thermal_occupation(merged["beta"], np.append(omegas, merged["omega_b"]))
            if not np.isfinite(occupations).all():
                raise ConfigError(
                    f"beta = {merged['beta']:.3g} gives infinite thermal occupations in float64 "
                    "(raise beta)"
                )
        # Each row's diagonal plus its couplings bounds the bath Hamiltonian's eigenvalues.
        with np.errstate(over="ignore"):
            frequency = max(
                frequency + float(np.sum(np.abs(xis))), float(np.max(np.abs(omegas) + np.abs(xis)))
            )

    if scenario == "fock-decay":  # the Fock laws alone rotate no phase
        return None
    if scenario == "oracle-compare":
        frequency *= max(merged["fock_n"], 1)  # the oracle rotates fock_n excitations at once
    if not math.isfinite(frequency * merged["t_max"]):
        raise ConfigError(
            f"phases omega t overflow float64: frequencies up to {frequency:.3g} over "
            f"t_max = {merged['t_max']:.3g} (lower omega_b, the band or t_max)"
        )
    return sys.float_info.epsilon * frequency * merged["t_max"]


def _check_squared_occupations(merged: dict[str, Any], alpha: float, omegas: np.ndarray) -> None:
    """Reject a thermal run whose Monte Carlo sums of squared occupations would overflow.

    A sample's occupation |alpha u_t + (L z)_t|^2 is at most
    2 |alpha|^2 + 2 |(L z)_t|^2, where L is the (T, r) branch factor and z
    holds 2r normal draws taken as r complex numbers. numpy's ziggurat draw
    stays within 14 standard deviations (its tail is r - ln(u) / r with
    r < 3.7 and u >= 2^-53), so |z_i|^2 <= 392. Drawn directly, L is
    A diag(sqrt(n / 2)) and (L z)_t = sum_j lambda_j v_j(t) with
    |lambda_j|^2 <= 196 n_j, so by Cauchy-Schwarz and
    |u|^2 + sum_j |v_j|^2 = 1 the occupation is at most
    2 |alpha|^2 + 392 sum_j n_j. A factored L has r <= T columns and
    |L_t|^2 = K_tt / 2 <= max_j n_j / 2, so |(L z)_t|^2 <= |L_t|^2 |z|^2
    bounds it by 2 |alpha|^2 + 392 r max_j n_j instead, with r from the
    Monte Carlo's own rule. The moments add up to twice ``samples`` squares
    of such occupations.
    """
    rank = _rank(merged["samples"], merged["n_modes"], merged["n_steps"])
    with np.errstate(over="ignore"):
        occupations = thermal_occupation(merged["beta"], omegas)
        spread = np.sum(occupations) if rank == merged["n_modes"] else rank * np.max(occupations)
    bound = 2.0 * alpha * alpha + 392.0 * float(spread)
    limit = math.sqrt(sys.float_info.max / (2.0 * merged["samples"]))
    if not bound <= limit:
        raise ConfigError(
            f"thermal Monte Carlo squares per-sample occupations of up to {bound:.3g}, over the "
            f"{limit:.3g} that {merged['samples']} samples allow in float64 (lower alpha or raise beta)"
        )


def _estimated_bytes(merged: dict[str, Any]) -> int:
    """Bytes of a validated run's largest arrays, from its sizes alone (exact integers).

    Bath runs hold ``SOLVER_BYTES_PER_MODE`` (4 KiB) per mode while the
    propagator solves for its eigenvalues: each of its solver threads reuses
    two (128, N) float blocks, 2 KiB per mode, and the thread count is capped
    so that they fit (the eigenvectors are never stored). Evaluating the grid
    takes about 32 bytes per grid point and mode: the complex result and at
    most as much again in temporaries. Thermal runs stream their
    samples: the Monte Carlo holds the (T, N) absorption array weighted by
    the occupations (16 N T bytes), where it factors the branch covariance
    also the T x T Gram and one more T x T array at a time (a chunk's
    product, a rank-one update or the factor; 16 T^2 bytes each), and at
    most two blocks of ``MC_BLOCK_BYTES`` whatever the sample count. Every report
    holds its columns stacked into one float64 table, and the binomial law of
    a Fock scenario holds (T, n+1) temporaries while it is evaluated; 48
    bytes per cell covers both, at most 8 columns plus two per Fock level.
    CSV and JSON rows are formatted in fixed blocks of rows, so their text is
    not counted. The oracle of ``oracle-compare`` diagonalizes the dense
    Hamiltonian of its one excitation sector, of dimension d = C(fock_n + N, N):
    the matrix, the eigensolver's copy and 2 d^2 workspace, and the
    eigenvectors take about 40 d^2 bytes. Evolving the sector over the grid
    takes about 40 bytes per grid point and sector state, its partial-trace
    table 16 bytes per sector state and Fock level, and the reduced density
    16 bytes per grid point and pair of Fock levels.
    """
    scenario, steps = merged["scenario"], merged["n_steps"]
    estimate = 0
    if scenario in _BATH_SCENARIOS:
        modes = merged["n_modes"] + 1
        estimate += SOLVER_BYTES_PER_MODE * modes + 32 * steps * modes
    if scenario == "thermal":
        n = merged["n_modes"]
        gram = 32 * steps * steps if _rank(merged["samples"], n, steps) < n else 0
        estimate += 16 * steps * n + gram + 2 * MC_BLOCK_BYTES
    if scenario == "oracle-compare":
        levels = merged["fock_n"] + 1
        sector = math.comb(merged["fock_n"] + merged["n_modes"], merged["n_modes"])
        estimate += 40 * sector * (sector + steps) + 16 * levels * (sector + steps * levels)
    levels = merged["fock_n"] + 1 if scenario in _FOCK_SCENARIOS else 0
    return estimate + 48 * steps * (8 + 2 * levels)
