"""Scenario configuration: flat key=value documents, flag overrides, validation.

The schema is flat: one ``key = value`` per line, ``#`` comments, no sections.
Unknown keys, missing required keys, and out-of-range values are hard errors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, TypeVar, get_args, get_type_hints

import numpy as np

from .bath import DiscreteBath, SpectralDensitySpec, ThermalSpec, discretize_bath
from .decay import FockSpaceOracle, FockState
from .errors import ConfigError
from .propagator import SystemMode, solve_bytes
from .thermal import check_squared_occupations, monte_carlo_bytes

# Each scenario and the keys it requires besides the always-required ones, in the order
# a missing one is named. The bath scenarios are those that require n_modes.
_REQUIRES = {
    "fock-decay": ("fock_n",),
    "coherent-decay": (),
    "excited-bath": ("n_modes", "half_bandwidth"),
    "thermal": ("n_modes", "half_bandwidth", "beta", "samples"),
    "wwa-validate": ("n_modes", "half_bandwidth"),
    "oracle-compare": ("fock_n", "n_modes", "half_bandwidth"),
}
SCENARIOS = tuple(_REQUIRES)

# A run whose largest arrays are estimated above this many bytes is rejected.
MEMORY_LIMIT_BYTES = 4 * 2**30

_T = TypeVar("_T")


def _key(help_text: str, default: Any = MISSING) -> Any:
    """A config key's field: its default (none where the key is required) and its help."""
    return field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated, fully-defaulted description of one run.

    Each field made by ``_key`` is a config key; ``SCHEMA`` is read from them.
    """

    scenario: str = _key(f"one of {', '.join(SCENARIOS)}")
    gamma: float = _key("energy damping rate")
    omega_b: float = _key("system mode frequency")
    t_max: float = _key("end of the time grid")
    n_steps: int = _key("number of grid points")
    n_modes: int | None = _key("bath discretization size", None)
    half_bandwidth: float | None = _key("bath band half-width", None)
    band_center: float | None = _key("bath band center (defaults to omega_b)", None)
    beta: float | None = _key("inverse temperature", None)
    fock_n: int | None = _key("initial excitation number", None)
    alpha_re: float = _key("initial label, real part", 1.0)
    alpha_im: float = _key("initial label, imaginary part", 0.0)
    samples: int | None = _key("monte carlo sample count", None)
    seed: int | None = _key("monte carlo seed", None)
    excited_mode: int = _key("index of the excited bath mode", 0)
    lambda_re: float = _key("excited bath label, real part", 0.0)
    lambda_im: float = _key("excited bath label, imaginary part", 0.0)
    output: str = _key("output path ('-' for stdout)", "-")
    format: str = _key("csv or json", "csv")
    defaults_applied: tuple[str, ...] = ()
    # eps times the fastest frequency the run rotates a phase at, times t_max: the
    # rounding of its largest phase omega t. None for fock-decay, which rotates none.
    max_phase_rounding: float | None = None
    # The objects that the checks built and the run uses: the system mode, the bath of
    # a run that names n_modes and half_bandwidth, a bath scenario's temperature (beta
    # = inf where beta is not set) and the occupations it gives the bath's modes, and
    # the oracle of oracle-compare; None where absent.
    system: SystemMode | None = field(default=None, compare=False, repr=False)
    bath: DiscreteBath | None = field(default=None, compare=False, repr=False)
    thermal: ThermalSpec | None = field(default=None, compare=False, repr=False)
    occupations: np.ndarray | None = field(default=None, compare=False, repr=False)
    oracle: FockSpaceOracle | None = field(default=None, compare=False, repr=False)

    @property
    def alpha(self) -> complex:
        return complex(self.alpha_re, self.alpha_im)

    @property
    def excited_label(self) -> complex:
        return complex(self.lambda_re, self.lambda_im)

    def as_dict(self) -> dict[str, Any]:
        """Effective key-value view (defaults included), for the report metadata."""
        return {key: getattr(self, key) for key in SCHEMA}


# key -> (type, default, help); ... means required (possibly per scenario).
# The command line offers every key as --key-with-dashes.
_HINTS = get_type_hints(ScenarioConfig)
SCHEMA: dict[str, tuple[type, Any, str]] = {
    f.name: (
        (get_args(_HINTS[f.name]) or (_HINTS[f.name],))[0],  # int | None -> int
        ... if f.default is MISSING else f.default,
        f.metadata["help"],
    )
    for f in fields(ScenarioConfig)
    if "help" in f.metadata
}


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
    """Merge document values and flag overrides, apply defaults, validate.

    A value of None counts as not given.
    """
    merged: dict[str, Any] = {}
    for key, value in [*values.items(), *(overrides or {}).items()]:
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        if value is not None:
            merged[key] = _coerce(key, value)

    defaults_applied = []
    for key, (_, default, _) in SCHEMA.items():
        if key in merged:
            continue
        if default is ...:
            raise ConfigError(f"missing required key {key!r}")
        merged[key] = default
        defaults_applied.append(key)

    built = _validate(merged, defaults_applied)
    return ScenarioConfig(**merged, defaults_applied=tuple(sorted(defaults_applied)), **built)


def parse_config(text: str, overrides: dict[str, Any] | None = None) -> ScenarioConfig:
    """Parse and validate a flat key=value configuration document."""
    return build_config(parse_document(text), overrides)


def _built(key: str, make: Callable[..., _T], *args: Any) -> _T:
    """``make(*args)``, its ValueError raised as a ConfigError that names ``key``."""
    try:
        return make(*args)
    except ValueError as exc:
        message = str(exc)
        raise ConfigError(message if key in message else f"{key}: {message}") from None


def _validate(merged: dict[str, Any], defaults_applied: list[str]) -> dict[str, Any]:
    """Check ``merged`` in place; return the objects the checks built and the phase rounding.

    Rules that a library object enforces are checked by building that object,
    and the run uses the objects built here: the ``ScenarioConfig`` fields
    ``system``, ``bath``, ``thermal``, ``occupations``, ``oracle`` and
    ``max_phase_rounding``.
    """
    scenario = merged["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r} (choose from {', '.join(SCENARIOS)})")
    if merged["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json' (got {merged['format']!r})")
    if not merged["gamma"] > 0:
        raise ConfigError(f"gamma must be positive (got {merged['gamma']})")
    system = _built("omega_b", SystemMode, merged["omega_b"])
    built: dict[str, Any] = {"system": system}  # an object that is not built stays None
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

    for key in _REQUIRES[scenario]:
        if merged[key] is None:
            raise ConfigError(f"{scenario} requires {key}")
        if key == "fock_n":  # a negative fock_n is named before a missing key after it
            _built("fock_n", FockState, merged["fock_n"])
    if merged["beta"] is not None and not merged["beta"] > 0:
        raise ConfigError(f"beta must be positive (got {merged['beta']})")
    if merged["samples"] is not None:
        if merged["samples"] < 1:
            raise ConfigError(f"samples must be at least 1 (got {merged['samples']})")
        if merged["seed"] is None:
            raise ConfigError("monte carlo sampling requires seed")
        if merged["seed"] < 0:
            raise ConfigError(f"seed must be nonnegative (got {merged['seed']})")

    estimate = _estimated_bytes(merged)
    if estimate > MEMORY_LIMIT_BYTES:
        # A size past float64, as integer keys of 10^400 make, is named by its power of two.
        gib = f"{estimate / 2**30:.3g}" if estimate < 2**1000 else f"2^{estimate.bit_length() - 31}"
        raise ConfigError(
            f"run needs about {gib} GiB for its largest arrays, over the "
            f"{MEMORY_LIMIT_BYTES / 2**30:.3g} GiB limit (lower n_modes, n_steps, samples or fock_n)"
        )

    # A run that names a band has its bath built here, once the size check has bounded n_modes.
    if merged["n_modes"] is not None and merged["half_bandwidth"] is not None:
        if merged["band_center"] is None:
            merged["band_center"] = merged["omega_b"]
            defaults_applied.append("band_center")
        band = merged["gamma"], merged["band_center"], merged["half_bandwidth"]
        spec = _built("half_bandwidth", SpectralDensitySpec, *band)
        built["bath"] = _built("n_modes", discretize_bath, spec, merged["n_modes"])

    frequency = merged["omega_b"]  # the fastest rotation the run evaluates
    if "n_modes" in _REQUIRES[scenario]:
        bath = built["bath"]
        if scenario == "excited-bath" and not 0 <= merged["excited_mode"] < bath.n_modes:
            raise ConfigError(
                f"excited_mode must index a bath mode in [0, {bath.n_modes - 1}] "
                f"(got {merged['excited_mode']})"
            )
        if scenario == "oracle-compare":
            built["oracle"] = _built("n_modes", FockSpaceOracle, system, bath, merged["fock_n"])
        # No beta is zero temperature: n_th = 0 and a vacuum bath.
        beta = merged["beta"] if merged["beta"] is not None else math.inf
        thermal = built["thermal"] = _built("beta", ThermalSpec.for_system, beta, merged["omega_b"])
        occupations = built["occupations"] = _built("beta", thermal.occupations, bath)
        if scenario == "thermal":
            _built("samples", check_squared_occupations, alpha, occupations, merged["samples"])
        _check_occupations(beta, max(thermal.n_th, float(np.max(occupations))))
        # Each row's diagonal plus its couplings bounds the bath Hamiltonian's eigenvalues.
        with np.errstate(over="ignore"):
            frequency = max(
                frequency + float(np.sum(np.abs(bath.xis))),
                float(np.max(np.abs(bath.omegas) + np.abs(bath.xis))),
            )

    if scenario == "fock-decay":  # the Fock laws alone rotate no phase
        return {**built, "max_phase_rounding": None}
    if scenario == "oracle-compare":
        frequency *= max(merged["fock_n"], 1)  # the oracle rotates fock_n excitations at once
    if not math.isfinite(frequency * merged["t_max"]):
        raise ConfigError(
            f"phases omega t overflow float64: frequencies up to {frequency:.3g} over "
            f"t_max = {merged['t_max']:.3g} (lower omega_b, the band or t_max)"
        )
    return {**built, "max_phase_rounding": sys.float_info.epsilon * frequency * merged["t_max"]}


def _check_occupations(beta: float, largest: float) -> None:
    """Reject occupations above 1/eps, at omega_b or at any bath mode.

    A coefficient that should vanish carries a rounding error: |v_j(0)|^2
    is a few eps^2 (at most 1.4e-31 up to N = 2000). Weighted by
    n_j = 1/eps at every mode, the sum of n_j |v_j(0)|^2 that should read
    0 reads 2.3e-14 at N = 2000; a larger n_j writes finite rows that are
    wrong, and an infinite one rows of inf and nan.
    """
    limit = 1.0 / sys.float_info.epsilon
    if not largest <= limit:
        raise ConfigError(
            f"beta = {beta:.3g} gives near-infinite thermal occupations in float64: up to "
            f"{largest:.3g}, over 1/eps = {limit:.3g} (raise beta)"
        )


def _estimated_bytes(merged: dict[str, Any]) -> int:
    """Bytes of a validated run's largest arrays, from its sizes alone (exact integers).

    Each object the run builds states its own: :func:`solve_bytes` for the
    propagator of a bath scenario, :func:`monte_carlo_bytes` for the thermal
    Monte Carlo and :meth:`FockSpaceOracle.sector_bytes` for the oracle of
    ``oracle-compare``, which stops a bath of more than 4 modes here, before
    its sector is sized. Added here: a run that names a band, in any
    scenario, holds its bath and either the temporaries that discretize it
    or the text that ``--dump-bath`` writes of it, and 256 bytes per mode
    covers both (about 200 measured). Every report holds its columns stacked
    into one float64 table, and the binomial law of a Fock scenario holds
    (T, n+1) temporaries while it is evaluated; 48 bytes per cell covers
    both, at most 8 columns plus two per Fock level. CSV and JSON rows are
    formatted in fixed blocks of rows, so their text is not counted.
    """
    scenario, steps, n_modes = merged["scenario"], merged["n_steps"], merged["n_modes"]
    estimate = 0
    if n_modes is not None and merged["half_bandwidth"] is not None:
        estimate += 256 * n_modes
    if "n_modes" in _REQUIRES[scenario]:
        estimate += solve_bytes(n_modes, steps)
    if scenario == "thermal":
        estimate += monte_carlo_bytes(merged["samples"], n_modes, steps)
    if scenario == "oracle-compare":
        estimate += _built("n_modes", FockSpaceOracle.sector_bytes, n_modes, merged["fock_n"], steps)
    levels = merged["fock_n"] + 1 if "fock_n" in _REQUIRES[scenario] else 0
    return estimate + 48 * steps * (8 + 2 * levels)
