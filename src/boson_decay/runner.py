"""Scenario execution and deterministic report emission.

Each scenario walks a uniform time grid and fills one row per grid point;
columns follow the per-module CSV schemas. CSV artifacts contain only the
table (so identical runs are byte-identical); metadata travels in the JSON
format or in a ``.meta.json`` sidecar next to a CSV file.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import __version__
from .bath import DiscreteBath, SpectralDensitySpec, ThermalSpec, discretize_bath
from .config import ScenarioConfig
from .decay import (
    FockSpaceOracle,
    FockState,
    coherent_decay,
    excited_bath_evolution,
    fock_populations,
)
from .propagator import (
    ExactPropagator,
    SystemMode,
    analytic_survival,
    dissipation_sum,
    unitarity_defect,
)
from .thermal import (
    conditional_mean_number,
    exact_thermal_moments,
    monte_carlo_moments,
    sample_thermal_bath,
    thermal_factor_closed,
    thermal_factor_discrete,
)

WWA_TOLERANCE = 2e-2


@dataclass
class RunReport:
    """Per-time-point records plus a metadata block echoing the run setup."""

    columns: list[str]
    rows: list[list[float]]
    meta: dict[str, Any] = field(default_factory=dict)


def _time_grid(config: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.0, config.t_max, config.n_steps)


def _system(config: ScenarioConfig) -> SystemMode:
    return SystemMode(omega_b=config.omega_b)


def scenario_bath(config: ScenarioConfig) -> DiscreteBath:
    """Discretized bath of a bath scenario; ``band_center`` defaults to ``omega_b``."""
    spec = SpectralDensitySpec(
        gamma=config.gamma,
        band_center=config.band_center if config.band_center is not None else config.omega_b,
        half_bandwidth=config.half_bandwidth,
    )
    return discretize_bath(spec, config.n_modes)


def _run_fock_decay(config: ScenarioConfig) -> RunReport:
    n = config.fock_n
    columns = ["t"] + [f"P_{m}" for m in range(n + 1)]
    rows = []
    for t in _time_grid(config):
        p = math.exp(-config.gamma * t)
        dist = fock_populations(n, p, t=float(t))
        rows.append([float(t)] + [float(x) for x in dist.probs])
    return RunReport(columns=columns, rows=rows)


def _run_coherent_decay(config: ScenarioConfig) -> RunReport:
    system = _system(config)
    columns = ["t", "mean_number", "re_label", "im_label", "purity"]
    rows = []
    for t in _time_grid(config):
        label, mean_number = coherent_decay(config.alpha, analytic_survival(system, config.gamma, t))
        rows.append([float(t), mean_number, label.real, label.imag, 1.0])
    return RunReport(columns=columns, rows=rows)


def _run_excited_bath(config: ScenarioConfig) -> RunReport:
    system = _system(config)
    bath = scenario_bath(config)
    propagator = ExactPropagator(system, bath)
    lambdas = np.zeros(bath.n_modes, dtype=complex)
    lambdas[config.excited_mode] = config.excited_label
    columns = ["t", "mean_number", "re_label", "im_label", "purity"]
    rows = []
    for coeffs in propagator.evaluate(_time_grid(config)):
        mu = excited_bath_evolution(config.alpha, lambdas, coeffs).system_label
        rows.append([coeffs.t, abs(mu) ** 2, mu.real, mu.imag, 1.0])
    return RunReport(columns=columns, rows=rows)


def _run_thermal(config: ScenarioConfig) -> RunReport:
    system = _system(config)
    bath = scenario_bath(config)
    thermal = ThermalSpec.for_system(config.beta, config.omega_b)
    propagator = ExactPropagator(system, bath)
    samples = sample_thermal_bath(bath, thermal, config.samples, config.seed)
    columns = [
        "t",
        "phi_discrete",
        "phi_closed",
        "paper_mean_number",
        "heff_mean_number",
        "oracle_occupation",
        "mc_occupation",
        "mc_stderr",
    ]
    alpha = config.alpha
    rows = []
    for coeffs in propagator.evaluate(_time_grid(config)):
        t = coeffs.t
        phi_d = thermal_factor_discrete(system, bath, thermal, coeffs)
        phi_c = thermal_factor_closed(thermal.n_th, config.gamma, t)
        paper_mean = conditional_mean_number(
            alpha, analytic_survival(system, config.gamma, t), phi_c
        )
        heff_mean = abs(alpha) ** 2 * math.exp(-(thermal.n_th + 1.0) * config.gamma * t)
        oracle = exact_thermal_moments(alpha, bath, thermal, coeffs)
        mc, errors = monte_carlo_moments(alpha, system, bath, thermal, coeffs, samples)
        rows.append(
            [
                t,
                phi_d.value,
                phi_c.value,
                paper_mean,
                heff_mean,
                oracle.occupation,
                mc.occupation,
                errors.occupation,
            ]
        )
    return RunReport(columns=columns, rows=rows)


def _run_wwa_validate(config: ScenarioConfig) -> RunReport:
    system = _system(config)
    bath = scenario_bath(config)
    propagator = ExactPropagator(system, bath)
    columns = ["t", "re_u", "im_u", "abs_u_sq", "sum_abs_v_sq", "unitarity_defect"]
    rows = []
    max_survival_dev = 0.0
    max_dissipation_dev = 0.0
    for coeffs in propagator.evaluate(_time_grid(config)):
        t = coeffs.t
        u = coeffs.survival
        survived = abs(u) ** 2
        dissipated = dissipation_sum(coeffs)
        decayed = -math.expm1(-config.gamma * t)
        max_survival_dev = max(max_survival_dev, abs(survived - math.exp(-config.gamma * t)))
        max_dissipation_dev = max(max_dissipation_dev, abs(dissipated - decayed))
        rows.append([t, u.real, u.imag, survived, dissipated, unitarity_defect(coeffs)])
    summary = {
        "max_abs_u_sq_deviation": max_survival_dev,
        "max_sum_abs_v_sq_deviation": max_dissipation_dev,
        "tolerance": WWA_TOLERANCE,
        "passed": bool(
            max_survival_dev <= WWA_TOLERANCE and max_dissipation_dev <= WWA_TOLERANCE
        ),
    }
    return RunReport(columns=columns, rows=rows, meta={"summary": summary})


def _run_oracle_compare(config: ScenarioConfig) -> RunReport:
    system = _system(config)
    bath = scenario_bath(config)
    n = config.fock_n
    propagator = ExactPropagator(system, bath)
    oracle = FockSpaceOracle(system, bath, n_max=n)
    n_th = 0.0
    bath_occ = np.zeros(bath.n_modes)
    if config.beta is not None:
        thermal = ThermalSpec.for_system(config.beta, config.omega_b)
        n_th = thermal.n_th
        bath_occ = thermal.occupations(bath)
    columns = (
        ["t"]
        + [f"P_{m}_oracle" for m in range(n + 1)]
        + [f"P_{m}_law" for m in range(n + 1)]
        + ["max_pop_deviation", "heff_fock_mean", "exact_fock_mean", "oracle_fock_mean", "divergence"]
    )
    rows = []
    max_pop_dev_overall = 0.0
    for coeffs in propagator.evaluate(_time_grid(config)):
        t = coeffs.t
        survived = abs(coeffs.survival) ** 2
        law = fock_populations(n, min(survived, 1.0), t=t)
        reduced = oracle.reduced_density(FockState(n), t)
        pops = reduced.populations
        deviation = float(np.max(np.abs(pops - law.probs)))
        max_pop_dev_overall = max(max_pop_dev_overall, deviation)
        heff_mean = n * math.exp(-(n_th + n) * config.gamma * t)
        exact_mean = n * math.exp(-config.gamma * t) + n_th * -math.expm1(-config.gamma * t)
        oracle_mean = n * survived + float(np.sum(bath_occ * np.abs(coeffs.absorption) ** 2))
        rows.append(
            [t]
            + [float(x) for x in pops]
            + [float(x) for x in law.probs]
            + [deviation, heff_mean, exact_mean, oracle_mean, heff_mean - exact_mean]
        )
    meta = {"summary": {"max_population_deviation": max_pop_dev_overall}}
    return RunReport(columns=columns, rows=rows, meta=meta)


_SCENARIO_RUNNERS: dict[str, Callable[[ScenarioConfig], RunReport]] = {
    "fock-decay": _run_fock_decay,
    "coherent-decay": _run_coherent_decay,
    "excited-bath": _run_excited_bath,
    "thermal": _run_thermal,
    "wwa-validate": _run_wwa_validate,
    "oracle-compare": _run_oracle_compare,
}


def run_scenario(config: ScenarioConfig) -> RunReport:
    """Execute one scenario and return its report with full metadata."""
    started = time.time()
    clock = time.perf_counter()
    report = _SCENARIO_RUNNERS[config.scenario](config)
    elapsed = time.perf_counter() - clock
    report.meta = {
        "config": config.as_dict(),
        "defaults_applied": list(config.defaults_applied),
        "seed": config.seed,
        "versions": {"boson_decay": __version__, "numpy": np.__version__},
        "wall_clock_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "elapsed_seconds": elapsed,
        **report.meta,
    }
    if len(report.rows) != config.n_steps:
        raise AssertionError("report row count must equal n_steps")
    return report


def report_to_csv(report: RunReport) -> str:
    """Full round-trip float precision, one header line, no metadata."""
    lines = [",".join(report.columns)]
    for row in report.rows:
        lines.append(",".join(repr(float(value)) for value in row))
    return "\n".join(lines) + "\n"


def report_to_json(report: RunReport) -> str:
    payload = {"meta": report.meta, "columns": report.columns, "rows": report.rows}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_from_csv(text: str) -> RunReport:
    lines = [line for line in text.splitlines() if line]
    columns = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return RunReport(columns=columns, rows=rows)


def report_from_json(text: str) -> RunReport:
    payload = json.loads(text)
    return RunReport(
        columns=list(payload["columns"]),
        rows=[[float(cell) for cell in row] for row in payload["rows"]],
        meta=payload.get("meta", {}),
    )


def emit_report(report: RunReport, fmt: str) -> str:
    """Serialize a report as 'csv' (table only) or 'json' (rows plus meta)."""
    if fmt == "csv":
        return report_to_csv(report)
    if fmt == "json":
        return report_to_json(report)
    raise ValueError(f"unknown format {fmt!r}")


def write_report(report: RunReport, config: ScenarioConfig) -> str | None:
    """Write the serialized report to the configured destination.

    Returns the path written, or None when streaming to stdout. CSV files get
    a ``<path>.meta.json`` sidecar carrying the metadata block.
    """
    serialized = emit_report(report, config.format)
    if config.output == "-":
        print(serialized, end="")
        return None
    try:
        with open(config.output, "w", encoding="utf-8") as handle:
            handle.write(serialized)
        if config.format == "csv":
            sidecar = config.output + ".meta.json"
            with open(sidecar, "w", encoding="utf-8") as handle:
                json.dump(report.meta, handle, indent=2, sort_keys=True)
                handle.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {config.output!r}: {exc}") from exc
    return config.output
