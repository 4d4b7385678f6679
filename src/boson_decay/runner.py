"""Scenario execution and deterministic report emission.

Each scenario evaluates its laws as arrays over a uniform time grid and
stacks the named columns once into one (T, C) float64 table; columns follow
the per-module CSV schemas. CSV artifacts contain only the table (so
identical runs are byte-identical). CSV and the rows of JSON are formatted
by one vectorized kernel (:mod:`boson_decay.floatrepr`) and written in
blocks of at most ``_BLOCK_CELLS`` cells, so a report never exists as one
string; every cell is the text ``repr`` gives.
Metadata, including the seconds spent in each stage of the run
(``meta["timings"]``), travels in the JSON format or in a ``.meta.json``
sidecar next to a CSV file.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, TextIO

import numpy as np

from . import __version__
from .config import ScenarioConfig
from .decay import (
    FockState,
    coherent_decay,
    excited_bath_evolution,
    fock_populations,
    fock_survival,
)
from .floatrepr import format_rows
from .propagator import (
    ExactPropagator,
    analytic_survival,
    dissipation_sum,
    unitarity_defect,
)
from .thermal import (
    EffectiveHamiltonian,
    ThermalAttenuator,
    conditional_mean_number,
    monte_carlo_moments,
    thermal_factor_closed,
    thermal_mean_number,
)

WWA_TOLERANCE = 2e-2

# Cells formatted per CSV or JSON block: bounds the scratch arrays and text held at once.
_BLOCK_CELLS = 4096


@dataclass(eq=False)
class RunReport:
    """A (T, C) float64 table, one row per time point, plus a metadata block."""

    columns: list[str]
    table: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunReport):
            return NotImplemented
        return (
            self.columns == other.columns
            and np.array_equal(self.table, other.table)
            and self.meta == other.meta
        )


@contextmanager
def _stage(timings: dict[str, float], name: str) -> Iterator[None]:
    """Add the seconds spent in the ``with`` body to ``timings[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - start


def _time_grid(config: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.0, config.t_max, config.n_steps)


def _propagator(config: ScenarioConfig, timings: dict[str, float]) -> ExactPropagator:
    """The propagator of the config's system and bath, timed as the ``spectrum`` stage."""
    with _stage(timings, "spectrum"):
        return ExactPropagator(config.system, config.bath)


def _report(table: dict[str, np.ndarray], meta: dict[str, Any] | None = None) -> RunReport:
    """One row per time from named per-time columns, stacked once into a float table."""
    stacked = np.column_stack(list(table.values()))
    return RunReport(columns=list(table), table=stacked, meta=meta or {})


def _propagator_diagnostics(propagator: ExactPropagator, defect: np.ndarray) -> dict[str, Any]:
    """Numerical health of a propagator run.

    Its worst |u|^2 + sum |v_j|^2 - 1 over the grid, and the sum-rule
    residual |sum_k V_0k^2 - 1| of the system's spectral weights.
    """
    weights = propagator.spectrum.weights
    return {
        "diagnostics": {
            "max_unitarity_defect": float(np.max(defect)),
            "sum_rule_residual": float(abs(np.sum(weights) - 1.0)),
        }
    }


def _run_fock_decay(config: ScenarioConfig, timings: dict[str, float]) -> RunReport:
    grid = _time_grid(config)
    probs = fock_populations(config.fock_n, fock_survival(1, config.gamma, grid)).probs
    return _report({"t": grid, **{f"P_{m}": p for m, p in enumerate(probs.T)}})


def _coherent_table(grid: np.ndarray, label: np.ndarray, mean_number) -> dict[str, np.ndarray]:
    """Columns of a system that stays in a pure coherent state with ``label``."""
    return {
        "t": grid,
        "mean_number": mean_number,
        "re_label": label.real,
        "im_label": label.imag,
        "purity": np.ones_like(grid),
    }


def _run_coherent_decay(config: ScenarioConfig, timings: dict[str, float]) -> RunReport:
    grid = _time_grid(config)
    survival = analytic_survival(config.system, config.gamma, grid)
    return _report(_coherent_table(grid, *coherent_decay(config.alpha, survival)))


def _run_excited_bath(config: ScenarioConfig, timings: dict[str, float]) -> RunReport:
    propagator = _propagator(config, timings)
    lambdas = np.zeros(config.bath.n_modes, dtype=complex)
    lambdas[config.excited_mode] = config.excited_label
    grid = _time_grid(config)
    with _stage(timings, "evaluate"):
        labels = excited_bath_evolution(config.alpha, lambdas, propagator, grid)
    initial_norm_sq = abs(config.alpha) ** 2 + abs(config.excited_label) ** 2
    norm_defect = np.max(np.abs(labels.total_norm_sq() - initial_norm_sq))
    return _report(
        _coherent_table(grid, labels.system_label, labels.mean_number),
        meta={"diagnostics": {"max_norm_defect": float(norm_defect)}},
    )


def _run_thermal(config: ScenarioConfig, timings: dict[str, float]) -> RunReport:
    thermal, propagator = config.thermal, _propagator(config, timings)
    grid = _time_grid(config)
    with _stage(timings, "evaluate"):
        coeffs = propagator.evaluate(grid)
    channel = ThermalAttenuator.from_coefficients(coeffs, config.occupations)
    alpha = config.alpha
    phi_c = thermal_factor_closed(thermal.n_th, config.gamma, grid)
    survival = analytic_survival(propagator.system, config.gamma, grid)
    heff = EffectiveHamiltonian(config.omega_b, config.gamma, thermal.n_th)
    with _stage(timings, "monte_carlo"):
        mc, errors = monte_carlo_moments(
            alpha, config.occupations, coeffs, config.samples, config.seed
        )
    oracle = channel.occupation(alpha)
    meta = _propagator_diagnostics(propagator, unitarity_defect(coeffs))
    # Rows whose branches all coincide (t = 0, or a cold bath under a large alpha)
    # have a stderr of rounding size only, relative to their occupation.
    resolved = errors.occupation > 1e-12 * mc.occupation
    z = np.abs(mc.occupation - oracle)[resolved] / errors.occupation[resolved]
    meta["diagnostics"]["max_mc_z_score"] = float(np.max(z, initial=0.0))
    return _report(
        {
            "t": grid,
            "phi_discrete": channel.phi_discrete().value,
            "phi_closed": phi_c.value,
            "paper_mean_number": conditional_mean_number(alpha, survival, phi_c),
            "heff_mean_number": heff.evolve_coherent(alpha, grid).mean_number,
            "oracle_occupation": oracle,
            "mc_occupation": mc.occupation,
            "mc_stderr": errors.occupation,
        },
        meta=meta,
    )


def _run_wwa_validate(config: ScenarioConfig, timings: dict[str, float]) -> RunReport:
    grid = _time_grid(config)
    propagator = _propagator(config, timings)
    with _stage(timings, "evaluate"):
        coeffs = propagator.evaluate(grid)
    survived = np.abs(coeffs.survival) ** 2
    dissipated = dissipation_sum(coeffs)
    # The broadband laws: e^{-gamma t} retained, 1 - e^{-gamma t} transferred.
    retained = fock_survival(1, config.gamma, grid)
    transferred = thermal_mean_number(0.0, 1.0, config.gamma, grid)
    max_survival_dev = float(np.max(np.abs(survived - retained)))
    max_dissipation_dev = float(np.max(np.abs(dissipated - transferred)))
    summary = {
        "max_abs_u_sq_deviation": max_survival_dev,
        "max_sum_abs_v_sq_deviation": max_dissipation_dev,
        "tolerance": WWA_TOLERANCE,
        "passed": bool(
            max_survival_dev <= WWA_TOLERANCE and max_dissipation_dev <= WWA_TOLERANCE
        ),
    }
    defect = np.abs(survived + dissipated - 1.0)  # unitarity_defect, from the sums above
    table = {
        "t": grid,
        "re_u": coeffs.survival.real,
        "im_u": coeffs.survival.imag,
        "abs_u_sq": survived,
        "sum_abs_v_sq": dissipated,
        "unitarity_defect": defect,
    }
    return _report(table, meta={"summary": summary, **_propagator_diagnostics(propagator, defect)})


def _run_oracle_compare(config: ScenarioConfig, timings: dict[str, float]) -> RunReport:
    n, thermal, propagator = config.fock_n, config.thermal, _propagator(config, timings)
    grid = _time_grid(config)
    with _stage(timings, "evaluate"):
        coeffs = propagator.evaluate(grid)
    channel = ThermalAttenuator.from_coefficients(coeffs, config.occupations)
    law = fock_populations(n, np.minimum(np.abs(coeffs.survival) ** 2, 1.0)).probs
    with _stage(timings, "oracle"):
        pops = config.oracle.reduced_density(FockState(n), grid).populations
    deviation = np.max(np.abs(pops - law), axis=1)
    heff = EffectiveHamiltonian(config.omega_b, config.gamma, thermal.n_th)
    heff_mean = heff.evolve_fock(n, grid).mean_number
    exact_mean = thermal_mean_number(n, thermal.n_th, config.gamma, grid)
    table = {
        "t": grid,
        **{f"P_{m}_oracle": p for m, p in enumerate(pops.T)},
        **{f"P_{m}_law": p for m, p in enumerate(law.T)},
        "max_pop_deviation": deviation,
        "heff_fock_mean": heff_mean,
        "exact_fock_mean": exact_mean,
        "oracle_fock_mean": channel.fock_mean(n),
        "divergence": heff_mean - exact_mean,
    }
    return _report(
        table,
        meta={
            "summary": {"max_population_deviation": float(np.max(deviation))},
            **_propagator_diagnostics(propagator, unitarity_defect(coeffs)),
        },
    )


_SCENARIO_RUNNERS: dict[str, Callable[[ScenarioConfig, dict[str, float]], RunReport]] = {
    "fock-decay": _run_fock_decay,
    "coherent-decay": _run_coherent_decay,
    "excited-bath": _run_excited_bath,
    "thermal": _run_thermal,
    "wwa-validate": _run_wwa_validate,
    "oracle-compare": _run_oracle_compare,
}


def run_scenario(config: ScenarioConfig) -> RunReport:
    """Execute one scenario and return its report with full metadata.

    ``meta["timings"]`` holds the seconds spent in each stage the scenario
    runs: ``spectrum``, ``evaluate``, ``monte_carlo`` and ``oracle``. The bath,
    its temperature and the oracle are the config's, built when it was validated.
    A scenario that rotates phases records the config's ``max_phase_rounding``
    in ``meta["diagnostics"]``.
    """
    started = time.time()
    clock = time.perf_counter()
    timings: dict[str, float] = {}
    report = _SCENARIO_RUNNERS[config.scenario](config, timings)
    elapsed = time.perf_counter() - clock
    if config.max_phase_rounding is not None:
        report.meta.setdefault("diagnostics", {})["max_phase_rounding"] = config.max_phase_rounding
    report.meta = {
        "config": config.as_dict(),
        "defaults_applied": list(config.defaults_applied),
        "seed": config.seed,
        "versions": {"boson_decay": __version__, "numpy": np.__version__},
        "wall_clock_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "elapsed_seconds": elapsed,
        "timings": timings,
        **report.meta,
    }
    if report.table.shape != (config.n_steps, len(report.columns)):
        raise AssertionError("report table must have n_steps rows and one column per name")
    return report


def _text_blocks(
    table: np.ndarray, cell_sep: bytes, row_sep: bytes, names: tuple[bytes, bytes]
) -> Iterator[str]:
    """The rows of ``table`` as text, in blocks of whole rows of at most ``_BLOCK_CELLS`` cells.

    A block holds one row at least. Each cell is written as ``repr`` writes
    it (:func:`~boson_decay.floatrepr.format_rows`), followed by
    ``cell_sep``, or by ``row_sep`` at the end of its row.
    """
    rows = max(1, _BLOCK_CELLS // table.shape[1])
    for start in range(0, len(table), rows):
        yield format_rows(table[start : start + rows], cell_sep, row_sep, names).decode("ascii")


def _csv_blocks(report: RunReport) -> Iterator[str]:
    """The CSV text: the header line, then the rows in blocks.

    Each cell is the shortest text that reads back to the same float64,
    byte for byte what ``repr`` gives.
    """
    yield ",".join(report.columns) + "\n"
    yield from _text_blocks(report.table, b",", b"\n", (b"nan", b"inf"))


def _json_blocks(report: RunReport) -> Iterator[str]:
    """The text of ``json.dump({"columns", "meta", "rows"}, indent=2, sort_keys=True)``.

    The columns and the metadata are dumped whole; the rows, last in key
    order, follow in blocks. Cells are written as ``json.dump`` writes
    them: ``repr``, or NaN and the infinities by name.
    """
    head = json.dumps({"columns": report.columns, "meta": report.meta}, indent=2, sort_keys=True)
    table = report.table
    if len(table) == 0:
        yield head[: -len("\n}")] + ',\n  "rows": []\n}'
        return
    yield head[: -len("\n}")] + ',\n  "rows": [\n    [\n      '
    cell_sep, names = b",\n      ", (b"NaN", b"Infinity")
    yield from _text_blocks(table[:-1], cell_sep, b"\n    ],\n    [\n      ", names)
    yield from _text_blocks(table[-1:], cell_sep, b"", names)
    yield "\n    ]\n  ]\n}"


def _table(rows: list[list[Any]], columns: list[str]) -> np.ndarray:
    """A (len(rows), len(columns)) float table; ``float`` parses each cell."""
    table = np.array([[float(cell) for cell in row] for row in rows], dtype=float)
    return table.reshape(len(rows), len(columns))


def report_from_csv(text: str) -> RunReport:
    lines = [line for line in text.splitlines() if line]
    columns = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return RunReport(columns=columns, table=_table(rows, columns))


def report_from_json(text: str) -> RunReport:
    payload = json.loads(text)
    columns = list(payload["columns"])
    return RunReport(
        columns=columns,
        table=_table(payload["rows"], columns),
        meta=payload.get("meta", {}),
    )


def _write_into(handle: TextIO, report: RunReport, fmt: str) -> None:
    """Write the report as 'csv' or 'json' to ``handle`` without building it whole."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    handle.writelines(_csv_blocks(report) if fmt == "csv" else _json_blocks(report))
    if fmt == "json":
        handle.write("\n")


def emit_report(report: RunReport, fmt: str) -> str:
    """Serialize a report as 'csv' (table only) or 'json' (rows plus meta)."""
    buffer = io.StringIO()
    _write_into(buffer, report, fmt)
    return buffer.getvalue()


def write_report(report: RunReport, config: ScenarioConfig) -> str | None:
    """Write the serialized report to the configured destination.

    Returns the path written, or None when streaming to stdout. CSV files get
    a ``<path>.meta.json`` sidecar carrying the metadata block.
    """
    if config.output == "-":
        _write_into(sys.stdout, report, config.format)
        sys.stdout.flush()  # a reader that closed early fails here, not at exit
        return None
    try:
        with open(config.output, "w", encoding="utf-8") as handle:
            _write_into(handle, report, config.format)
        if config.format == "csv":
            sidecar = config.output + ".meta.json"
            with open(sidecar, "w", encoding="utf-8") as handle:
                json.dump(report.meta, handle, indent=2, sort_keys=True)
                handle.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {config.output!r}: {exc}") from exc
    return config.output
