"""Scenario execution and deterministic report emission.

Each scenario evaluates its laws as arrays over a uniform time grid and
stacks the named columns once into one (T, C) float64 table; columns follow
the per-module CSV schemas. CSV artifacts contain only the table (so
identical runs are byte-identical). CSV and the rows of JSON are formatted
and written in blocks of ``_CSV_BLOCK_ROWS`` rows, shared round-robin by up
to one process per usable CPU, so a report never exists as one string or as
one list of Python floats, and its bytes do not depend on the CPU count.
Metadata, including the seconds spent in each stage of the run
(``meta["timings"]``), travels in the JSON format or in a ``.meta.json``
sidecar next to a CSV file.
"""

from __future__ import annotations

import io
import json
import math
import os
import signal
import struct
import sys
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Callable, Iterator, TextIO

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
    fock_survival,
)
from .propagator import (
    ExactPropagator,
    SystemMode,
    analytic_survival,
    dissipation_sum,
    unitarity_defect,
    usable_cpus,
)
from .thermal import (
    EffectiveHamiltonian,
    conditional_mean_number,
    exact_thermal_moments,
    monte_carlo_moments,
    sample_thermal_bath,
    thermal_factor_closed,
    thermal_factor_discrete,
    thermal_mean_number,
)

WWA_TOLERANCE = 2e-2

# Rows formatted per CSV or JSON block: bounds the Python floats and text held at once.
_CSV_BLOCK_ROWS = 64


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
    survival = analytic_survival(_system(config), config.gamma, grid)
    return _report(_coherent_table(grid, *coherent_decay(config.alpha, survival)))


def _run_excited_bath(config: ScenarioConfig, timings: dict[str, float]) -> RunReport:
    with _stage(timings, "bath"):
        bath = scenario_bath(config)
    with _stage(timings, "spectrum"):
        propagator = ExactPropagator(_system(config), bath)
    lambdas = np.zeros(bath.n_modes, dtype=complex)
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
    system = _system(config)
    with _stage(timings, "bath"):
        bath = scenario_bath(config)
    thermal = ThermalSpec.for_system(config.beta, config.omega_b)
    grid = _time_grid(config)
    with _stage(timings, "spectrum"):
        propagator = ExactPropagator(system, bath)
    with _stage(timings, "evaluate"):
        coeffs = propagator.evaluate(grid)
    alpha = config.alpha
    phi_c = thermal_factor_closed(thermal.n_th, config.gamma, grid)
    survival = analytic_survival(system, config.gamma, grid)
    heff = EffectiveHamiltonian(config.omega_b, config.gamma, thermal.n_th)
    with _stage(timings, "monte_carlo"):
        samples = sample_thermal_bath(bath, thermal, config.samples, config.seed)
        mc, errors = monte_carlo_moments(alpha, thermal, coeffs, samples)
    oracle = exact_thermal_moments(alpha, bath, thermal, coeffs).occupation
    meta = _propagator_diagnostics(propagator, unitarity_defect(coeffs))
    # Rows whose branches all coincide (t = 0) have a stderr of rounding size only.
    resolved = errors.occupation > 1e-12
    z = np.abs(mc.occupation - oracle)[resolved] / errors.occupation[resolved]
    meta["diagnostics"]["max_mc_z_score"] = float(np.max(z, initial=0.0))
    return _report(
        {
            "t": grid,
            "phi_discrete": thermal_factor_discrete(bath, thermal, coeffs).value,
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
    with _stage(timings, "bath"):
        bath = scenario_bath(config)
    with _stage(timings, "spectrum"):
        propagator = ExactPropagator(_system(config), bath)
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
    defect = unitarity_defect(coeffs)
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
    system = _system(config)
    with _stage(timings, "bath"):
        bath = scenario_bath(config)
    n = config.fock_n
    oracle = FockSpaceOracle(system, bath, n_max=n)
    # No beta is zero temperature: n_th = 0 and a vacuum bath.
    thermal = ThermalSpec.for_system(
        config.beta if config.beta is not None else math.inf, config.omega_b
    )
    grid = _time_grid(config)
    with _stage(timings, "spectrum"):
        propagator = ExactPropagator(system, bath)
    with _stage(timings, "evaluate"):
        coeffs = propagator.evaluate(grid)
    survived = np.abs(coeffs.survival) ** 2
    law = fock_populations(n, np.minimum(survived, 1.0)).probs
    with _stage(timings, "oracle"):
        pops = oracle.reduced_density(FockState(n), grid).populations
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
        "oracle_fock_mean": n * survived + dissipation_sum(coeffs, thermal.occupations(bath)),
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
    runs: ``bath``, ``spectrum``, ``evaluate``, ``monte_carlo`` and ``oracle``.
    """
    started = time.time()
    clock = time.perf_counter()
    timings: dict[str, float] = {}
    report = _SCENARIO_RUNNERS[config.scenario](config, timings)
    elapsed = time.perf_counter() - clock
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


def _formatted_blocks(rows: int, format_block: Callable[[int], str]) -> Iterator[str]:
    """``format_block(start)`` for each block of ``_CSV_BLOCK_ROWS`` of ``rows`` rows, in order.

    Block b is formatted by worker b mod W, W = min(usable CPUs, blocks), or
    W = 1 where ``os.fork`` is missing. Worker 0 is this process; workers 1
    to W - 1 are forked children, each sending its blocks through its own
    pipe (:func:`_fork_formatter`). Blocks are yielded as they are needed, so
    a child runs at most one block and a pipe's buffer ahead. The text does
    not depend on W. Every child is killed if still running and reaped before
    this generator ends, however it ends.
    """
    starts = range(0, rows, _CSV_BLOCK_ROWS)
    workers = min(usable_cpus(), len(starts)) if hasattr(os, "fork") else 1
    children: list[tuple[int, BinaryIO]] = []
    try:
        for worker in range(1, workers):
            children.append(_fork_formatter(starts[worker::workers], format_block))
        for index, start in enumerate(starts):
            worker = index % workers
            yield format_block(start) if worker == 0 else _receive(children[worker - 1][1])
    finally:
        for pid, reader in children:
            reader.close()
            os.kill(pid, signal.SIGKILL)  # harmless once a child has sent its last block
            os.waitpid(pid, 0)


def _fork_formatter(starts: range, format_block: Callable[[int], str]) -> tuple[int, BinaryIO]:
    """Fork a child that sends ``format_block(start)`` for each start; its pid and pipe.

    Each block goes as a signed 8-byte length and the UTF-8 text; a failure
    goes as the negated length of its message. The child leaves through
    ``os._exit`` on every path, so it never flushes a stream it inherited.
    It is forked, not spawned, so that it reads the table where it lies
    instead of importing numpy and receiving a pickled copy. Forking a
    process with threads (OpenBLAS keeps a pool) is safe here: the child only
    slices the table and formats and writes text, taking no lock that
    another thread could have held at the fork apart from malloc's and the
    interpreter's, which are reset in the child.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            for start in starts:
                payload = format_block(start).encode("utf-8")
                _send(write_fd, struct.pack("<q", len(payload)) + payload)
            code = 0
        except BaseException as exc:
            message = f"{type(exc).__name__}: {exc}".encode("utf-8")
            _send(write_fd, struct.pack("<q", -len(message)) + message)
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _send(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _receive(reader: BinaryIO) -> str:
    """The next block a :func:`_fork_formatter` child sent; its failure as a ``RuntimeError``."""
    head = reader.read(8)
    if len(head) == 8:
        size = struct.unpack("<q", head)[0]
        body = reader.read(abs(size))
        if len(body) == abs(size):
            if size < 0:
                raise RuntimeError(f"report formatting process failed: {body.decode('utf-8')}")
            return body.decode("utf-8")
    raise RuntimeError("a report formatting process ended before sending its rows")


def _csv_blocks(report: RunReport) -> Iterator[str]:
    """The CSV text: the header line, then one string per block of rows.

    ``repr`` of a float from ``tolist`` is its shortest round-trip form, so
    every cell reads back to the same float64.
    """
    yield ",".join(report.columns) + "\n"
    table = report.table

    def block(start: int) -> str:
        rows = table[start : start + _CSV_BLOCK_ROWS].tolist()
        return "".join(",".join(map(repr, row)) + "\n" for row in rows)

    yield from _formatted_blocks(len(table), block)


def _json_number(cell: float) -> str:
    """A float as ``json.dump`` writes it: ``repr``, or NaN and the infinities by name."""
    if math.isfinite(cell):
        return repr(cell)
    return "NaN" if cell != cell else ("Infinity" if cell > 0 else "-Infinity")


def _json_blocks(report: RunReport) -> Iterator[str]:
    """The text of ``json.dump({"columns", "meta", "rows"}, indent=2, sort_keys=True)``.

    The columns and the metadata are dumped whole; the rows, last in key
    order, follow in blocks of ``_CSV_BLOCK_ROWS`` rows.
    """
    head = json.dumps({"columns": report.columns, "meta": report.meta}, indent=2, sort_keys=True)
    table = report.table
    if len(table) == 0:
        yield head[: -len("\n}")] + ',\n  "rows": []\n}'
        return
    yield head[: -len("\n}")] + ',\n  "rows": [\n    '
    cell_sep, row_sep = ",\n      ", "\n    ],\n    [\n      "

    def block(start: int) -> str:
        rows = table[start : start + _CSV_BLOCK_ROWS].tolist()
        text = row_sep.join(cell_sep.join(map(_json_number, row)) for row in rows)
        return ("[\n      " if start == 0 else row_sep) + text

    yield from _formatted_blocks(len(table), block)
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
    # Closed on any exit, so that the formatting processes are reaped before this returns.
    with closing(_csv_blocks(report) if fmt == "csv" else _json_blocks(report)) as blocks:
        handle.writelines(blocks)
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
