"""Scenario benchmark for the boson-decay CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

An operation is one fresh interpreter (``bench/op.py``) that imports
``boson_decay`` from ``src/``, validates the scenario config and runs it
through ``boson_decay.cli.main``, writing CSV to a temporary directory under
``bench/.work``: the work a CLI user pays for on every run. Operations run
closed-loop and one at a time from this single parent process; OpenBLAS and
the Monte Carlo pool keep their own defaults (both resolve to ``nproc``).
Each operation's output is checked (``bench/checks.py``); a nonzero exit or
a failed check counts as a failed operation.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: launch of the interpreter until ``boson_decay`` is imported
  and the config validated. Median over the run's operations and over
  set-up-only launches made at the start of the run.
* ``solve_s``: duration of the ``cli.main`` call, from validated config to
  the closed output file. Median over the run's operations.
* ``peak_rss_mb``: peak resident memory of an operation's process (median).
* ``success_rate``: 1 - failed / attempted operations (the error rate's
  complement, so that it is never 0 on a healthy program).

``--trace 1`` alternates untraced and traced operations. Traced ones wrap
the public functions and methods of every ``boson_decay`` module from
outside (``bench/spans.py``). The traced operation with the median
``solve_s`` gives per-layer time, call counts and per-module self time (all
from one operation, so the self times add up to its ``cli.main`` span), plus
``trace.overhead_s``: its ``solve_s`` minus the untraced median.

``--smoke`` runs every workload at a tiny size, one untraced and one traced
operation each, with all output checks and the trace consistency check,
and exits nonzero if any fails. It takes a few seconds.

The last line of standard output is the result JSON. Machine facts, every
operation's record, CSV sha256 digests (information only) and the spans of
traced operations go to ``bench/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

SETUP_PROBES = 8
MIN_OPS = 3  # a median of at least three, even where one operation takes a third of the run
RUN_LIMIT_S = 165.0  # an operation still running then is killed and counted as failed


@dataclass(frozen=True)
class Workload:
    config: dict
    smoke: dict  # overrides that shrink the workload for --smoke
    layers: tuple  # layers that must show time in a traced operation


WORKLOADS = {
    # Acceptance-fixture regime and the ROADMAP baseline row; bound by the propagator
    # (per-t coefficients, then eigh). The program reports passed=false on this
    # 201-point grid (max ||u|^2-e^-t| 0.039 at t=0.1, over its 0.02 tolerance), so that
    # verdict is recorded, not gated on; unitarity and the Weisskopf-Wigner laws at 0.05 are.
    "wwa-2000x201": Workload(
        config=dict(
            scenario="wwa-validate", gamma=1.0, omega_b=100.0, band_center=100.0,
            half_bandwidth=20.0, n_modes=2000, n_steps=201, t_max=5.0,
        ),
        smoke=dict(n_modes=100, n_steps=11),
        layers=("propagator.eigh", "propagator.coefficients"),
    ),
    # Uses the propagator through the O(N^3) bath-to-bath block, and is the only
    # workload that samples the thermal bath and takes Monte Carlo moments; the Monte
    # Carlo seed is the benchmark seed.
    "thermal-800x1e4": Workload(
        config=dict(
            scenario="thermal", gamma=1.0, omega_b=800.0, band_center=800.0,
            half_bandwidth=80.0, n_modes=800, samples=10_000, n_steps=21, t_max=5.0,
            beta=math.log(2.0) / 800.0,
        ),
        smoke=dict(n_modes=200, samples=2000, n_steps=6, t_max=3.0),
        layers=(
            "propagator.bath_block", "thermal.sample", "thermal.mc", "thermal.exact",
            "bath.occupations",
        ),
    ),
    # Dense Fock-space oracle dominates and the propagator is negligible at N=4: the
    # control for propagator changes.
    "oracle-fock10": Workload(
        config=dict(
            scenario="oracle-compare", gamma=1.0, omega_b=100.0, band_center=100.0,
            half_bandwidth=20.0, n_modes=4, fock_n=10, beta=0.2, n_steps=201, t_max=5.0,
        ),
        smoke=dict(n_modes=2, fock_n=3, n_steps=11),
        layers=("decay.oracle_build", "decay.oracle_eval", "decay.populations", "bath.occupations"),
    ),
    # No bath: the binomial law and CSV serialization dominate, so the runner's per-t
    # loop and writer are measured here and nowhere else.
    "fock-laws-200x2001": Workload(
        config=dict(
            scenario="fock-decay", gamma=1.0, omega_b=100.0, fock_n=200, n_steps=2001, t_max=5.0,
        ),
        smoke=dict(fock_n=20, n_steps=51),
        layers=("decay.populations",),
    ),
}

# Per-layer metric prefix -> the span names it sums.
LAYERS = {
    "config.build": ("config.build_config",),
    "cli.main": ("cli.main",),
    "bath.discretize": ("bath.discretize_bath",),
    "bath.occupations": ("bath.ThermalSpec.occupations",),
    "propagator.eigh": ("propagator.ExactPropagator.__init__",),
    "propagator.coefficients": ("propagator.ExactPropagator.coefficients",),
    "thermal.sample": ("thermal.sample_thermal_bath",),
    "thermal.mc": ("thermal.monte_carlo_moments",),
    "thermal.exact": ("thermal.exact_thermal_moments", "thermal.thermal_factor_discrete"),
    "decay.oracle_build": ("decay.FockSpaceOracle.__init__",),
    "decay.oracle_eval": ("decay.FockSpaceOracle.reduced_density",),
    "decay.populations": ("decay.fock_populations",),
    "runner.run": ("runner.run_scenario",),
    "runner.write": ("runner.write_report",),
}
COMMON_LAYERS = ("cli.main", "config.build", "runner.run", "runner.write")
COUNTED = (
    "bath.occupations",
    "propagator.coefficients",
    "thermal.mc",
    "decay.oracle_eval",
    "decay.populations",
)

UNITS = {"_s": "s", "_calls": "count", "_bytes": "B", "bytes_written": "B"}


def _unit(metric: str) -> str:
    return next(unit for suffix, unit in UNITS.items() if metric.endswith(suffix))


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def workload_config(name: str, seed: int, smoke: bool) -> dict:
    workload = WORKLOADS[name]
    config = dict(workload.config, **(workload.smoke if smoke else {}))
    if "samples" in config:
        config["seed"] = seed
    return config


def run_op(config: dict, trace: bool, setup_only: bool, started: float) -> dict:
    """Launch one fresh interpreter, check what it wrote, and return its record."""
    opdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        output = str(opdir / "out.csv")
        config = dict(config, output=output, format="csv")
        spec = {
            "src": str(SRC),
            "config": config,
            "result": str(opdir / "record.json"),
            "trace": trace,
            "setup_only": setup_only,
        }
        spec_path = opdir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        record = {"traced": trace, "setup_only": setup_only, "problems": []}
        launched = _now()
        try:
            proc = subprocess.run(
                [sys.executable, "-I", str(BENCH / "op.py"), str(spec_path)],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=max(1.0, RUN_LIMIT_S - (launched - started)),
            )
        except subprocess.TimeoutExpired:
            record["problems"].append("timed out")
            return record
        record["wall_s"] = _now() - launched
        if proc.returncode != 0:
            record["problems"].append(f"op exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return record
        child = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        record["setup_s"] = child["ready"] - launched
        if setup_only:
            return record
        for key in ("solve_s", "peak_rss_mb", "blas_threads", "mc_pool_threads", "spans"):
            record[key] = child[key]
        if child["code"] != 0:
            record["problems"].append(f"cli exited {child['code']}: {proc.stderr.strip()[-400:]}")
            return record
        with open(output, "rb") as handle:
            record["sha256"] = hashlib.sha256(handle.read()).hexdigest()
        meta = json.loads(Path(output + ".meta.json").read_text(encoding="utf-8"))
        problems, facts = checks.check(config, output, meta)
        record["problems"] += problems
        record["check_facts"] = facts
        return record
    finally:
        shutil.rmtree(opdir, ignore_errors=True)


def layer_metrics(op_spans: list[list]) -> dict[str, float]:
    """Per-layer times and counts of one traced operation."""
    by_name: dict[str, list[list]] = {}
    for span in op_spans:
        by_name.setdefault(span[0], []).append(span)
    metrics = {}
    for layer, names in LAYERS.items():
        matched = [span for name in names for span in by_name.get(name, [])]
        metrics[f"{layer}_s"] = sum(end - start for _, start, end, _, _ in matched)
        if layer in COUNTED:
            metrics[f"{layer}_calls"] = len(matched)
    coefficients = by_name.get("propagator.ExactPropagator.coefficients", [])
    block = [span for span in coefficients if span[4]["bath_block"]]
    metrics["propagator.bath_block_s"] = sum(span[2] - span[1] for span in block)
    metrics["propagator.bath_block_calls"] = len(block)
    metrics["propagator.coefficients_bytes"] = sum(s[4]["computed_bytes"] for s in coefficients)
    writes = by_name.get("runner.write_report", [])
    metrics["runner.bytes_written"] = sum(span[4]["bytes_written"] for span in writes)
    for module, seconds in spans.self_times(op_spans).items():
        metrics[f"{module}.self_s"] = seconds
    return metrics


def trace_consistency(record: dict) -> list[str]:
    """Self times must add up to the root span, which must fit in solve_s."""
    op_spans = record["spans"]
    roots = [span for span in op_spans if span[3] is None]
    problems = []
    if [span[0] for span in roots] != ["cli.main"]:
        problems.append(f"expected one root span cli.main, got {[span[0] for span in roots]}")
        return problems
    main_s = roots[0][2] - roots[0][1]
    total_self = sum(spans.self_times(op_spans).values())
    if abs(total_self - main_s) > 1e-9 * max(1.0, main_s) + 1e-9:
        problems.append(f"self times sum to {total_self} s, root span is {main_s} s")
    if main_s > record["solve_s"]:
        problems.append(f"root span {main_s} s exceeds solve_s {record['solve_s']} s")
    return problems


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[float]]:
    config = workload_config(name, seed, smoke=False)
    started = _now()
    # First launch compiles bytecode and warms the file cache; not counted.
    warm = run_op(config, trace=False, setup_only=True, started=started)
    if warm["problems"]:
        raise SystemExit(f"set-up failed: {warm['problems']}")
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = run_op(config, trace=False, setup_only=True, started=started)
            if probe["problems"]:
                raise SystemExit(f"set-up failed: {probe['problems']}")
            setup.append(probe["setup_s"])
    ops: list[dict] = []
    while True:
        elapsed = _now() - started
        walls = [op["wall_s"] for op in ops if "wall_s" in op]
        typical = statistics.median(walls) if walls else 0.0
        if elapsed + typical > RUN_LIMIT_S:
            break  # another operation would not finish before the limit
        if len(ops) >= MIN_OPS and elapsed + typical > seconds:
            break
        traced = trace and len(ops) % 2 == 1
        ops.append(run_op(config, trace=traced, setup_only=False, started=started))
    setup += [op["setup_s"] for op in ops if "setup_s" in op]
    return ops, setup


def _median_of(ops: list[dict], key: str) -> float:
    values = [op[key] for op in ops if key in op]
    if not values:
        raise SystemExit(f"no operation produced {key}")
    return statistics.median(values)


def end_to_end(ops: list[dict], setup: list[float], failed: int) -> tuple[dict, dict]:
    solve = sorted(op["solve_s"] for op in ops if "solve_s" in op)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "solve_s": (_median_of(ops, "solve_s"), "s"),
        "peak_rss_mb": (_median_of(ops, "peak_rss_mb"), "MB"),
        "success_rate": ((len(ops) - failed) / len(ops), "ratio"),
    }
    detail = {
        "setup_samples": len(setup),
        "solve_samples": len(solve),
        "ops": len(ops),
        "error_rate": failed / len(ops),
    }
    # A high percentile is reported only when at least ten samples lie beyond it.
    if len(solve) >= 100:
        detail["solve_s_p90"] = statistics.quantiles(solve, n=10)[-1]
    return metrics, detail


def per_layer(ops: list[dict]) -> dict:
    """Layers of the median traced operation, so its self times add up to its solve_s."""
    traced = sorted(
        (op for op in ops if op["traced"] and op.get("spans") is not None),
        key=lambda op: op["solve_s"],
    )
    plain = [op["solve_s"] for op in ops if not op["traced"] and "solve_s" in op]
    if not traced or not plain:
        raise SystemExit("trace run needs at least one traced and one untraced operation")
    median_op = traced[(len(traced) - 1) // 2]
    metrics = {key: (value, _unit(key)) for key, value in layer_metrics(median_op["spans"]).items()}
    metrics["trace.solve_s"] = (median_op["solve_s"], "s")
    metrics["trace.overhead_s"] = (median_op["solve_s"] - statistics.median(plain), "s")
    return metrics


def bench(args) -> int:
    trace = args.trace == 1
    ops, setup = measure(args.workload, args.seed, args.seconds, trace)
    for op in ops:
        if trace and op["traced"] and op.get("spans") is not None:
            op["problems"] += trace_consistency(op)
    failed = sum(1 for op in ops if op["problems"])
    detail: dict = {}
    if trace:
        metrics = per_layer(ops)
    else:
        metrics, detail = end_to_end(ops, setup, failed)
    facts = machine_facts()
    for key in ("blas_threads", "mc_pool_threads"):
        facts[key] = sorted({op[key] for op in ops if op.get(key) is not None})
    facts["seed"] = args.seed
    facts["csv_sha256"] = sorted({op["sha256"] for op in ops if "sha256" in op})
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "config": workload_config(args.workload, args.seed, smoke=False),
                "facts": facts,
                "detail": detail,
                "metrics": {key: value for key, (value, _) in metrics.items()},
                "ops": ops,
            }
        )
        + "\n",
        encoding="utf-8",
    )
    for op in ops:
        for problem in op["problems"]:
            print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"facts": facts, "detail": detail}), file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def smoke(args) -> int:
    started = _now()
    ok = True
    for name in WORKLOADS:
        config = workload_config(name, args.seed, smoke=True)
        plain = run_op(config, trace=False, setup_only=False, started=started)
        traced = run_op(config, trace=True, setup_only=False, started=started)
        problems = plain["problems"] + traced["problems"]
        if traced.get("spans") is not None:
            problems += trace_consistency(traced)
            layers = layer_metrics(traced["spans"])
            for layer in COMMON_LAYERS + WORKLOADS[name].layers:
                if not layers[f"{layer}_s"] > 0:
                    problems.append(f"no time traced in {layer}")
        if plain.get("sha256") != traced.get("sha256"):
            problems.append("traced and untraced CSV differ")
        ok = ok and not problems
        print(json.dumps({"workload": name, "problems": problems}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (SRC / "boson_decay" / "cli.py").is_file():
        print(f"boson_decay sources not found under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
