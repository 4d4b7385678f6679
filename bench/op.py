"""One benchmark operation: a fresh interpreter runs one scenario through the CLI.

Usage: python3 -I bench/op.py SPEC.json

SPEC.json names the source tree to import (``src``), the flat scenario
config (``config``, passed to the CLI as ``--key value`` arguments), where
to write the result record (``result``), and whether to trace
(``trace``) or to stop once set-up is done (``setup_only``).

The record holds the CLOCK_MONOTONIC instant at which ``boson_decay`` was
imported and the config validated (the parent subtracts its launch instant
to get set-up time), the exit code and duration of ``cli.main``, the peak
resident set of this process, facts about BLAS threading and, when traced,
the spans.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _coefficient_attrs(args, kwargs, result) -> dict:
    """Bytes of the matrix-product operands and results, computed from shapes."""
    propagator = args[0]
    block = kwargs.get("include_bath_block", args[2] if len(args) > 2 else False)
    n_bath = propagator.bath.n_modes
    n = n_bath + 1
    # row 0: (v[0] * phases) complex, v.T real, result complex
    computed = 16 * n + 8 * n * n + 16 * n
    if block:
        # bath block: (v[1:] * phases) complex, v[1:].T real, result complex
        computed += 16 * n_bath * n_bath + 8 * n_bath * n_bath + 16 * n_bath * n_bath
    return {"bath_block": bool(block), "computed_bytes": computed}


def _written_attrs(args, kwargs, result) -> dict:
    if result is None:
        return {"bytes_written": 0}
    written = os.path.getsize(result)
    if os.path.exists(result + ".meta.json"):
        written += os.path.getsize(result + ".meta.json")
    return {"bytes_written": written}


SPAN_ATTRS = {
    "propagator.ExactPropagator.coefficients": _coefficient_attrs,
    "runner.write_report": _written_attrs,
}


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def _argv(config: dict) -> list[str]:
    argv = []
    for key, value in config.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]  # str of a float round-trips
    return argv


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    from boson_decay import cli
    from boson_decay.config import build_config

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        raise SystemExit(f"imported boson_decay from {cli.__file__}, not from {spec['src']}")
    build_config({}, spec["config"])
    record = {"ready": _now()}
    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import spans

            tracer = spans.Tracer(SPAN_ATTRS)
            spans.install(tracer)
        start = _now()
        code = cli.main(_argv(spec["config"]))
        record["solve_s"] = _now() - start
        record["code"] = code
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["blas_threads"] = _blas_threads()
        from boson_decay import thermal

        resolve = getattr(thermal, "_resolve_threads", None)
        record["mc_pool_threads"] = resolve(None) if resolve is not None else None
        record["spans"] = tracer.spans if tracer is not None else None
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
