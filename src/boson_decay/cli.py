"""Command-line front end: config file plus flag overrides, CSV/JSON artifacts."""

from __future__ import annotations

import argparse
import json
import sys

from .bath import write_bath_csv
from .config import SCENARIOS, build_config, parse_document
from .errors import ConfigError
from .runner import run_scenario, scenario_bath, write_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boson-decay",
        description=(
            "Run decay-process scenarios for a damped bosonic mode coupled to a "
            "flat boson bath and emit deterministic CSV/JSON records."
        ),
    )
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--scenario", choices=SCENARIOS)
    parser.add_argument("--gamma", type=float, help="energy damping rate")
    parser.add_argument("--omega-b", type=float, dest="omega_b", help="system mode frequency")
    parser.add_argument("--n-modes", type=int, dest="n_modes", help="bath discretization size")
    parser.add_argument(
        "--half-bandwidth", type=float, dest="half_bandwidth", help="bath band half-width"
    )
    parser.add_argument(
        "--band-center",
        type=float,
        dest="band_center",
        help="bath band center (defaults to omega_b)",
    )
    parser.add_argument("--beta", type=float, help="inverse temperature")
    parser.add_argument("--fock-n", type=int, dest="fock_n", help="initial excitation number")
    parser.add_argument("--alpha-re", type=float, dest="alpha_re", help="initial label, real part")
    parser.add_argument(
        "--alpha-im", type=float, dest="alpha_im", help="initial label, imaginary part"
    )
    parser.add_argument("--t-max", type=float, dest="t_max", help="end of the time grid")
    parser.add_argument("--n-steps", type=int, dest="n_steps", help="number of grid points")
    parser.add_argument("--samples", type=int, help="monte carlo sample count")
    parser.add_argument("--seed", type=int, help="monte carlo seed")
    parser.add_argument(
        "--excited-mode", type=int, dest="excited_mode", help="index of the excited bath mode"
    )
    parser.add_argument(
        "--lambda-re", type=float, dest="lambda_re", help="excited bath label, real part"
    )
    parser.add_argument(
        "--lambda-im", type=float, dest="lambda_im", help="excited bath label, imaginary part"
    )
    parser.add_argument("--output", help="output path ('-' for stdout)")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument(
        "--dump-bath",
        dest="dump_bath",
        metavar="PATH",
        help="also write the discretized bath as CSV (columns j, omega_j, xi_j)",
    )
    return parser


def _error_record(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("config", "dump_bath") and value is not None
    }
    try:
        document = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as handle:
                document = parse_document(handle.read())
        config = build_config(document, overrides)
        report = run_scenario(config)
        if args.dump_bath:
            if config.n_modes is None or config.half_bandwidth is None:
                raise ConfigError("dump-bath requires n_modes and half_bandwidth")
            write_bath_csv(scenario_bath(config), args.dump_bath)
        path = write_report(report, config)
        summary = report.meta.get("summary")
        if summary is not None:
            print(json.dumps({"summary": summary}), file=sys.stderr)
        if path is not None:
            print(f"wrote {path}", file=sys.stderr)
    except Exception as exc:  # single-line machine-readable error record
        print(_error_record(exc), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
