"""Command-line front end: config file plus flag overrides, CSV/JSON artifacts."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bath import write_bath_csv
from .config import SCHEMA, build_config, parse_document
from .errors import ConfigError
from .runner import run_scenario, write_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boson-decay",
        description=(
            "Run decay-process scenarios for a damped bosonic mode coupled to a "
            "flat boson bath and emit deterministic CSV/JSON records. Every "
            "config key is also a flag; flag values are coerced and validated "
            "exactly as in a config file."
        ),
    )
    parser.add_argument("--config", help="flat key=value configuration file")
    for key, (_, _, help_text) in SCHEMA.items():
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, help=help_text)
    parser.add_argument(
        "--dump-bath",
        dest="dump_bath",
        metavar="PATH",
        help="also write the discretized bath as CSV (columns j, omega_j, xi_j)",
    )
    return parser


def _joined(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """``argv`` with each value flag joined to the token after it, as ``--beta=-inf``.

    Argparse (3.10-3.12) reads a separate ``-1e+16``, ``-1e-3`` or ``-inf``
    as a flag rather than as the value of the flag before it; joined, every
    value reaches the config's own coercion and checks.
    """
    flags = {option for action in parser._actions if action.nargs is None for option in action.option_strings}
    tokens, joined = iter(argv), []
    for token in tokens:
        value = next(tokens, None) if token in flags else None
        joined.append(token if value is None else f"{token}={value}")
    return joined


def _error_record(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_joined(parser, sys.argv[1:] if argv is None else argv))
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
        if args.dump_bath and config.bath is None:
            raise ConfigError("dump-bath requires n_modes and half_bandwidth")
        report = run_scenario(config)
        if args.dump_bath:
            write_bath_csv(config.bath, args.dump_bath)
        path = write_report(report, config)
        summary = report.meta.get("summary")
        if summary is not None:
            print(json.dumps({"summary": summary}), file=sys.stderr)
        if path is not None:
            print(f"wrote {path}", file=sys.stderr)
    except BrokenPipeError as exc:
        # The stdout reader closed early. Point stdout at devnull so the
        # interpreter's final flush of what is still buffered cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(_error_record(exc), file=sys.stderr)
        return 1
    except Exception as exc:  # single-line machine-readable error record
        print(_error_record(exc), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
