"""Command-line interface: check-gains, simulate, reproduce, analyze.

Exit codes: 0 ok, 1 usage/format error, 2 infeasible certificate,
3 solver divergence, 4 bound violation.
"""
from __future__ import annotations

import argparse
import sys

from . import harness
from .errors import CertificateError, ConfigError, DivergenceError


class _Parser(argparse.ArgumentParser):
    """Raises on a bad command line instead of exiting 2; offers --help alone."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _load_config(path) -> harness.ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return harness.parse_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _check_gains(args):
    """Evaluate both regimes' tuning rules and optimize the certificate."""
    yield harness.run_check_gains(_load_config(args.config))


def _simulate(args):
    """Run a configured simulation and write its time-series CSV."""
    yield harness.run_simulate(_load_config(args.config), harness.default_out_dir(args.out))


def _reproduce(args):
    """Run a reproduction preset with its contractual checks."""
    out = harness.default_out_dir(args.out)
    for tid in (1, 2, 3) if args.test == "all" else (int(args.test),):
        yield harness.run_reproduce(tid, out, conservative_iss=args.conservative)


def _analyze(args):
    """Decay-rate, ISS-violation and cross-run ratio reports from CSVs."""
    yield harness.run_analyze(args.csv_paths)


def _parser() -> _Parser:
    ap = _Parser(prog="waveconsensus", description="Leader-follower wave-consensus "
                 "simulator and certificate toolkit.")
    commands = ap.add_subparsers(dest="command", required=True)
    subs = {}
    for name, run in (("check-gains", _check_gains), ("simulate", _simulate),
                      ("reproduce", _reproduce), ("analyze", _analyze)):
        subs[name] = commands.add_parser(name, help=run.__doc__, description=run.__doc__)
        subs[name].set_defaults(run=run)
    for name in ("check-gains", "simulate"):
        subs[name].add_argument("--config", required=True, help="experiment config (JSON)")
    reproduce = subs["reproduce"]
    reproduce.add_argument("--test", required=True, choices=("1", "2", "3", "all"),
                           help="reproduction test: 1, 2, 3 or 'all'")
    for name in ("simulate", "reproduce"):
        subs[name].add_argument("--out", help="output directory (or $WAVECONSENSUS_OUT)")
    # one destination, so the last of the pair given wins
    reproduce.add_argument("--conservative-iss", dest="conservative", action="store_true",
                           help="the contractual ISS transient variant (default conservative)")
    reproduce.add_argument("--verbatim-iss", dest="conservative", action="store_false")
    reproduce.set_defaults(conservative=True)
    subs["analyze"].add_argument("csv_paths", nargs="+", metavar="CSV",
                                 help="a CSV written by simulate or reproduce")
    return ap


def main(argv=None):
    """Run one command; always ends in SystemExit with the exit code."""
    failures = {argparse.ArgumentError: ("usage error", harness.EXIT_USAGE),
                ConfigError: ("config error", harness.EXIT_USAGE),
                CertificateError: ("infeasible", harness.EXIT_INFEASIBLE),
                DivergenceError: ("diverged", harness.EXIT_DIVERGED)}
    code = harness.EXIT_OK
    try:
        args = _parser().parse_args(argv)
        for result in args.run(args):
            print(result.report, flush=True)
            code = max(code, result.exit_code)
    except tuple(failures) as exc:
        prefix, code = next(v for kind, v in failures.items() if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
