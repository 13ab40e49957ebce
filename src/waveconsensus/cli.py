"""Command-line interface: check-gains, simulate, reproduce, analyze.

Exit codes: 0 ok, 1 usage/format error, 2 infeasible certificate,
3 solver divergence, 4 bound violation.
"""
from __future__ import annotations

import sys

import click

from . import harness
from .errors import CertificateError, ConfigError, DivergenceError


@click.group()
def cli():
    """Leader-follower wave-consensus simulator and certificate toolkit."""


def _load_config(path) -> harness.ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return harness.parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


@cli.command("check-gains")
@click.option("--config", "config_path", required=True, type=click.Path(),
              help="experiment configuration (JSON)")
def check_gains_cmd(config_path):
    """Evaluate both regimes' tuning rules and optimize the certificate."""
    result = harness.run_check_gains(_load_config(config_path))
    click.echo(result.report)
    sys.exit(result.exit_code)


@cli.command("simulate")
@click.option("--config", "config_path", required=True, type=click.Path(),
              help="experiment configuration (JSON)")
@click.option("--out", "out_dir", default=None, type=click.Path(),
              help="output directory (or $WAVECONSENSUS_OUT)")
def simulate_cmd(config_path, out_dir):
    """Run a configured simulation and write its time-series CSV."""
    result = harness.run_simulate(_load_config(config_path),
                                  harness.default_out_dir(out_dir))
    click.echo(result.report)
    sys.exit(result.exit_code)


@cli.command("reproduce")
@click.option("--test", "test_id", required=True,
              type=click.Choice(["1", "2", "3", "all"]),
              help="reproduction test: 1, 2, 3 or 'all'")
@click.option("--out", "out_dir", default=None, type=click.Path(),
              help="output directory (or $WAVECONSENSUS_OUT)")
@click.option("--conservative-iss/--verbatim-iss", "conservative", default=True,
              help="which ISS transient variant is contractual (default conservative)")
def reproduce_cmd(test_id, out_dir, conservative):
    """Run a reproduction preset with its contractual checks."""
    ids = (1, 2, 3) if test_id == "all" else (int(test_id),)
    out = harness.default_out_dir(out_dir)
    worst = harness.EXIT_OK
    for tid in ids:
        result = harness.run_reproduce(tid, out, conservative_iss=conservative)
        click.echo(result.report)
        worst = max(worst, result.exit_code)
    sys.exit(worst)


@cli.command("analyze")
@click.argument("csv_paths", nargs=-1, required=True, type=click.Path())
def analyze_cmd(csv_paths):
    """Decay-rate, ISS-violation and cross-run ratio reports from CSVs."""
    result = harness.run_analyze(list(csv_paths))
    click.echo(result.report)
    sys.exit(result.exit_code)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        sys.exit(harness.EXIT_USAGE)
    except click.ClickException as exc:
        exc.show()
        sys.exit(harness.EXIT_USAGE)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(harness.EXIT_USAGE)
    except CertificateError as exc:
        click.echo(f"infeasible: {exc}", err=True)
        sys.exit(harness.EXIT_INFEASIBLE)
    except DivergenceError as exc:
        click.echo(f"diverged: {exc}", err=True)
        sys.exit(harness.EXIT_DIVERGED)
    except SystemExit:
        raise
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)


if __name__ == "__main__":
    main()
