"""Command line front end.

Result tables go to stdout (or --out) as CSV and are byte-identical for a
fixed config and seed; progress and timing go to stderr. Exit codes: 0 on
success, 1 when a verification check fails, 2 for an invalid configuration
(including a missing config file, an --out path that is a directory, ends in
a separator, lies in a missing directory, has a .json suffix or that the
operating system refuses, a flip position outside 1..n and a sampled round
that keeps none of its shots), 3 when the request is outside the protocol's
domain (say, a control-mode flip).
"""

from __future__ import annotations

import sys
import time
from importlib import metadata

import click

from .errors import UnsupportedInputError
from .harness import (
    CONFIG_KEYS,
    ERROR_ALIASES,
    ExperimentConfig,
    render_csv,
    resolve_config,
    run_correct,
    run_purify,
    run_sweep,
    write_results,
)
from .verify import run_verify


def _options(mode: str):
    """--config plus an option per config key that `mode` reads, each
    defaulting to None so that a config file can fill it."""
    def decorate(fn):
        fn = click.option("--config", "config_path", default=None, metavar="FILE",
                          type=click.Path(exists=True, dir_okay=False),
                          help="Flat key=value config file; explicit flags win.")(fn)
        for key, spec in reversed(CONFIG_KEYS.items()):
            if mode in spec.modes:
                kind = click.Choice(tuple(ERROR_ALIASES)) if key == "error" else spec.type
                fn = click.option(f"--{key}", type=kind, default=None, help=spec.help)(fn)
        return fn

    return decorate


def _finish(cfg: ExperimentConfig, rows, started: float) -> None:
    if cfg.out:
        write_results(rows, cfg.out, cfg.as_dict())
        click.echo(f"wrote {len(rows)} rows to {cfg.out}", err=True)
    else:
        click.echo(render_csv(rows), nl=False)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    click.echo(f"done in {elapsed_ms:.1f} ms", err=True)


def _run(mode: str, run, config_path: str | None, flags: dict) -> None:
    started = time.perf_counter()
    flag_values = {key.replace("_", "-"): val for key, val in flags.items()}
    try:
        cfg = resolve_config(mode, flag_values, config_path)
        _finish(cfg, run(cfg), started)
    except UnsupportedInputError as exc:
        click.echo(f"unsupported input: {exc}", err=True)
        sys.exit(3)
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


def _show_version(ctx: click.Context, _param: click.Parameter, value: bool) -> None:
    """Print the installed version; a source tree has none to read."""
    if not value or ctx.resilient_parsing:
        return
    try:
        version = metadata.version("ghzpurify")
    except metadata.PackageNotFoundError:
        version = "unknown (ghzpurify is not installed)"
    click.echo(f"{ctx.find_root().info_name}, version {version}")
    ctx.exit()


@click.group()
@click.option("--version", is_flag=True, expose_value=False, is_eager=True,
              callback=_show_version, help="Show the version and exit.")
def main() -> None:
    """Exact simulator and experiment harness for purifying logic Bell pairs
    built from concatenated GHZ blocks."""


@main.command()
@_options("purify")
def purify(config_path, **flags) -> None:
    """Purify a noisy logic Bell pair at one input fidelity."""
    _run("purify", run_purify, config_path, flags)


@main.command()
@_options("sweep")
def sweep(config_path, **flags) -> None:
    """Sweep input fidelity over a uniform grid."""
    _run("sweep", run_sweep, config_path, flags)


@main.command()
@_options("correct")
def correct(config_path, **flags) -> None:
    """Correct a single physical bit flip inside one logic qubit."""
    _run("correct", run_correct, config_path, {**flags, "error": "phys-bit"})


@main.command()
@click.option("--n", "max_n", type=int, default=3,
              help="Largest logic-qubit size to check (from 2).")
@click.option("--oracle", is_flag=True, default=False,
              help="Also cross-check against the dense density-matrix engine"
                   " (every n up to 5).")
def verify(max_n: int, oracle: bool) -> None:
    """Run the internal invariant checks and report PASS/FAIL per check."""
    started = time.perf_counter()
    try:
        results = run_verify(max_n=max_n, oracle=oracle)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    for result in results:
        click.echo(result.line())
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    failed = [r for r in results if not r.passed]
    click.echo(
        f"{len(results) - len(failed)}/{len(results)} checks passed"
        f" in {elapsed_ms:.1f} ms",
        err=True,
    )
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
