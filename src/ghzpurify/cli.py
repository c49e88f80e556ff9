"""Command line front end.

Result tables go to stdout (or --out) as CSV and are byte-identical for a
fixed config and seed; progress and timing go to stderr. Exit codes: 0 on
success, 1 when a verification check fails, 2 for an invalid configuration
(including a flip position outside 1..n and a sampled round that keeps none
of its shots), 3 when the request is outside the protocol's domain (for
example a flip on the control mode).
"""

from __future__ import annotations

import sys
import time
from importlib import metadata

import click

from .errors import UnsupportedInputError
from .harness import (
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


def _common_options(fn):
    fn = click.option("--config", "config_path", default=None, metavar="FILE",
                      help="Flat key=value config file; explicit flags win.")(fn)
    fn = click.option("--out", default=None, metavar="FILE",
                      help="Write CSV here (plus a .json config sidecar) instead of stdout.")(fn)
    fn = click.option("--seed", type=int, default=None, help="Sampling seed.")(fn)
    fn = click.option("--n", "n", type=int, default=None,
                      help="Physical qubits per logic qubit (>= 2).")(fn)
    return fn


_error_option = click.option(
    "--error", type=click.Choice(tuple(ERROR_ALIASES)), default=None,
    help="Error kind mixed into the input pair (default logic-bit).")


def _round_options(fn):
    """--rounds, --shots and --flip-position, shared by purify and sweep."""
    fn = click.option("--flip-position", type=int, default=None, metavar="K",
                      help="1-based mode the physical error sits on (phys kinds).")(fn)
    fn = click.option("--shots", type=int, default=None,
                      help="Monte Carlo shots per round; 0 (default) runs exactly.")(fn)
    fn = click.option("--rounds", type=int, default=None, help="Purification rounds.")(fn)
    return fn


def _finish(cfg: ExperimentConfig, rows, started: float) -> None:
    csv_text = render_csv(rows)
    if cfg.out:
        write_results(rows, cfg.out, cfg.as_dict())
        click.echo(f"wrote {len(rows)} rows to {cfg.out}", err=True)
    else:
        click.echo(csv_text, nl=False)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    click.echo(f"done in {elapsed_ms:.1f} ms", err=True)


def _run(mode: str, config_path: str | None, flags: dict) -> None:
    started = time.perf_counter()
    flag_values = {key.replace("_", "-"): val for key, val in flags.items()}
    try:
        cfg = resolve_config(mode, flag_values, config_path)
        if mode == "purify":
            rows = run_purify(cfg)
        elif mode == "sweep":
            rows = run_sweep(cfg)
        else:
            rows = run_correct(cfg)
    except UnsupportedInputError as exc:
        click.echo(f"unsupported input: {exc}", err=True)
        sys.exit(3)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    _finish(cfg, rows, started)


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
@_error_option
@click.option("--fidelity", type=float, default=None,
              help="Input fidelity of each noisy pair.")
@_round_options
@_common_options
def purify(config_path, **flags) -> None:
    """Purify a noisy logic Bell pair at one input fidelity."""
    _run("purify", config_path, flags)


@main.command()
@_error_option
@click.option("--f-min", type=float, default=None, help="Grid start fidelity.")
@click.option("--f-max", type=float, default=None, help="Grid end fidelity.")
@click.option("--steps", type=int, default=None, help="Number of grid points.")
@_round_options
@_common_options
def sweep(config_path, **flags) -> None:
    """Sweep input fidelity over a uniform grid."""
    _run("sweep", config_path, flags)


@main.command()
@click.option("--flip-position", type=int, default=None, metavar="K",
              help="1-based mode of logic qubit A carrying the bit flip.")
@click.option("--fidelity", type=float, default=None,
              help="Optional mixture weight of the clean pair (default 0).")
@_common_options
def correct(config_path, **flags) -> None:
    """Correct a single physical bit flip inside one logic qubit."""
    _run("correct", config_path, {**flags, "error": "phys-bit"})


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
