"""Command-line surface: construct / check / evolve / audit / presets."""

import json
import os
import signal
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import click

from . import fields, io, scattering, verification
from .errors import KunduNLSError
from .spectrum import derive_orbit
from .verification import EvolutionSetup


def _check_threads(threads):
    """Without --threads, NZBC_THREADS must be an integer; neither changes
    the output."""
    env = os.environ.get("NZBC_THREADS")
    if threads is None and env:
        try:
            int(env)
        except ValueError:
            raise click.UsageError(f"NZBC_THREADS={env!r} is not an integer")


class _ErrorBoundary(click.Group):
    """The one error boundary of every command: a package error, an OS error
    (an unreadable config, an output path that cannot be written) or an
    allocation failure prints ``error: ...`` and exits 1.  A closed stdout
    is none of these: the process that ``main()`` runs ends by SIGPIPE, with
    nothing on stderr, as Unix filters do."""

    def __call__(self, *args, **kwargs):
        # the process entry (the console script and ``python -m``); a test
        # runner calls ``main.main`` and keeps its own SIGPIPE handling
        if hasattr(signal, "SIGPIPE"):
            signal.signal(signal.SIGPIPE, signal.SIG_DFL)
        return super().__call__(*args, **kwargs)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (KunduNLSError, OSError, MemoryError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


threads_option = click.option(
    "--threads", type=int, default=None,
    help="Accepted for compatibility (default: NZBC_THREADS or 1); evaluation "
         "runs in one process and output is identical for any value.")
seed_option = click.option(
    "--seed", type=int, default=0, show_default=True,
    help="Seed for randomized spot checks.")


@click.group(cls=_ErrorBoundary)
def main():
    """Exact breather/soliton construction on a nonzero background."""


@main.command()
@click.argument("config")
@click.option("--out", type=click.Path(file_okay=False), default=".",
              show_default=True, help="Output directory.")
@click.option("--emit-gnuplot", is_flag=True,
              help="Also write a gnuplot script for the CSV.")
@threads_option
def construct(config, out, emit_gnuplot, threads):
    """Sample the exact solution on the configured grid (CSV + JSON + PGM)."""
    run = io.load_config(config)
    _check_threads(threads)
    orbit = derive_orbit(run.cfg)
    g = run.grid
    xs = fields.linspace(g["x_min"], g["x_max"], g["nx"])
    ts = fields.linspace(g["t_min"], g["t_max"], g["nt"])
    grid = fields.evaluate_grid(run.cfg, orbit, xs, ts)
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    for write, ext in ((io.write_grid_csv, "csv"), (io.write_grid_json, "json"),
                       (io.render_pgm, "pgm")):
        write(grid, outdir / f"{run.name}.{ext}")
    if emit_gnuplot:
        io.emit_gnuplot(f"{run.name}.csv", outdir / f"{run.name}.gp", title=run.name)
    counts = Counter(flag for row in grid.flags for flag in row)
    bad = counts["near_singular"] + counts["singular"]
    if bad:
        click.echo(f"warning: {bad} grid points flagged ({counts['near_singular']} "
                   f"near_singular, {counts['singular']} singular)", err=True)
    click.echo(f"wrote {run.name}.csv/.json/.pgm to {outdir}")


@main.command()
@click.argument("config")
def check(config):
    """Run the verification battery and print the report as JSON; the sign
    convention is the one the residual probe picks."""
    run = io.load_config(config)
    report = verification.verify(run.cfg, run.evolution)
    payload = report.to_dict()
    payload["config"] = run.name
    if run.uncertain and not report.passed:
        payload["warnings"].append(
            "config is marked uncertain (garbled source parameters); "
            "failures downgraded to warnings")
        payload["passed"] = True
    click.echo(json.dumps(payload, indent=2))
    sys.exit(0 if payload["passed"] else 1)


@main.command()
@click.argument("config")
def evolve(config):
    """Split-step cross-check: evolve the exact t0 slice and compare at t1."""
    run = io.load_config(config)
    setup = run.evolution or EvolutionSetup()
    err, reason = verification.evolution_step(run.cfg, setup)
    payload = {"config": run.name, "setup": asdict(setup)}
    if reason is None:
        payload["linf_error"] = err
    else:
        payload["not_applicable"] = reason
    click.echo(json.dumps(payload, indent=2))
    sys.exit(0 if reason or err < verification.DEFAULT_GATES["evolution"] else 1)


@main.command()
@click.argument("config")
@seed_option
def audit(config, seed):
    """Audit scattering-data identities (symmetries, theta, trace products)."""
    run = io.load_config(config)
    diags = scattering.audit(derive_orbit(run.cfg), seed)
    payload = {"config": run.name, "seed": seed,
               "diagnostics": [d.to_dict() for d in diags],
               "passed": all(d.ok for d in diags)}
    click.echo(json.dumps(payload, indent=2))
    sys.exit(0 if payload["passed"] else 1)


@main.command()
def presets():
    """List the bundled figure configurations."""
    for name in io.preset_names():
        click.echo(name)


if __name__ == "__main__":
    main()
