"""Command-line surface: construct / check / evolve / audit / presets."""

import json
import os
import signal
import sys

import click

# each command imports what it runs, so presets and --help load no solver
from . import preset_names
from .errors import KunduNLSError


def _check_threads(threads):
    """Without --threads, NZBC_THREADS must be an integer >= 1; neither
    changes the output."""
    env = os.environ.get("NZBC_THREADS")
    if threads is None and env:
        try:
            THREADS.convert(env, None, None)
        except click.BadParameter:
            raise click.UsageError(f"NZBC_THREADS={env!r} is not an integer >= 1")


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
        # no OpenBLAS thread pool: the BLAS/LAPACK calls are small stacked (n <= 4N)
        # solves; ROADMAP item 8's dense 2M x 2M eigensolve would want one back
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        return super().__call__(*args, **kwargs)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (KunduNLSError, OSError, MemoryError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


THREADS = click.IntRange(min=1)
threads_option = click.option(
    "--threads", type=THREADS, default=None,
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
    from collections import Counter
    from pathlib import Path

    from . import fields, io
    from .spectrum import derive_orbit

    _check_threads(threads)
    run = io.load_config(config)
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
    """Run the verification battery on the field ``construct`` writes (sign
    convention "a") and print the report as JSON; the exit code is its
    verdict by the fixed gates."""
    from . import io, verification

    run = io.load_config(config)
    report = verification.verify(run.cfg, run.evolution)
    payload = report.to_dict()
    payload["config"] = run.name
    click.echo(json.dumps(payload, indent=2))
    sys.exit(0 if report.passed else 1)


@main.command()
@click.argument("config")
def evolve(config):
    """Split-step cross-check: evolve the exact t0 slice and compare at t1."""
    from dataclasses import asdict

    from . import io, verification
    from .spectrum import derive_orbit

    run = io.load_config(config)
    setup = run.evolution or verification.EvolutionSetup()
    err, reason = verification.evolution_step(derive_orbit(run.cfg), setup)
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
    from . import io, scattering
    from .spectrum import derive_orbit

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
    for name in preset_names():
        click.echo(name)


if __name__ == "__main__":
    main()
