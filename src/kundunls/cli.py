"""Command-line surface: construct / check / evolve / audit / presets."""

import json
import os
import random
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import click

from . import fields, io, scattering, verification
from .errors import Diagnostic, EvaluationAtPole, KunduNLSError
from .spectrum import derive_orbit
from .verification import EvolutionSetup


def _resolve_threads(threads):
    if threads is not None:
        return max(1, threads)
    env = os.environ.get("NZBC_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise click.UsageError(f"NZBC_THREADS={env!r} is not an integer")
    return 1


def _or_exit(fn, *args, **kwargs):
    """fn(*args, **kwargs); a package error or an OS error (an unreadable
    config, an output path that cannot be written) prints ``error: ...`` and
    exits 1."""
    try:
        return fn(*args, **kwargs)
    except (KunduNLSError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


sign_option = click.option(
    "--sign-convention", type=click.Choice(["a", "b", "auto"]), default="auto",
    show_default=True, help="Overall sign convention of the reconstruction.")
threads_option = click.option(
    "--threads", type=int, default=None,
    help="Accepted for compatibility (default: NZBC_THREADS or 1); evaluation "
         "runs in one process and output is identical for any value.")
seed_option = click.option(
    "--seed", type=int, default=0, show_default=True,
    help="Seed for randomized spot checks.")


@click.group()
def main():
    """Exact breather/soliton construction on a nonzero background."""


@main.command()
@click.argument("config")
@click.option("--out", type=click.Path(file_okay=False), default=".",
              show_default=True, help="Output directory.")
@click.option("--emit-gnuplot", is_flag=True,
              help="Also write a gnuplot script for the CSV.")
@sign_option
@threads_option
def construct(config, out, emit_gnuplot, sign_convention, threads):
    """Sample the exact solution on the configured grid (CSV + JSON + PGM)."""
    run = _or_exit(io.load_config, config)
    _resolve_threads(threads)  # still checked, though output never depends on it
    orbit = _or_exit(derive_orbit, run.cfg, sign_convention)
    g = run.grid
    xs = fields.linspace(g["x_min"], g["x_max"], g["nx"])
    ts = fields.linspace(g["t_min"], g["t_max"], g["nt"])
    grid = fields.evaluate_grid(run.cfg, orbit, xs, ts)
    outdir = Path(out)
    _or_exit(outdir.mkdir, parents=True, exist_ok=True)
    for write, ext in ((io.write_grid_csv, "csv"), (io.write_grid_json, "json"),
                       (io.render_pgm, "pgm")):
        _or_exit(write, grid, outdir / f"{run.name}.{ext}")
    if emit_gnuplot:
        _or_exit(io.emit_gnuplot, f"{run.name}.csv", outdir / f"{run.name}.gp",
                 title=run.name)
    counts = Counter(flag for row in grid.flags for flag in row)
    bad = counts["near_singular"] + counts["singular"]
    if bad:
        click.echo(f"warning: {bad} grid points flagged ({counts['near_singular']} "
                   f"near_singular, {counts['singular']} singular)", err=True)
    click.echo(f"wrote {run.name}.csv/.json/.pgm to {outdir}")


@main.command()
@click.argument("config")
@sign_option
def check(config, sign_convention):
    """Run the verification battery and print the report as JSON."""
    run = _or_exit(io.load_config, config)
    report = _or_exit(verification.verify, run.cfg, plan=run.plan,
                      convention=sign_convention)
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
@sign_option
def evolve(config, sign_convention):
    """Split-step cross-check: evolve the exact t0 slice and compare at t1."""
    run = _or_exit(io.load_config, config)
    setup = run.plan.evolution or EvolutionSetup()
    err, reason = _or_exit(verification.evolution_step, run.cfg, setup, sign_convention)
    payload = {"config": run.name, "setup": asdict(setup)}
    if reason is None:
        payload["linf_error"] = err
    else:
        payload["not_applicable"] = reason
    click.echo(json.dumps(payload, indent=2))
    sys.exit(0 if reason or err < run.plan.gates["evolution"] else 1)


@main.command()
@click.argument("config")
@sign_option
@seed_option
def audit(config, sign_convention, seed):
    """Audit scattering-data identities (symmetries, theta, trace products)."""
    run = _or_exit(io.load_config, config)
    orbit = _or_exit(derive_orbit, run.cfg, sign_convention)
    diags = [scattering.check_theta_condition(orbit)]
    diags += scattering.check_symmetries(orbit)

    rng = random.Random(seed)
    worst = 0.0
    tried = 0
    while tried < 100:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < 0.1 or abs(abs(z) - orbit.Q0) < 1e-3 or abs(z.imag) < 1e-3:
            continue
        try:
            prod = scattering.trace_s11(orbit, z) * scattering.trace_s22(orbit, z)
        except EvaluationAtPole:
            continue
        worst = max(worst, abs(prod - 1))
        tried += 1
    diags.append(Diagnostic(
        "TraceProduct",
        f"max |s11*s22 - 1| = {worst:.3e} over {tried} samples",
        ok=worst <= 1e-12, value=worst))
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
