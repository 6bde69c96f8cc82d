"""Acceptance gate: one test per committed criterion, pinned tolerances.

These are intentionally end-to-end and slightly slow; everything else in the
suite exists to make failures here diagnosable.
"""

import cmath
import hashlib
import json
import math
import random
from pathlib import Path

import mpmath
import pytest
from click.testing import CliRunner

from probes import background_u, peak_locations, zero_order_estimate
from kundunls import io
from kundunls.cli import main as cli_main
from kundunls.scattering import check_symmetries, trace_s11, trace_s22
from kundunls.spectrum import (EigenEntry, PoleOrder, SpectralConfig,
                               derive_orbit)
from kundunls import double_pole, simple_pole
from kundunls.verification import (EvolutionSetup, boundary_errors,
                                   evolution_cross_check, residual_sweep, _evaluator)

WINDOW = (-5.0, 5.0, -3.0, 3.0)

#: sha256 of every file ``construct`` writes for each valid preset (CSV, JSON
#: and PGM) and of each valid preset's ``audit --seed 7`` stdout
PINNED_OUTPUTS = json.loads(
    (Path(__file__).with_name("outputs.json")).read_text(encoding="utf-8"))


#: residual_sweep(cfg, WINDOW, n=21, h=h) for h = 1e-3 and 5e-4: the bits
#: the 40-digit mpmath sweep gave, which the 40-digit decimal sweep keeps
PINNED_SWEEP_MAXIMA = {"fig2a": (1.891589447466093e-08, 1.1823202385638986e-09),
                       "fig4a": (4.3020846149347535e-08, 2.6889506197998332e-09),
                       "fig7a": (3.0235173919181935e-08, 1.8898188318631916e-09)}


def _residual_gate(cfg, name):
    r_h = residual_sweep(cfg, WINDOW, n=21, h=1e-3)
    assert r_h < 1e-6
    r_half = residual_sweep(cfg, WINDOW, n=21, h=5e-4)
    assert r_h / r_half >= 8
    assert (r_h, r_half) == PINNED_SWEEP_MAXIMA[name]


def test_criterion_01_residual_gate_simple_poles(fig2a, fig4a):
    """Simple-pole fields satisfy the evolution equation to stencil accuracy."""
    for cfg, name in ((fig2a, "fig2a"), (fig4a, "fig4a")):
        _residual_gate(cfg, name)


def test_criterion_02_residual_gate_double_poles(fig7a):
    """The double-pole assembly passes the same residual gate."""
    _residual_gate(fig7a, "fig7a")


def test_criterion_03_evolution_cross_check(fig2a):
    """Split-step evolution of the exact t0 slice lands on the exact t1 slice."""
    orbit = derive_orbit(fig2a)
    err = evolution_cross_check(orbit, EvolutionSetup(L=40.0, M=4096, dt=1e-4,
                                                      t0=-2.0, t1=2.0))
    assert err < 1e-5
    err_half = evolution_cross_check(orbit, EvolutionSetup(L=40.0, M=4096,
                                                           dt=5e-5, t0=-2.0, t1=2.0))
    assert err / err_half == pytest.approx(4, rel=0.25)


def test_criterion_04_boundary_and_theta(fig2a, fig7a):
    """Far-field values and phase difference match the boundary conditions."""
    for cfg, m in ((fig2a, 4), (fig7a, 8)):
        e_minus, e_plus = boundary_errors(cfg, "a", L=30.0)
        assert e_minus < 1e-8 and e_plus < 1e-8
        evaluator, orbit = _evaluator(cfg, "a")
        measured = cmath.phase(evaluator(30.0, 0.0) / evaluator(-30.0, 0.0))
        expected = -m * sum(cmath.phase(z) for z in orbit.canonical_z)
        wrapped = (measured - expected + math.pi) % (2 * math.pi) - math.pi
        assert abs(wrapped) < 1e-6


def test_criterion_05_trace_identities(fig2a, fig7a):
    """Trace products are reciprocal and their zeros have the right order."""
    rng = random.Random(55555)
    for cfg, order in ((fig2a, 1.0), (fig7a, 2.0)):
        orbit = derive_orbit(cfg)
        checked = 0
        while checked < 100:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(z) < 0.1 or abs(abs(z) - 1) < 1e-3 or abs(z.imag) < 1e-3:
                continue
            assert abs(trace_s11(orbit, z) * trace_s22(orbit, z) - 1) <= 1e-12
            checked += 1
        assert abs(zero_order_estimate(orbit, 1.5j) - order) < 0.01


def test_criterion_06_symmetry_suite(fig4a):
    """Norming-constant chains hold on every preset; corruption is caught."""
    import dataclasses
    for name in io.preset_names():
        try:
            run = io.load_config(name)
        except Exception:
            continue  # fig5c is degenerate by design
        orbit = derive_orbit(run.cfg)
        for diag in check_symmetries(orbit):
            assert diag.ok and (diag.value or 0.0) <= 1e-12, (name, diag)
    orbit = derive_orbit(fig4a)
    tampered = list(orbit.A_minus_xihat)
    tampered[1] *= 1 + 1e-6
    bad = dataclasses.replace(orbit, A_minus_xihat=tuple(tampered))
    assert any(not d.ok for d in check_symmetries(bad))


def test_criterion_07_form_equivalence():
    """Determinant-ratio and linear-system reconstructions coincide."""
    rng = random.Random(70707)
    for name in io.preset_names():
        try:
            run = io.load_config(name)
        except Exception:
            continue
        orbit = derive_orbit(run.cfg)
        if run.cfg.pole_order is PoleOrder.SIMPLE:
            solve, detform, tol = (simple_pole.evaluate_q,
                                   simple_pole.evaluate_q_det, 1e-9)
        else:
            solve, detform, tol = (double_pole.evaluate_q,
                                   double_pole.evaluate_q_det, 1e-8)
        for _ in range(50):
            x, t = rng.uniform(-6, 6), rng.uniform(-3, 3)
            qs = solve(orbit, x, t, check_condition=False)
            qd = detform(orbit, x, t)
            assert abs(qd - qs) <= tol * (1 + abs(qs)), (name, x, t)


def test_criterion_08_zero_background_limit():
    """A vanishing background turns the breather into a decaying bright pulse."""
    cfg = SpectralConfig(1e-6 + 0j, 0.5, 0.0, PoleOrder.SIMPLE,
                         (EigenEntry(1.5j, 1 + 0j),))
    evaluator, _ = _evaluator(cfg, "a")
    xs = [x * 0.01 for x in range(-2000, 2001)]
    vals = [abs(evaluator(x, 0.0)) for x in xs]
    imax = max(range(len(vals)), key=vals.__getitem__)
    # quadratic refinement of the maximum value
    a, b, c = vals[imax - 1], vals[imax], vals[imax + 1]
    vmax = b + (a - c) ** 2 / (8 * (2 * b - a - c))
    with mpmath.workdps(40):
        z = mpmath.mpc(1.5j)
        expected = float(2 * ((z - mpmath.mpf(1e-6) ** 2 / z) / 2).imag)
    assert abs(vmax - expected) <= 1e-3 * expected
    assert vals[0] < 1e-6 * vmax and vals[-1] < 1e-6 * vmax


def test_criterion_09_figure_phenomenology(fig2a):
    """Breather periodicity and the background sweep match the captions."""
    evaluator, _ = _evaluator(fig2a, "a")
    ts = [t * 1e-3 for t in range(-6000, 6001)]
    vals = [abs(evaluator(0.0, t) / 0.5) for t in ts]
    peaks = [p for p in peak_locations(ts, vals)
             if vals[min(range(len(ts)), key=lambda i: abs(ts[i] - p))] > 3]
    periods = [b - a for a, b in zip(peaks, peaks[1:])]
    assert len(periods) >= 2
    assert abs(periods[0] - periods[1]) < 1e-6

    run3 = io.load_config("fig3a")
    ev3, _ = _evaluator(run3.cfg, "a")
    xs = [x * 2e-3 for x in range(-3000, 3001)]
    v3 = [abs(ev3(x, 0.0)) for x in xs]
    p3 = peak_locations(xs, v3)
    gaps = [b - a for a, b in zip(p3, p3[1:])]
    assert len(gaps) >= 2 and abs(gaps[0] - gaps[1]) < 1e-6
    for x in (-1.7, 0.3, 2.4):
        assert abs(abs(ev3(x, 0.9)) - abs(ev3(x, -0.9))) < 1e-5

    tops = []
    for name in ("fig2a", "fig2b", "fig2d"):
        run = io.load_config(name)
        ev, _ = _evaluator(run.cfg, "a")
        u0 = background_u(run.cfg)
        top = max(abs(ev(x * 0.25, t * 0.2)) / run.cfg.epsilon - u0
                  for x in range(-40, 41) for t in range(-10, 11))
        tops.append(top)
    assert tops[0] > tops[1] > tops[2]


def test_criterion_10_deterministic_construction(tmp_path):
    """construct emits byte-identical CSV, JSON and PGM across runs and
    threads, and every file has its pinned bytes."""
    runner = CliRunner()
    rerun = {"fig2a", "fig3b", "fig7a"}  # one large, one simple, one double
    for name in io.preset_names():
        out1 = tmp_path / "one" / name
        r1 = runner.invoke(cli_main, ["construct", name, "--out", str(out1)])
        if name == "fig5c":
            assert r1.exit_code == 1
            continue
        assert r1.exit_code == 0, (name, r1.output)
        if name not in rerun:
            continue
        out2 = tmp_path / "two" / name
        r2 = runner.invoke(cli_main, ["construct", name, "--out", str(out2),
                                      "--threads", "2"])
        assert r2.exit_code == 0, (name, r2.output)
        for ext in (".csv", ".json", ".pgm"):
            b1 = (out1 / f"{name}{ext}").read_bytes()
            assert b1 == (out2 / f"{name}{ext}").read_bytes(), (name, ext)
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (tmp_path / "one").glob("*/*")}
    assert written == PINNED_OUTPUTS["construct"]
    csv_rows = (tmp_path / "one/fig2a/fig2a.csv").read_text().splitlines()
    assert len(csv_rows) - 1 == 401 * 201  # header plus one row per sample


def test_audit_reports_have_their_pinned_bytes():
    """Each valid preset's ``audit --seed 7`` prints its pinned bytes."""
    runner = CliRunner()
    printed = {}
    for name in io.preset_names():
        if name != "fig5c":
            result = runner.invoke(cli_main, ["audit", name, "--seed", "7"])
            assert result.exit_code == 0, (name, result.output)
            printed[name] = hashlib.sha256(result.stdout_bytes).hexdigest()
    assert printed == PINNED_OUTPUTS["audit --seed 7"]
