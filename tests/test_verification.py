import builtins
import cmath
import decimal
import hashlib
import itertools
import math
import multiprocessing
import os
import random
import struct
import sys
import threading
import time

import mpmath
import numpy as np
import pytest

import oracles
from probes import opposite_sign_evaluator, peak_locations
from kundunls import _mathctx, io, linalg, reconstruct, verification
from kundunls.errors import PeriodicIncompatible, StencilEvaluationFailure
from kundunls.spectrum import EigenEntry, PoleOrder, SpectralConfig, derive_orbit
from kundunls.verification import (EvolutionSetup, boundary_errors, boundary_window,
                                   evolution_cross_check, exact_slice, pde_residual,
                                   probe_convention, residual_sweep,
                                   split_step_evolve, verify, _evaluator)


def test_background_residual_is_zero(background_only):
    r = pde_residual(lambda x, t: 1 + 0j, background_only, 0.0, 0.0, 1e-3)
    assert abs(r) == 0


def test_residual_small_for_constructed_field(fig2a):
    evaluator, _ = _evaluator(fig2a, "a")
    r = pde_residual(evaluator, fig2a, 0.3, 0.7, 1e-3)
    assert abs(r) < 1e-6


def test_residual_exposes_wrong_sign_convention(fig2a, fig7a):
    """The other sign on the second-symmetry chain misses the equation, for
    a simple and for a double pole."""
    for cfg in (fig2a, fig7a):
        evaluator = opposite_sign_evaluator(
            derive_orbit(cfg), verification.POLE_MODULES[cfg.pole_order].evaluate_q)
        r = pde_residual(evaluator, cfg, *verification.PROBE_STENCIL)
        assert abs(r) > 1.0


def test_probe_selects_adjudicated_convention(fig2a, fig7a):
    for cfg in (fig2a, fig7a):
        probes = probe_convention(cfg)
        assert list(probes) == ["a"] and probes["a"] < 1e-6


def test_verify_judges_convention_a_without_a_probe(monkeypatch, fig2a):
    """The verdict is on the field construct writes, not on whichever
    convention a residual probe favours."""
    def refuse(cfg):
        raise AssertionError("verify probed the sign convention")

    monkeypatch.setattr(verification, "probe_convention", refuse)
    monkeypatch.setattr(verification, "RESIDUAL_N", 3)
    report = verify(fig2a, evolution=None)
    assert report.convention_sign == "a"
    assert report.passed


def test_stencil_failure_wrapped(fig2a):
    def broken(x, t):
        raise ZeroDivisionError("boom")
    with pytest.raises(StencilEvaluationFailure):
        pde_residual(broken, fig2a, 0.0, 0.0, 1e-3)


def test_residual_sweep_is_discretization_limited(fig2a):
    # fourth-order stencils: halving h divides the truncation error by ~16
    window = (-2.0, 2.0, -1.0, 1.0)
    r = [residual_sweep(fig2a, window, n=3, h=h) for h in (4e-3, 2e-3, 1e-3)]
    assert r[0] / r[1] == pytest.approx(16, rel=0.15)
    assert r[1] / r[2] == pytest.approx(16, rel=0.15)


#: residual_sweep(cfg, ACCEPTANCE_WINDOW, n=3) as computed when every orbit
#: constant was recomputed at each field evaluation
ACCEPTANCE_WINDOW = (-5.0, 5.0, -3.0, 3.0)
PINNED_SWEEP_N3 = {"fig2a": 4.3816909816187323e-10, "fig4a": 1.7676849061904953e-10,
                   "fig7a": 2.0820848884925104e-10}


@pytest.mark.parametrize("name", sorted(PINNED_SWEEP_N3))
def test_residual_sweep_matches_pinned_values(request, name):
    cfg = request.getfixturevalue(name)
    r = residual_sweep(cfg, ACCEPTANCE_WINDOW, n=3)
    assert r == pytest.approx(PINNED_SWEEP_N3[name], rel=1e-12)


def _oracle_q(cfg, x, t):
    """The independent dps-50 field of cfg at (x, t)."""
    zs = [e.z for e in cfg.eigenvalues]
    As = [e.A_plus for e in cfg.eigenvalues]
    if cfg.pole_order is PoleOrder.DOUBLE:
        return oracles.double_q(cfg.q_minus, zs, As, [e.B_plus for e in cfg.eigenvalues],
                                x, t)
    return oracles.simple_q(cfg.q_minus, zs, As, x, t)


#: Points at which the spectra that no preset reaches are checked
BEYOND_PRESET_POINTS = [(0.3, 0.7), (-1.2, 0.4), (2.0, -0.5)]


@pytest.mark.parametrize("name", ["double_n2", "simple_n3"])
def test_float_field_matches_oracle_beyond_the_presets(request, name):
    """Two double poles and three simple poles, eigenvalue counts that no
    preset reaches: the float field is ok and agrees with the independent
    dps-50 oracle to 1e-12, relative."""
    cfg = request.getfixturevalue(name)
    orbit = derive_orbit(cfg)
    for x, t in BEYOND_PRESET_POINTS:
        q, flag, _ = verification.POLE_MODULES[cfg.pole_order].point_sample(orbit, x, t)
        ref = complex(_oracle_q(cfg, x, t))
        assert flag == "ok" and abs(q - ref) <= 1e-12 * abs(ref), (x, t)


@pytest.mark.parametrize("name", ["double_n2", "simple_n3"])
def test_residual_beyond_the_presets_is_truncation_only(request, name):
    """The 40-digit stencil residual of those spectra falls 16-fold when h
    halves, as fourth-order truncation does: the fields solve the equation."""
    cfg = request.getfixturevalue(name)
    ctx = _mathctx.decimal_context(verification.RESIDUAL_DPS)
    evaluator, _ = _evaluator(cfg, "a", ctx)
    for x, t in BEYOND_PRESET_POINTS[:2]:
        r = [float(abs(pde_residual(evaluator, cfg, ctx.real(x), ctx.real(t), ctx.real(h),
                                    ctx=ctx)))
             for h in (1e-3, 5e-4)]
        assert 15 <= r[0] / r[1] <= 17, (x, t, r)


@pytest.mark.parametrize("name", ["fig2a", "fig4a", "fig7a"])
def test_sweep_evaluator_matches_oracle(request, name):
    """The 40-digit route of the sweep agrees with the independent dps-50 oracle."""
    cfg = request.getfixturevalue(name)
    ctx = _mathctx.decimal_context(verification.RESIDUAL_DPS)
    evaluator, _ = _evaluator(cfg, "a", ctx)
    rng = random.Random(29)
    for _ in range(4):
        x, t = rng.uniform(-5, 5), rng.uniform(-3, 3)
        got = evaluator(ctx.real(x), ctx.real(t))
        with mpmath.workdps(50):
            assert abs(mpmath.mpc(str(got.re), str(got.im)) - _oracle_q(cfg, x, t)) < 1e-30


@pytest.mark.parametrize("name", ["fig2a", "fig7a"])
@pytest.mark.parametrize("x", [-1000.0, -30.0, 30.0, 1000.0])
def test_unscaled_weights_hold_far_out_on_the_background(request, name, x):
    """The 40-digit route carries its weights unscaled, also at |x| = 1000,
    where they leave double range (a weight above it at x = 1000, all below
    its smallest normal at x = -1000) and the float route needs its column
    shift; q still agrees with the oracle to 1e-30, relative."""
    cfg = request.getfixturevalue(name)
    ctx = _mathctx.decimal_context(verification.RESIDUAL_DPS)
    evaluator, orbit = _evaluator(cfg, "a", ctx)
    xd, td = ctx.real(x), ctx.real(0.4)
    got = evaluator(xd, td)
    w, scales = reconstruct.column_weights(
        reconstruct.weight_constants(orbit, ctx), xd, td, ctx)
    assert scales == [1] * len(w)
    in_double = [sys.float_info.min < float(abs(wj)) < sys.float_info.max for wj in w]
    assert all(in_double) == (abs(x) != 1000)
    ref = _oracle_q(cfg, x, 0.4)
    with mpmath.workdps(50):
        assert abs(mpmath.mpc(str(got.re), str(got.im)) - ref) < 1e-30 * abs(ref)


def test_residual_sweep_prepares_orbit_constants_once(monkeypatch, fig4a):
    """The 40-digit context factors its weights, which never read
    log A_minus, so a sweep takes no log at all (it took 2N, once per mirror
    point, and before that one per field evaluation)."""
    calls = []
    ctx = _mathctx.decimal_context(verification.RESIDUAL_DPS)
    log = ctx.log

    def counted(value):
        calls.append(value)
        return log(value)

    monkeypatch.setattr(ctx, "log", counted)
    residual_sweep(fig4a, ACCEPTANCE_WINDOW, n=3)
    assert calls == []


@pytest.mark.parametrize("name", ["fig4a", "fig7a"])
def test_sweep_exponentials_follow_the_coordinates(request, monkeypatch, name):
    """A serial n = 3 sweep evaluates the field at 81 points, which share 15 x
    and 15 t values (3 nodes and their four stencil neighbours per axis).
    Each of the 2N weights takes one exponential per distinct x and one per
    distinct t, and deriving the orbit takes one more: 121 for fig4a and 61
    for fig7a, where one per weight and evaluation made 649 and 325."""
    cfg = request.getfixturevalue(name)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    ctx = _mathctx.decimal_context(verification.RESIDUAL_DPS)
    calls = []
    exp = ctx.exp
    monkeypatch.setattr(ctx, "exp", lambda z: calls.append(z) or exp(z))
    residual_sweep(cfg, ACCEPTANCE_WINDOW, n=3)
    assert len(calls) == 2 * cfg.N * (15 + 15) + 1 == {"fig4a": 121, "fig7a": 61}[name]


#: A sweep row (its index i in t) of each config, on RESIDUAL_WINDOW at
#: RESIDUAL_N, whose stencil points pivot in more than one order (double_n2's
#: 8 x 8 systems in 12)
MIXED_PIVOT_ROW = {"fig2a": 12, "fig4a": 10, "fig7a": 10, "double_n2": 12}


@pytest.mark.parametrize("name", sorted(MIXED_PIVOT_ROW))
def test_a_batched_row_has_the_scalar_bits_at_every_point(request, name):
    """The 189 stencil points of one sweep row, evaluated as one batch, get
    the Decimal parts of the scalar evaluate_q at every point, in a row whose
    points pivot in at least two orders."""
    cfg = request.getfixturevalue(name)
    ctx = _mathctx.decimal_context(verification.RESIDUAL_DPS)
    evaluator, orbit = _evaluator(cfg, "a", ctx)
    x_min, x_max, t_min, t_max = (ctx.real(v) for v in verification.RESIDUAL_WINDOW)
    n = verification.RESIDUAL_N
    xs = [x_min + (x_max - x_min) * i / (n - 1) for i in range(n)]
    t = t_min + (t_max - t_min) * MIXED_PIVOT_ROW[name] / (n - 1)
    points = verification._stencil_points(xs, t, ctx.real(verification.RESIDUAL_H))
    batch = evaluator(*map(ctx.batch.of, zip(*points)))
    build = verification.POLE_MODULES[cfg.pole_order].build
    orders = {tuple(linalg.lu_factor(build(orbit, x, tp, ctx)[0]).pivots)
              for x, tp in points}
    assert len(points) == 189 and len(orders) >= 2
    assert list(zip(batch.re, batch.im)) == [(q.re, q.im) for q in
                                             (evaluator(x, tp) for x, tp in points)]


#: (n, sha256) of the n^2 nodal residuals of residual_sweep(cfg,
#: RESIDUAL_WINDOW, n), in the order the sweep takes their maximum, as
#: little-endian doubles: the fig7d preset at RESIDUAL_N, and at n = 7 the
#: 8 x 8 and 6 x 6 systems of the spectra that no preset reaches
NODAL_SHA256 = {
    "fig7d": (verification.RESIDUAL_N,
              "6aa104b637baf308d7b29dc25fad4f3e3fc539c3238ef50dab9c0c4950f409c3"),
    "double_n2": (7, "658ea8a2b9f5c26ffa6fbd129bf0c30e0295cd5aff46e45d75a08304c47452ca"),
    "simple_n3": (7, "b78ac75a4b31fdcb373d64170be7603d3123e069170fae0068da8ab2a05de841"),
}


@pytest.mark.parametrize("name", sorted(NODAL_SHA256))
def test_every_nodal_residual_keeps_its_bits(monkeypatch, request, name):
    """fig7d's system has a condition number near 1e37, so a change of the
    40-digit rounding can move its nodal residuals and still keep
    residual_max; the double_n2 and simple_n3 systems take the LU through
    more elimination steps than any preset.  Every value the sweep takes the
    maximum over is pinned."""
    cfg = io.load_config(name).cfg if name == "fig7d" else request.getfixturevalue(name)
    n, digest = NODAL_SHA256[name]
    taken = []

    def recorded_max(values):
        taken.append(values)
        return builtins.max(values)

    monkeypatch.setattr(verification, "max", recorded_max, raising=False)
    r = residual_sweep(cfg, verification.RESIDUAL_WINDOW, n=n)
    (values,) = taken
    assert len(values) == n ** 2 and r == builtins.max(values)
    assert hashlib.sha256(struct.pack(f"<{n * n}d", *values)).hexdigest() == digest


@pytest.mark.parametrize("cpus", [1, 2])
def test_batched_sweep_ignores_the_callers_decimal_context(monkeypatch, fig4a, cpus):
    """A sweep inside a 6-digit decimal context, in process or over forked
    workers, which inherit it, has the bits of one outside it, and leaves
    the caller's context at 6 digits."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    expected = residual_sweep(fig4a, ACCEPTANCE_WINDOW, n=3)
    with decimal.localcontext(decimal.Context(prec=6)) as caller:
        assert residual_sweep(fig4a, ACCEPTANCE_WINDOW, n=3) == expected
        assert decimal.getcontext() is caller and caller.prec == 6


def _nan_at(node):
    """A stand-in for ``_evaluator`` whose field is NaN at the one point node,
    asked for alone or in a batch of points."""
    real = verification._evaluator

    def nan_at_node(cfg, convention, ctx=verification._mathctx.FLOAT):
        evaluator, orbit = real(cfg, convention, ctx)
        nan = ctx.convert(complex("nan+nanj"))

        def patched(x, t):
            q = evaluator(x, t)
            if type(x) is not ctx.batch:
                return nan if (x, t) == node else q
            for p, point in enumerate(zip(x.points(), t.points())):
                if point == node:
                    q.re[p], q.im[p] = nan.re, nan.im
            return q

        return patched, orbit

    return nan_at_node


def test_residual_sweep_keeps_a_nan_residual(fig2a, monkeypatch):
    """A NaN at one sweep node makes residual_max NaN and fails the gate."""
    # (0, 0) is the centre node of a 3 x 3 sweep on RESIDUAL_WINDOW and no
    # stencil point
    monkeypatch.setattr(verification, "_evaluator", _nan_at((0, 0)))
    assert math.isnan(residual_sweep(fig2a, verification.RESIDUAL_WINDOW, n=3))
    monkeypatch.setattr(verification, "RESIDUAL_N", 3)
    report = verify(fig2a, evolution=None)
    assert math.isnan(report.residual_max) and not report.passed


@pytest.mark.parametrize("node", [(5, 3), (-5, -3)], ids=["last", "first"])
def test_residual_sweep_keeps_a_nan_at_either_end(fig2a, monkeypatch, node):
    """The NaN of the sweep's last node follows the finite residuals of its
    row, where a bare max would drop it; the first node's NaN precedes them."""
    monkeypatch.setattr(verification, "_evaluator", _nan_at(node))
    assert math.isnan(residual_sweep(fig2a, verification.RESIDUAL_WINDOW, n=3))


@pytest.mark.parametrize("n", [0, 1, 2.0, True])
def test_residual_sweep_needs_two_nodes_per_axis(fig2a, n):
    with pytest.raises(ValueError, match="n must be an integer >= 2"):
        residual_sweep(fig2a, verification.RESIDUAL_WINDOW, n=n)


SMALL_WINDOW = (-1.0, 1.0, -1.0, 1.0)


@pytest.mark.parametrize("name", ["fig2a", "fig4a", "fig7a"])
def test_forked_sweep_has_the_serial_bits(request, monkeypatch, name):
    """Spreading the rows over the usable CPUs changes no bit of residual_max."""
    cfg = request.getfixturevalue(name)
    fanned = residual_sweep(cfg, SMALL_WINDOW, n=5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert verification._sweep_workers(5) == 1
    assert residual_sweep(cfg, SMALL_WINDOW, n=5) == fanned


class _InProcessPool:
    """Stands in for a process pool: records its size and maps in process."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def imap(self, func, iterable):
        return map(func, iterable)

    def terminate(self):
        pass

    def join(self):
        pass


@pytest.mark.parametrize("cpus, n", [(64, 3), (4, 5)])
def test_sweep_starts_one_worker_per_cpu_and_row(fig2a, monkeypatch, cpus, n):
    """min(n, CPUs) workers, however many CPUs the affinity set holds, and
    none where fork is missing."""
    def refuse(*args):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: type("Fork", (), {"Pool": _InProcessPool}))
    fanned = residual_sweep(fig2a, SMALL_WINDOW, n=n)
    assert _InProcessPool.sizes == [min(n, cpus)]
    assert verification._sweep_workers(21) == min(21, cpus)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert residual_sweep(fig2a, SMALL_WINDOW, n=n) == fanned
    assert _InProcessPool.sizes == [min(n, cpus)]  # the serial sweep starts no pool


def _failing_at(delay):
    """A stand-in for ``_evaluator`` and the list of the calls its field
    takes in this process (a forked worker appends to its own copy).  Where
    delay(x, t) is a number of seconds at a point asked for, alone or in a
    batch of points, the field sleeps that long and raises."""
    real = verification._evaluator
    calls = []

    def stand_in(cfg, convention, ctx=verification._mathctx.FLOAT):
        evaluator, orbit = real(cfg, convention, ctx)

        def patched(x, t):
            calls.append((x, t))
            points = zip(x.points(), t.points()) if type(x) is ctx.batch else [(x, t)]
            delays = [d for d in itertools.starmap(delay, points) if d is not None]
            if delays:
                time.sleep(max(delays))
                raise ZeroDivisionError(f"stand-in failure in process {os.getpid()}")
            return evaluator(x, t)

        return patched, orbit

    return stand_in, calls


def test_worker_failure_reaches_the_caller(fig2a, monkeypatch):
    """A row that fails in a worker is a StencilEvaluationFailure naming its
    stencil point, and no worker outlives the sweep."""
    # the row t = 1 of a 3 x 3 sweep on SMALL_WINDOW fails at once
    stand_in, _ = _failing_at(lambda x, t: 0 if float(t) > 0.5 else None)
    monkeypatch.setattr(verification, "_evaluator", stand_in)
    with pytest.raises(StencilEvaluationFailure,
                       match=r"stencil around \(x=-1\.0, t=1\.0, h=0\.001\d*\): "
                             r"stand-in failure in process \d+") as err:
        residual_sweep(fig2a, SMALL_WINDOW, n=3)
    if verification._sweep_workers(3) > 1:
        # it failed in a worker
        assert not str(err.value).endswith(f"process {os.getpid()}")
    assert multiprocessing.active_children() == []


def test_forked_sweep_evaluates_no_point_in_the_parent(fig2a, monkeypatch):
    """Over two forked workers the parent calls the field at no point, not
    even to prepare the orbit's constants, and keeps no worker row; in
    process, the same sweep takes one batch per row."""
    stand_in, calls = _failing_at(lambda x, t: None)
    monkeypatch.setattr(verification, "_evaluator", stand_in)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert verification._sweep_workers(3) == 2
    forked = residual_sweep(fig2a, SMALL_WINDOW, n=3)
    assert calls == [] and verification._worker_row is None
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert residual_sweep(fig2a, SMALL_WINDOW, n=3) == forked
    assert len(calls) == 3


def _late_first_row(x, t):
    """Row t = -1 of a 3 x 3 sweep on SMALL_WINDOW fails after 1 s, at its node
    x = 1 only; row t = 1 fails at once."""
    if float(t) > 0.5:
        return 0
    return 1 if (x, t) == (1, -1) else None


def test_forked_sweep_reports_the_first_failing_row(fig2a, monkeypatch):
    """Two forked workers report the stencil of the first failing row, as one
    worker does, though a later row fails sooner; the parent evaluates no
    point, and neither a worker nor the worker row outlives the sweep."""
    stand_in, calls = _failing_at(_late_first_row)
    monkeypatch.setattr(verification, "_evaluator", stand_in)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert verification._sweep_workers(3) == 2
    with pytest.raises(StencilEvaluationFailure,
                       match=r"stencil around \(x=1\.0, t=-1\.0, h=0\.001\d*\): "
                             r"stand-in failure in process \d+"):
        residual_sweep(fig2a, SMALL_WINDOW, n=3)
    assert calls == [] and verification._worker_row is None
    assert multiprocessing.active_children() == []


def _sweep_in_daemon(cfg, results):
    try:
        results.put((verification._sweep_workers(3),
                     residual_sweep(cfg, SMALL_WINDOW, n=3)))
    except BaseException as exc:  # a daemon may not start children
        results.put(repr(exc))


def test_sweep_stays_serial_in_a_daemonic_process(fig2a):
    """A daemonic process may not have children, so it sweeps in process."""
    fork = multiprocessing.get_context("fork")
    results = fork.Queue()
    child = fork.Process(target=_sweep_in_daemon, args=(fig2a, results), daemon=True)
    child.start()
    outcome = results.get(timeout=120)
    child.join(timeout=60)
    assert not child.is_alive()
    assert outcome == (1, residual_sweep(fig2a, SMALL_WINDOW, n=3))


def test_sweep_stays_serial_while_other_threads_run():
    """A fork could copy a lock another thread holds, so no worker is forked."""
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        assert verification._sweep_workers(3) == 1
    finally:
        release.set()
        waiter.join(timeout=60)
    assert not waiter.is_alive()


def _unfused_strang(q, setup, Q0):
    """Reference Strang loop: half nonlinear, linear, half nonlinear per step."""
    kappa = 2 * np.pi * np.fft.fftfreq(setup.M, d=2 * setup.L / setup.M)
    linear_phase = np.exp(-1j * kappa ** 2 * setup.dt)

    def half_nonlinear(arr):
        return arr * np.exp(2j * (np.abs(arr) ** 2 - Q0 ** 2) * (setup.dt / 2))

    for _ in range(round((setup.t1 - setup.t0) / setup.dt)):
        q = half_nonlinear(q)
        q = np.fft.ifft(np.fft.fft(q) * linear_phase)
        q = half_nonlinear(q)
    return q


def _fig2a_slice(setup):
    xs = -setup.L + 2 * setup.L * np.arange(setup.M) / setup.M
    return exact_slice(derive_orbit(io.load_config("fig2a").cfg), xs, setup.t0)


def _random_periodic_field(M):
    """Background plus random low Fourier modes, periodic on the grid."""
    rng = np.random.default_rng(7)
    modes = np.zeros(M, complex)
    modes[:8] = rng.normal(size=8) + 1j * rng.normal(size=8)
    modes[-7:] = rng.normal(size=7) + 1j * rng.normal(size=7)
    return 1 + 0.3 * np.fft.ifft(modes) * M / 8


@pytest.mark.parametrize("setup, field", [
    (EvolutionSetup(L=40.0, M=4096, dt=1e-4, t0=-2.0, t1=-1.96), _fig2a_slice),
    (EvolutionSetup(L=10.0, M=256, dt=1e-3, t0=0.0, t1=0.4),
     lambda setup: _random_periodic_field(setup.M)),
], ids=["fig2a-slice", "random-M256"])
def test_fused_split_step_matches_unfused_strang(setup, field):
    q0 = field(setup)
    assert round((setup.t1 - setup.t0) / setup.dt) == 400
    fused = split_step_evolve(q0, setup, 1.0)
    assert np.max(np.abs(fused - _unfused_strang(q0, setup, 1.0))) < 1e-12


def test_one_split_step_is_half_linear_half():
    setup = EvolutionSetup(L=10.0, M=256, dt=1e-2, t0=0.0, t1=1e-2)
    q = _random_periodic_field(setup.M)
    kappa = 2 * np.pi * np.fft.fftfreq(setup.M, d=2 * setup.L / setup.M)
    half = 2j * (setup.dt / 2)
    q = q * np.exp(half * (np.abs(q) ** 2 - 1))
    q = np.fft.ifft(np.fft.fft(q) * np.exp(-1j * kappa ** 2 * setup.dt))
    q = q * np.exp(half * (np.abs(q) ** 2 - 1))
    out = split_step_evolve(_random_periodic_field(setup.M), setup, 1.0)
    assert np.max(np.abs(out - q)) < 1e-14


def test_split_step_leaves_input_unchanged():
    setup = EvolutionSetup(L=10.0, M=256, dt=1e-3, t0=0.0, t1=0.01)
    q0 = _random_periodic_field(setup.M)
    before = q0.copy()
    split_step_evolve(q0, setup, 1.0)
    assert np.array_equal(q0, before)


def test_split_step_background_fixed_point():
    setup = EvolutionSetup(L=10.0, M=256, dt=1e-3, t0=0.0, t1=0.1)
    q0 = np.full(256, 1 + 0j)
    out = split_step_evolve(q0, setup, 1.0)
    assert np.max(np.abs(out - 1)) < 1e-13


def test_split_step_linear_only_plane_wave():
    L, M = np.pi, 128
    setup = EvolutionSetup(L=L, M=M, dt=1e-3, t0=0.0, t1=0.05)
    xs = -L + 2 * L * np.arange(M) / M
    kappa = 3.0
    q0 = np.exp(1j * kappa * xs)
    # |q| = Q0 everywhere, so the nonlinear substep is the identity
    out = split_step_evolve(q0, setup, 1.0)
    expect = q0 * cmath.exp(-1j * kappa ** 2 * 0.05)
    assert np.max(np.abs(out - expect)) < 1e-12


def test_split_step_rejects_bad_grid():
    with pytest.raises(ValueError):
        split_step_evolve(np.ones(100, complex),
                          EvolutionSetup(M=100), 1.0)


#: No eigenvalues: were a fixed setting a keyword of verify, the call would
#: run a cheap sweep and return instead of raising
BACKGROUND = SpectralConfig(q_minus=1 + 0j, epsilon=1.0, gamma0=0.0,
                            pole_order=PoleOrder.SIMPLE, eigenvalues=())


@pytest.mark.parametrize("build, error", [
    (lambda: verify(BACKGROUND, residual_n=3), TypeError),
    (lambda: verify(BACKGROUND, window=(-5, 5, -3, 3)), TypeError),
    (lambda: verify(BACKGROUND, gates={"evolution": 1.0}), TypeError),
    (lambda: verify(BACKGROUND, h=1e-3), TypeError),
    (lambda: EvolutionSetup(t1=-2.0), ValueError),
    (lambda: EvolutionSetup(M=100), ValueError),
    (lambda: EvolutionSetup(M=2 ** 1100), ValueError),
    (lambda: EvolutionSetup(M=2 ** 62), ValueError),
    (lambda: EvolutionSetup(M=2 ** 63), ValueError),
    (lambda: EvolutionSetup(M=256, dt=1e-4, t0=0.0, t1=1e-10), ValueError),
    (lambda: EvolutionSetup(dt=float("nan")), ValueError),
    (lambda: EvolutionSetup(L=1e-300, M=64, dt=0.5, t0=0.0, t1=1.0), ValueError),
], ids=["no-residual_n", "no-window", "no-gates", "no-h", "empty-span", "M-100",
        "huge-M", "M-2**62", "M-2**63", "under-half-a-step", "nan-dt",
        "phase-overflow"])
def test_plan_and_setup_check_their_fields(build, error):
    """verify takes none of the fixed sweep settings, and a split-step setup
    built in Python is held to the rules a config's is."""
    with pytest.raises(error):
        build()


def test_mass_conservation(fig2a):
    evaluator, _ = _evaluator(fig2a, "a")
    setup = EvolutionSetup(L=40.0, M=1024, dt=1e-3, t0=-0.5, t1=0.5)
    xs = -setup.L + 2 * setup.L * np.arange(setup.M) / setup.M
    q0 = np.array([evaluator(x, setup.t0) for x in xs])
    dx = 2 * setup.L / setup.M

    def mass(q):  # dx sum(|q|^2 - Q0^2), Q0 = 1
        return float(np.sum(np.abs(q) ** 2 - 1.0) * dx)

    m0 = mass(q0)
    m1 = mass(split_step_evolve(q0, setup, 1.0))
    assert abs(m1 - m0) <= 1e-8 * abs(m0)


def test_evolution_incompatible_when_boundaries_differ(fig4a):
    # arg(q_plus/q_minus) is not a multiple of 2 pi here
    with pytest.raises(PeriodicIncompatible):
        evolution_cross_check(derive_orbit(fig4a), EvolutionSetup(M=256, dt=1e-2))


def test_boundary_flatness_decays_with_window(fig2a):
    errs = [sum(boundary_errors(fig2a, "a", L=L)) for L in (20.0, 25.0, 30.0)]
    assert errs[0] > errs[1] > errs[2]
    # tail rate 2 Im lambda(z1) = 5/6 per unit: each extra 5 units is ~e^-4
    assert errs[1] < errs[0] / 30 and errs[2] < errs[1] / 30


def test_boundary_window_follows_slowest_tail(monkeypatch, fig2a, fig4a):
    # 2 Im lambda(z) is 5/6 for fig2a and 1/2 for fig4a's z = 1 + i, so 20
    # e-folds need L = 24 (raised to 30) and L = 40; fig3a barely decays
    assert boundary_window(derive_orbit(fig2a)) == 30.0
    assert boundary_window(derive_orbit(fig4a)) == pytest.approx(40.0)
    assert boundary_window(derive_orbit(io.load_config("fig3a").cfg)) == 250.0
    monkeypatch.setattr(verification, "RESIDUAL_N", 3)
    report = verify(fig4a, evolution=None)
    assert max(report.boundary_errors) < 1e-6 and report.passed


def test_peak_refinement_quadratic():
    ts = [0.1 * i for i in range(41)]
    vals = [math.exp(-(t - 2.2) ** 2) for t in ts]
    peaks = peak_locations(ts, vals)
    assert len(peaks) == 1
    assert abs(peaks[0] - 2.2) < 1e-3


def test_verify_background_config(background_only):
    report = verify(background_only, evolution=None)
    assert report.residual_grid_spec == (
        "21x21 grid on x in [-5.0, 5.0], t in [-3.0, 3.0], h=0.001")
    assert report.convention_sign == "a"
    assert report.residual_max == 0
    assert report.passed
    assert report.evolution_reason == "disabled by plan"


def test_report_gates_are_its_own_copy(background_only):
    """Editing the gates of a serialized report changes neither the package's
    gates nor the next verdict."""
    report = verify(background_only, evolution=None)
    d = report.to_dict()
    assert d["gates"] == {"residual": 1e-6, "boundary": 1e-6, "evolution": 1e-5}
    d["gates"]["residual"] = -1.0
    assert verification.DEFAULT_GATES["residual"] == 1e-6
    assert report.passed and verify(background_only, evolution=None).passed


def test_verify_fig4a_marks_evolution_not_applicable(monkeypatch, fig4a):
    monkeypatch.setattr(verification, "RESIDUAL_N", 3)
    report = verify(fig4a, EvolutionSetup(M=256, dt=1e-2))
    assert report.evolution_linf_error is None
    assert "PeriodicIncompatible" in report.evolution_reason
    assert report.residual_max < 1e-6


def test_report_serializes(background_only):
    report = verify(background_only, evolution=None)
    d = report.to_dict()
    assert d["passed"] is True
    assert d["convention_sign"] == "a"
    assert isinstance(d["boundary_errors"], list)
    assert list(d) == ["residual_max", "residual_grid_spec", "boundary_errors",
                       "theta_ok", "convention_sign", "evolution_linf_error",
                       "evolution_reason", "warnings", "gates", "failed_gates",
                       "passed"]
