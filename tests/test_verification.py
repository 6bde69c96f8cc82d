import cmath
import math
import multiprocessing
import os
import random
import threading

import numpy as np
import pytest

import oracles
from probes import opposite_sign_evaluator, peak_locations
from kundunls import _mathctx, io, verification
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


@pytest.mark.parametrize("name", ["fig2a", "fig4a", "fig7a"])
def test_sweep_evaluator_matches_oracle(request, name):
    """The dps-40 route of the sweep agrees with the independent dps-50 oracle."""
    cfg = request.getfixturevalue(name)
    ctx = _mathctx.mp_context(verification.RESIDUAL_DPS)
    evaluator, _ = _evaluator(cfg, "a", ctx)
    zs = [e.z for e in cfg.eigenvalues]
    As = [e.A_plus for e in cfg.eigenvalues]
    rng = random.Random(29)
    for _ in range(4):
        x, t = rng.uniform(-5, 5), rng.uniform(-3, 3)
        got = evaluator(ctx.real(x), ctx.real(t))
        if cfg.pole_order is PoleOrder.DOUBLE:
            ref = oracles.double_q(cfg.q_minus, zs, As, [e.B_plus for e in cfg.eigenvalues],
                                   x, t)
        else:
            ref = oracles.simple_q(cfg.q_minus, zs, As, x, t)
        assert abs(got - ref) < 1e-30


def test_residual_sweep_prepares_orbit_constants_once(monkeypatch, fig4a):
    """log A_minus is taken once per mirror point and sweep, not once per
    field evaluation: 2N calls to the context's log."""
    calls = []
    real = _mathctx.mp_context

    def counting(dps):
        ctx = real(dps)
        log = ctx.log

        def counted(value):
            calls.append(value)
            return log(value)

        ctx.log = counted
        return ctx

    monkeypatch.setattr(_mathctx, "mp_context", counting)
    residual_sweep(fig4a, ACCEPTANCE_WINDOW, n=3)
    assert len(calls) == 2 * fig4a.N


def _nan_at(node):
    """A stand-in for ``_evaluator`` whose field is NaN at the one point node."""
    real = verification._evaluator

    def nan_at_node(cfg, convention, ctx=verification._mathctx.FLOAT):
        evaluator, orbit = real(cfg, convention, ctx)

        def patched(x, t):
            if (x, t) == node:
                return ctx.convert(complex("nan+nanj"))
            return evaluator(x, t)

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

    def __init__(self, processes, initializer, initargs):
        self.sizes.append(processes)
        initializer(*initargs)

    def map(self, func, iterable, chunksize):
        return [func(item) for item in iterable]

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
    monkeypatch.setattr(verification, "_worker_row", None)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: type("Fork", (), {"Pool": _InProcessPool}))
    fanned = residual_sweep(fig2a, SMALL_WINDOW, n=n)
    assert _InProcessPool.sizes == [min(n, cpus)]
    assert verification._sweep_workers(21) == min(21, cpus)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert residual_sweep(fig2a, SMALL_WINDOW, n=n) == fanned
    assert _InProcessPool.sizes == [min(n, cpus)]  # the serial sweep starts no pool


def test_worker_failure_reaches_the_caller(fig2a, monkeypatch):
    """A row that fails in a worker is a StencilEvaluationFailure naming its
    stencil point, and no worker outlives the sweep."""
    real = verification._evaluator

    def failing_last_row(cfg, convention, ctx=verification._mathctx.FLOAT):
        evaluator, orbit = real(cfg, convention, ctx)

        def patched(x, t):
            if t > 0.5:  # the row t = 1 of a 3 x 3 sweep on SMALL_WINDOW
                raise ZeroDivisionError(f"stand-in failure in process {os.getpid()}")
            return evaluator(x, t)

        return patched, orbit

    monkeypatch.setattr(verification, "_evaluator", failing_last_row)
    with pytest.raises(StencilEvaluationFailure,
                       match=r"stencil around \(x=-1\.0, t=1\.0, h=0\.001\d*\): "
                             r"stand-in failure in process \d+") as err:
        residual_sweep(fig2a, SMALL_WINDOW, n=3)
    if verification._sweep_workers(3) > 1:
        assert str(os.getpid()) not in str(err.value)  # it failed in a worker
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
