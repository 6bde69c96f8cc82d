"""Independent adjudication of constructed fields.

Three unrelated oracles: pointwise evolution-equation residuals from
finite differences (run at 40 significant digits in ``decimal`` arithmetic,
so the stencil roundoff does not mask the truncation behavior), split-step
Fourier time evolution of the same equation, and boundary/phase asymptotics.
A field that fools all three at once would have to be a genuine solution.
"""

import math
import os
import sys
import threading
from dataclasses import asdict, dataclass

from . import _mathctx, scattering
from .errors import (PeriodicIncompatible, SingularMatrix, StencilEvaluationFailure,
                     finite_number)
from .fields import POLE_MODULES
from .spectrum import SpectralConfig, derive_orbit
from .uniformization import lambda_of_z

RESIDUAL_DPS = 40
PERIODIC_GATE = 1e-8
#: The stencil (x, t, h) at which ``probe_convention`` takes the residual.
PROBE_STENCIL = (0.3, 0.7, 1e-3)
#: The time at which ``boundary_errors`` compares the field with q_minus, q_plus.
BOUNDARY_T = 0.0

#: Pass thresholds for the report's overall verdict.  Boundary is looser than
#: the best configurations achieve because tail decay rates vary by spectrum.
DEFAULT_GATES = {"residual": 1e-6, "boundary": 1e-6, "evolution": 1e-5}
#: The box (x_min, x_max, t_min, t_max), nodes per axis and stencil step of
#: ``check``'s residual sweep.
RESIDUAL_WINDOW = (-5.0, 5.0, -3.0, 3.0)
RESIDUAL_N = 21
RESIDUAL_H = 1e-3
#: The stencil points' offsets from a node, in steps h, along either axis.
STENCIL_STEPS = (-2, -1, 1, 2)


@dataclass(frozen=True)
class EvolutionSetup:
    """Periodic window and stepping for the split-step cross-check; checked on
    construction: L, dt > 0, M a power of two whose complex samples fit in
    one array, a finite linear phase k^2 dt at the largest wavenumber
    k = pi M / (2 L), t1 > t0 and t1 - t0 a whole number of steps, at least
    one."""

    L: float = 40.0
    M: int = 4096
    dt: float = 1e-4
    t0: float = -2.0
    t1: float = 2.0

    def __post_init__(self):
        if type(self.M) is not int or finite_number(self.M, "evolution.M") < 2:
            raise ValueError(f"evolution.M must be an integer >= 2, got {self.M!r}")
        for name in ("L", "dt", "t0", "t1"):
            value = finite_number(getattr(self, name), f"evolution.{name}")
            if name in ("L", "dt") and not value > 0:
                raise ValueError(f"evolution.{name} must be positive, got {value}")
            object.__setattr__(self, name, value)
        if self.M & (self.M - 1):
            raise ValueError(f"M = {self.M} is not a power of two")
        if 16 * self.M > sys.maxsize:  # bytes of M complex128 samples
            raise ValueError(f"M = {self.M} samples do not fit in one array")
        k = math.pi * self.M / (2 * self.L)
        if not math.isfinite(k * k * self.dt):
            raise ValueError(f"L = {self.L} and M = {self.M} give a wavenumber "
                             f"{k:.3e} whose linear phase k^2 dt overflows")
        if not self.t1 > self.t0:
            raise ValueError("evolution span needs t1 > t0")
        span = self.t1 - self.t0
        steps = span / self.dt
        if (not math.isfinite(steps) or round(steps) < 1
                or abs(round(steps) * self.dt - span) > 1e-9):
            raise ValueError("evolution span must be a whole number of steps, "
                             "at least one")


@dataclass
class VerificationReport:
    """The outcome of each check; ``failed_gates`` judges it by ``DEFAULT_GATES``."""

    residual_max: float
    residual_grid_spec: str
    boundary_errors: list
    theta_ok: bool
    convention_sign: str
    evolution_linf_error: float | None
    evolution_reason: str | None
    warnings: list

    @property
    def failed_gates(self) -> list:
        """The failed gates, in the order residual, boundary, theta, evolution;
        a skipped evolution check fails none, and a NaN fails its gate."""
        gates, evolution = DEFAULT_GATES, self.evolution_linf_error
        failed = {"residual": not self.residual_max < gates["residual"],
                  "boundary": not all(e < gates["boundary"] for e in self.boundary_errors),
                  "theta": not self.theta_ok,
                  "evolution": evolution is not None and not evolution < gates["evolution"]}
        return [name for name, fails in failed.items() if fails]

    @property
    def passed(self) -> bool:
        return not self.failed_gates

    def to_dict(self) -> dict:
        return {**asdict(self), "gates": dict(DEFAULT_GATES),
                "failed_gates": self.failed_gates, "passed": self.passed}


def pde_residual(field_evaluator, cfg: SpectralConfig, x, t, h,
                 ctx=_mathctx.FLOAT):
    """R(q) = i q_t + q_xx + 2(|q|^2 - Q0^2) q at (x, t).

    Fourth-order central stencils in both variables; the evaluator is called
    at the exact stencil points, no interpolation.
    """
    try:
        q = [field_evaluator(*point) for point in _stencil_points([x], t, h)]
    except Exception as exc:
        raise StencilEvaluationFailure(
            f"stencil around (x={x}, t={t}, h={h}): {exc}"
        ) from exc
    return _stencil_residual(q[0], q[1:5], q[5:], h, cfg, ctx)


def _stencil_residual(qc, qx, qt, h, cfg: SpectralConfig, ctx):
    """R(q) from q at a node (qc) and at its x and t stencil points (qx, qt,
    in the order of ``STENCIL_STEPS``); each a value, or a batch of values at
    many nodes."""
    q_xx = (-qx[0] + 16 * qx[1] - 30 * qc + 16 * qx[2] - qx[3]) / (12 * h * h)
    q_t = (qt[0] - 8 * qt[1] + 8 * qt[2] - qt[3]) / (12 * h)
    mod2 = (qc * qc.conjugate()).real
    return ctx.i * q_t + q_xx + 2 * (mod2 - ctx.real(cfg.Q0 ** 2)) * qc


def _evaluator(cfg: SpectralConfig, convention: str, ctx=_mathctx.FLOAT):
    """Pointwise evaluator q(x, t) in ``ctx``, plus the orbit it uses; where
    ``ctx`` has batches, x and t may be batches of points, for a batch of q."""
    orbit = derive_orbit(cfg, convention, ctx=ctx)
    point = POLE_MODULES[cfg.pole_order].evaluate_q

    def evaluator(x, t):
        return point(orbit, x, t, ctx=ctx, check_condition=False)

    return evaluator, orbit


def residual_sweep(cfg: SpectralConfig, window, n: int = RESIDUAL_N, h: float = RESIDUAL_H,
                   convention: str = "auto") -> float:
    """max |R(q)| over an n x n grid on window = (x_min, x_max, t_min, t_max),
    evaluated in ``_mathctx.decimal_context(RESIDUAL_DPS)``: ``RESIDUAL_DPS``
    significant digits in C-backed ``decimal`` arithmetic.  The stencils' 9 n^2
    field evaluations (3,969 at n = 21) share 5 n x and 5 n t values (105), so
    the orbit tables each weight factor once per coordinate value.

    Each t row's 9 n stencil points (189) are evaluated as one batch of that
    context: every operation runs over the lists of their Decimal parts, and
    each point pivots on its own, so every value has the bits of the
    point-by-point ``pde_residual``.  Where the batch raises, the row is
    evaluated point by point, so that the ``StencilEvaluationFailure`` names
    the first stencil that fails.

    The t rows are spread over forked worker processes, one per CPU the
    process may use and at most one per row (see ``_sweep_workers`` and
    ``_fork_map``).  Each node's arithmetic is its own and the maximum is
    taken over the rows in their original order, so the result has the same
    bits for any worker count.  No worker outlives the call, and the first
    failing row in row order raises, as it would in process, with the same
    exception.
    """
    if type(n) is not int or n < 2:
        raise ValueError(f"residual sweep n must be an integer >= 2, got {n!r}")
    ctx = _mathctx.decimal_context(RESIDUAL_DPS)
    evaluator, _ = _evaluator(cfg, convention, ctx)
    x_min, x_max, t_min, t_max = window
    # build the sample points in working precision: a coordinate rounded to
    # double would be amplified by 1/h^2 in the second-difference stencil
    real = ctx.real
    xs = [real(x_min) + (real(x_max) - real(x_min)) * i / (n - 1) for i in range(n)]
    ts = [real(t_min) + (real(t_max) - real(t_min)) * i / (n - 1) for i in range(n)]
    hh = real(h)

    def row(i):
        t = ts[i]
        try:
            q = evaluator(*map(ctx.batch.of, zip(*_stencil_points(xs, t, hh))))
        except Exception:
            for x in xs:  # raises at the first stencil that fails
                pde_residual(evaluator, cfg, x, t, hh, ctx=ctx)
            raise
        groups = [q[j * n:(j + 1) * n] for j in range(9)]
        r = _stencil_residual(groups[0], groups[1:5], groups[5:], hh, cfg, ctx)
        return list(map(float, abs(r).re))

    values = [v for r in _fork_map(row, n, _sweep_workers(n)) for v in r]
    # a NaN anywhere is the maximum, so a non-finite residual fails the gate;
    # max alone would drop a NaN that is not first
    return math.nan if any(map(math.isnan, values)) else max(values)


def _stencil_points(xs, t, h) -> list:
    """The points (x, t) at which ``pde_residual`` evaluates the field for
    the nodes (x, t), x in xs: the nodes, then their x and then their t
    stencil points, one offset of ``STENCIL_STEPS`` after the other."""
    return ([(x, t) for x in xs] + [(x + k * h, t) for k in STENCIL_STEPS for x in xs]
            + [(x, t + k * h) for k in STENCIL_STEPS for x in xs])


def _sweep_workers(n_rows: int) -> int:
    """Worker processes for n_rows sweep rows: one per CPU in this process's
    affinity set and at most one per row, or 1 (sweep in process) where the
    fork start method is missing, this process is daemonic and may not have
    children, or other threads run, which a forked child could find holding
    a lock it never releases."""
    # imported here, so that commands without a sweep do not pay for it
    import multiprocessing

    if (not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        return 1
    return min(n_rows, len(os.sched_getaffinity(0)))


#: The row function of the ``_fork_map`` that runs a pool, set before the
#: fork so that its workers inherit it; None otherwise.
_worker_row = None


def _run_row(i: int):
    return _worker_row(i)


def _fork_map(row, n_rows: int, workers: int) -> list:
    """[row(i) for i in range(n_rows)]: in process for one worker, else over a
    pool of forked workers.  Fork hands the workers ``row`` as it is in
    memory, closure and patched state included, so only row indices and
    results are pickled.  Results, and a failure, come in row order: the
    first row that raises, whichever worker finishes first."""
    if workers == 1:
        return [row(i) for i in range(n_rows)]
    import multiprocessing

    global _worker_row
    _worker_row = row
    try:
        pool = multiprocessing.get_context("fork").Pool(workers)
        try:
            return list(pool.imap(_run_row, range(n_rows)))
        finally:
            pool.terminate()
            pool.join()
    finally:
        _worker_row = None


def split_step_evolve(q0_samples, setup: EvolutionSetup, Q0: float):
    """Strang-split integration of i q_t + q_xx + 2(|q|^2 - Q0^2) q = 0.

    Periodic on [-L, L); returns the samples at t1 and leaves q0_samples
    unchanged.  The nonlinear substep is an exact phase rotation by
    phi = 2 tau (|q|^2 - Q0^2), the linear substep exact per Fourier mode, so
    the only error is the O(dt^2) splitting error.  Adjacent nonlinear
    half-steps are fused into one full step, so only the first and the last
    are halves.
    """
    import numpy as np

    q = np.array(q0_samples, dtype=complex)
    if q.shape != (setup.M,):
        raise ValueError(f"expected {setup.M} samples, got {q.shape}")
    dx = 2 * setup.L / setup.M
    kappa = 2 * np.pi * np.fft.fftfreq(setup.M, d=dx)
    linear_phase = np.exp(-1j * kappa ** 2 * setup.dt)
    n_steps = round((setup.t1 - setup.t0) / setup.dt)
    phi, imag2 = np.empty(setup.M), np.empty(setup.M)
    rotation = np.empty(setup.M, dtype=complex)

    def nonlinear(q, tau):
        """q *= cos phi + i sin phi, in place in preallocated buffers."""
        np.multiply(q.real, q.real, out=phi)
        np.multiply(q.imag, q.imag, out=imag2)
        np.add(phi, imag2, out=phi)
        np.subtract(phi, Q0 ** 2, out=phi)
        np.multiply(phi, 2 * tau, out=phi)
        np.cos(phi, out=rotation.real)
        np.sin(phi, out=rotation.imag)
        np.multiply(q, rotation, out=q)

    nonlinear(q, setup.dt / 2)
    for step in range(1, n_steps + 1):
        spectrum = np.fft.fft(q)
        spectrum *= linear_phase
        q = np.fft.ifft(spectrum)
        nonlinear(q, setup.dt if step < n_steps else setup.dt / 2)
    return q


def probe_convention(cfg: SpectralConfig) -> dict:
    """{"a": residual magnitude at ``PROBE_STENCIL``} of the one convention."""
    evaluator, _ = _evaluator(cfg, "a")
    return {"a": abs(pde_residual(evaluator, cfg, *PROBE_STENCIL))}


def evolution_cross_check(orbit, setup: EvolutionSetup) -> float:
    """L-inf mismatch between split-step evolution and the exact formula."""
    import numpy as np

    if abs(orbit.q_plus - orbit.q_minus) > PERIODIC_GATE:
        raise PeriodicIncompatible(
            f"|q_plus - q_minus| = {abs(orbit.q_plus - orbit.q_minus):.3e} "
            "breaks the periodic window"
        )
    xs = -setup.L + 2 * setup.L * np.arange(setup.M) / setup.M
    # xs[0] is -L, so one more point at +L gives the wrap check
    q0 = exact_slice(orbit, np.append(xs, setup.L), setup.t0)
    wrap = abs(q0[-1] - q0[0])
    if wrap > PERIODIC_GATE:
        raise PeriodicIncompatible(f"window mismatch {wrap:.3e} at t0")
    q_final = split_step_evolve(q0[:-1], setup, orbit.Q0)
    q_exact = exact_slice(orbit, xs, setup.t1)
    return float(np.max(np.abs(q_final - q_exact)))


def exact_slice(orbit, xs, t: float):
    """q(x, t) at every x in xs by the batched float route; raises
    SingularMatrix when a point is flagged singular."""
    import numpy as np

    row = POLE_MODULES[orbit.cfg.pole_order].sample_row(orbit, xs, t)
    singular = [x for x, (_, flag, _) in zip(xs, row) if flag == "singular"]
    if singular:
        raise SingularMatrix(f"{len(singular)} singular points in the exact slice "
                             f"at t={t}, first at x={singular[0]}")
    return np.array([q for q, _, _ in row])


def evolution_step(orbit, setup: EvolutionSetup | None):
    """(error, None) of ``evolution_cross_check``, or (None, reason) when the
    check does not apply: ``setup`` is None, or the field does not fit a
    periodic window."""
    if setup is None:
        return None, "disabled by plan"
    try:
        return evolution_cross_check(orbit, setup), None
    except PeriodicIncompatible as exc:
        return None, f"PeriodicIncompatible: {exc}"


def boundary_errors(cfg: SpectralConfig, convention: str, L: float):
    """(|q(-L) - q_minus|, |q(+L) - q_plus|) at t = ``BOUNDARY_T``."""
    evaluator, orbit = _evaluator(cfg, convention)
    return (abs(evaluator(-L, BOUNDARY_T) - cfg.q_minus),
            abs(evaluator(L, BOUNDARY_T) - orbit.q_plus))


def boundary_window(orbit) -> float:
    """Default boundary L: 20 e-folds of the slowest tail, within [30, 250].

    The tail of eigenvalue z_n decays like exp(-2 Im lambda(z_n) |x|), so a
    fixed L leaves slowly decaying fields far above the boundary gate.
    """
    rate = min((2 * lambda_of_z(z, orbit.Q0).imag
                for z in orbit.canonical_z), default=math.inf)
    return min(max(30.0, 20 / rate if rate > 0 else math.inf), 250.0)


def verify(cfg: SpectralConfig,
           evolution: EvolutionSetup | None = EvolutionSetup()) -> VerificationReport:
    """Run the full independent-check battery on the field ``construct``
    writes and report; ``evolution`` None skips the split-step check."""
    warnings_list = []

    n = RESIDUAL_N
    residual_max = residual_sweep(cfg, RESIDUAL_WINDOW, n=n)
    x_min, x_max, t_min, t_max = RESIDUAL_WINDOW
    grid_spec = (f"{n}x{n} grid on x in [{x_min}, {x_max}], "
                 f"t in [{t_min}, {t_max}], h={RESIDUAL_H}")

    orbit = derive_orbit(cfg)
    b_errs = boundary_errors(cfg, "a", L=boundary_window(orbit))

    theta_diag = scattering.check_theta_condition(orbit)
    if not theta_diag.ok:
        warnings_list.append(theta_diag.message)

    evo_err, evo_reason = evolution_step(orbit, evolution)
    return VerificationReport(
        residual_max=residual_max,
        residual_grid_spec=grid_spec,
        boundary_errors=list(b_errs),
        theta_ok=theta_diag.ok,
        convention_sign="a",
        evolution_linf_error=evo_err,
        evolution_reason=evo_reason,
        warnings=warnings_list,
    )
