"""Independent adjudication of constructed fields.

Three unrelated oracles: pointwise evolution-equation residuals from
finite differences (run in extended precision so the stencil roundoff does
not mask the truncation behavior), split-step Fourier time evolution of the
same equation, and boundary/phase asymptotics.  A field that fools all
three at once would have to be a genuine solution.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _mathctx, scattering
from .errors import PeriodicIncompatible, SingularMatrix, StencilEvaluationFailure
from .fields import POLE_MODULES
from .spectrum import SIGN_CONVENTIONS, SpectralConfig, derive_orbit, resolve_convention
from .uniformization import lambda_of_z

RESIDUAL_DPS = 40
PERIODIC_GATE = 1e-8
#: The stencil (x, t, h) at which ``probe_convention`` compares the conventions.
PROBE_STENCIL = (0.3, 0.7, 1e-3)
#: The time at which ``boundary_errors`` compares the field with q_minus, q_plus.
BOUNDARY_T = 0.0

#: Pass thresholds for the report's overall verdict.  Boundary is looser than
#: the best configurations achieve because tail decay rates vary by spectrum.
DEFAULT_GATES = {"residual": 1e-6, "boundary": 1e-6, "evolution": 1e-5}


def _number(value, where: str, positive=False) -> None:
    """Require a finite real number (not a bool), strictly positive when asked."""
    try:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value) and (value > 0 or not positive))
    except OverflowError:  # an int beyond double range
        ok = False
    if not ok:
        raise ValueError(f"{where} must be a finite{' positive' if positive else ''} "
                         f"number, got {value!r}")


def _integer(value, where: str, least: int) -> None:
    if type(value) is not int or value < least:
        raise ValueError(f"{where} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class EvolutionSetup:
    """Periodic window and stepping for the split-step cross-check; checked on
    construction: L, dt > 0, M a power of two, t1 > t0 and t1 - t0 a whole
    number of steps."""

    L: float = 40.0
    M: int = 4096
    dt: float = 1e-4
    t0: float = -2.0
    t1: float = 2.0

    def __post_init__(self):
        _integer(self.M, "evolution.M", 2)
        for name in ("L", "dt", "t0", "t1"):
            _number(getattr(self, name), f"evolution.{name}", positive=name in ("L", "dt"))
        if self.M & (self.M - 1):
            raise ValueError(f"M = {self.M} is not a power of two")
        if not self.t1 > self.t0:
            raise ValueError("evolution span needs t1 > t0")
        span = self.t1 - self.t0
        steps = span / self.dt
        if not math.isfinite(steps) or abs(round(steps) * self.dt - span) > 1e-9:
            raise ValueError("evolution span must be an integer number of steps")


@dataclass(frozen=True)
class Plan:
    """How ``check`` verifies a config and how ``evolve`` steps it: the
    config's ``verification`` object, each missing key at its default.

    ``gates`` names some of ``DEFAULT_GATES`` and holds all of them once
    built; ``evolution`` None disables the split-step check in ``check``.
    Each field is checked on construction, so a bad value raises
    ``ValueError`` or ``TypeError``.
    """

    window: tuple = (-5.0, 5.0, -3.0, 3.0)
    residual_n: int = 21
    h: float = 1e-3
    gates: dict = field(default_factory=dict)
    evolution: EvolutionSetup | None = EvolutionSetup()

    def __post_init__(self):
        if not isinstance(self.window, (list, tuple)) or len(self.window) != 4:
            raise ValueError("window must be [x_min, x_max, t_min, t_max], "
                             f"got {self.window!r}")
        for v in self.window:
            _number(v, "window")
        x_min, x_max, t_min, t_max = self.window
        if not (x_min < x_max and t_min < t_max):
            raise ValueError("window needs x_min < x_max and t_min < t_max, "
                             f"got {list(self.window)}")
        _integer(self.residual_n, "residual_n", 2)
        _number(self.h, "h", positive=True)
        if not isinstance(self.gates, dict) or set(self.gates) - set(DEFAULT_GATES):
            raise ValueError(f"gates must map some of {sorted(DEFAULT_GATES)} "
                             f"to numbers, got {self.gates!r}")
        for key, v in self.gates.items():
            _number(v, f"gates.{key}")
        if not (self.evolution is None or isinstance(self.evolution, EvolutionSetup)):
            raise TypeError("evolution must be true, false or an object of "
                            f"EvolutionSetup fields, got {self.evolution!r}")
        object.__setattr__(self, "window", tuple(self.window))
        object.__setattr__(self, "gates", {**DEFAULT_GATES, **self.gates})


@dataclass
class VerificationReport:
    residual_max: float
    residual_grid_spec: str
    boundary_errors: list
    theta_ok: bool
    convention_sign: str
    evolution_linf_error: float | None
    evolution_reason: str | None
    warnings: list
    gates: dict

    @property
    def passed(self) -> bool:
        checks = [
            self.residual_max < self.gates["residual"],
            all(e < self.gates["boundary"] for e in self.boundary_errors),
            self.theta_ok,
        ]
        if self.evolution_linf_error is not None:
            checks.append(self.evolution_linf_error < self.gates["evolution"])
        return all(checks)

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def pde_residual(field_evaluator, cfg: SpectralConfig, x, t, h,
                 ctx=_mathctx.FLOAT):
    """R(q) = i q_t + q_xx + 2(|q|^2 - Q0^2) q at (x, t).

    Fourth-order central stencils in both variables; the evaluator is called
    at the exact stencil points, no interpolation.
    """
    try:
        qc = field_evaluator(x, t)
        qx = [field_evaluator(x + k * h, t) for k in (-2, -1, 1, 2)]
        qt = [field_evaluator(x, t + k * h) for k in (-2, -1, 1, 2)]
    except Exception as exc:
        raise StencilEvaluationFailure(
            f"stencil around (x={x}, t={t}, h={h}): {exc}"
        ) from exc
    q_xx = (-qx[0] + 16 * qx[1] - 30 * qc + 16 * qx[2] - qx[3]) / (12 * h * h)
    q_t = (qt[0] - 8 * qt[1] + 8 * qt[2] - qt[3]) / (12 * h)
    mod2 = (qc * qc.conjugate()).real
    return ctx.i * q_t + q_xx + 2 * (mod2 - cfg.Q0 ** 2) * qc


def _evaluator(cfg: SpectralConfig, convention: str, ctx=_mathctx.FLOAT):
    """Pointwise evaluator q(x, t) in ``ctx``, plus the orbit it uses."""
    orbit = derive_orbit(cfg, convention, ctx=ctx)
    point = POLE_MODULES[cfg.pole_order].evaluate_q

    def evaluator(x, t):
        return point(orbit, x, t, ctx=ctx, check_condition=False)

    return evaluator, orbit


def residual_sweep(cfg: SpectralConfig, window, n: int = 21, h: float = 1e-3,
                   convention: str = "auto") -> float:
    """max |R(q)| over an n x n grid on window = (x_min, x_max, t_min, t_max),
    evaluated with ``RESIDUAL_DPS`` digits."""
    ctx = _mathctx.mp_context(RESIDUAL_DPS)
    evaluator, _ = _evaluator(cfg, convention, ctx)
    x_min, x_max, t_min, t_max = window
    # build the sample points in working precision: a coordinate rounded to
    # double would be amplified by 1/h^2 in the second-difference stencil
    mpf = ctx.real
    xs = [mpf(x_min) + (mpf(x_max) - mpf(x_min)) * i / (n - 1) for i in range(n)]
    ts = [mpf(t_min) + (mpf(t_max) - mpf(t_min)) * i / (n - 1) for i in range(n)]
    hh = mpf(h)
    # numpy's max propagates NaN, so a non-finite residual fails the gate
    return float(np.max([float(abs(pde_residual(evaluator, cfg, x, t, hh, ctx=ctx)))
                         for t in ts for x in xs]))


def split_step_evolve(q0_samples, setup: EvolutionSetup, Q0: float):
    """Strang-split integration of i q_t + q_xx + 2(|q|^2 - Q0^2) q = 0.

    Periodic on [-L, L); returns the samples at t1 and leaves q0_samples
    unchanged.  The nonlinear substep is an exact phase rotation by
    phi = 2 tau (|q|^2 - Q0^2), the linear substep exact per Fourier mode, so
    the only error is the O(dt^2) splitting error.  Adjacent nonlinear
    half-steps are fused into one full step, so only the first and the last
    are halves.
    """
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
    """Residual magnitude at ``PROBE_STENCIL`` under each registered convention."""
    out = {}
    for name in SIGN_CONVENTIONS:
        evaluator, _ = _evaluator(cfg, name)
        out[name] = abs(pde_residual(evaluator, cfg, *PROBE_STENCIL))
    return out


def evolution_cross_check(cfg: SpectralConfig, setup: EvolutionSetup,
                          convention: str = "auto") -> float:
    """L-inf mismatch between split-step evolution and the exact formula."""
    orbit = derive_orbit(cfg, convention)
    if abs(orbit.q_plus - cfg.q_minus) > PERIODIC_GATE:
        raise PeriodicIncompatible(
            f"|q_plus - q_minus| = {abs(orbit.q_plus - cfg.q_minus):.3e} "
            "breaks the periodic window"
        )
    xs = -setup.L + 2 * setup.L * np.arange(setup.M) / setup.M
    # xs[0] is -L, so one more point at +L gives the wrap check
    q0 = exact_slice(orbit, np.append(xs, setup.L), setup.t0)
    wrap = abs(q0[-1] - q0[0])
    if wrap > PERIODIC_GATE:
        raise PeriodicIncompatible(f"window mismatch {wrap:.3e} at t0")
    q_final = split_step_evolve(q0[:-1], setup, cfg.Q0)
    q_exact = exact_slice(orbit, xs, setup.t1)
    return float(np.max(np.abs(q_final - q_exact)))


def exact_slice(orbit, xs, t: float):
    """q(x, t) at every x in xs by the batched float route; raises
    SingularMatrix when a point is flagged singular."""
    row = POLE_MODULES[orbit.cfg.pole_order].sample_row(orbit, xs, t)
    singular = [x for x, (_, flag, _) in zip(xs, row) if flag == "singular"]
    if singular:
        raise SingularMatrix(f"{len(singular)} singular points in the exact slice "
                             f"at t={t}, first at x={singular[0]}")
    return np.array([q for q, _, _ in row])


def evolution_step(cfg: SpectralConfig, setup: EvolutionSetup | None,
                   convention: str = "auto"):
    """(error, None) of ``evolution_cross_check``, or (None, reason) when the
    check does not apply: ``setup`` is None, or the field does not fit a
    periodic window."""
    if setup is None:
        return None, "disabled by plan"
    try:
        return evolution_cross_check(cfg, setup, convention), None
    except PeriodicIncompatible as exc:
        return None, f"PeriodicIncompatible: {exc}"


def boundary_errors(cfg: SpectralConfig, convention: str, L: float):
    """(|q(-L) - q_minus|, |q(+L) - q_plus|) at t = ``BOUNDARY_T``."""
    evaluator, orbit = _evaluator(cfg, convention)
    return (abs(evaluator(-L, BOUNDARY_T) - cfg.q_minus),
            abs(evaluator(L, BOUNDARY_T) - orbit.q_plus))


def refine_peak(ts, vals, i: int) -> float:
    """Quadratic refinement of a local maximum at sample index i."""
    a, b, c = vals[i - 1], vals[i], vals[i + 1]
    denom = a - 2 * b + c
    if denom == 0:
        return ts[i]
    return ts[i] + 0.5 * (a - c) / denom * (ts[i + 1] - ts[i])


def peak_locations(ts, vals):
    """All strictly-local maxima, quadratically refined."""
    return [refine_peak(ts, vals, i)
            for i in range(1, len(vals) - 1)
            if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]]


def boundary_window(orbit) -> float:
    """Default boundary L: 20 e-folds of the slowest tail, within [30, 250].

    The tail of eigenvalue z_n decays like exp(-2 Im lambda(z_n) |x|), so a
    fixed L leaves slowly decaying fields far above the boundary gate.
    """
    rate = min((2 * lambda_of_z(z, orbit.Q0).imag
                for z in orbit.canonical_z), default=math.inf)
    return min(max(30.0, 20 / rate if rate > 0 else math.inf), 250.0)


def verify(cfg: SpectralConfig, plan: Plan = Plan(),
           convention: str = "auto") -> VerificationReport:
    """Run the full independent-check battery of ``plan`` and report."""
    warnings_list = []

    if convention == "auto" and cfg.N > 0:
        probes = probe_convention(cfg)
        convention = min(probes, key=probes.get)
        if probes[convention] > 1e-3:
            warnings_list.append(
                f"no sign convention yields a small residual (best {convention}: "
                f"{probes[convention]:.3e})"
            )
    convention = resolve_convention(convention)

    window, n, h = plan.window, plan.residual_n, plan.h
    residual_max = residual_sweep(cfg, window, n=n, h=h, convention=convention)
    grid_spec = (f"{n}x{n} grid on x in [{window[0]}, {window[1]}], "
                 f"t in [{window[2]}, {window[3]}], h={h}")

    orbit = derive_orbit(cfg, convention)
    b_errs = boundary_errors(cfg, convention, L=boundary_window(orbit))

    theta_diag = scattering.check_theta_condition(orbit)
    if not theta_diag.ok:
        warnings_list.append(theta_diag.message)

    evo_err, evo_reason = evolution_step(cfg, plan.evolution, convention)
    return VerificationReport(
        residual_max=residual_max,
        residual_grid_spec=grid_spec,
        boundary_errors=list(b_errs),
        theta_ok=theta_diag.ok,
        convention_sign=convention,
        evolution_linf_error=evo_err,
        evolution_reason=evo_reason,
        warnings=warnings_list,
        gates=dict(plan.gates),
    )
