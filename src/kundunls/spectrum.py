"""Spectral data: user-supplied eigenvalues/norming constants and the derived
symmetry orbit feeding both solvers.

Eigenvalues are canonicalized into {Im z > 0, |z| > Q0}; the remaining three
orbit points and every paired norming constant follow from the symmetry
relations.  Two sign conventions ("a" and "b") exist because the source
relations can be read with either sign on the second-symmetry chain; "a" is
the one under which the constructed fields satisfy the evolution equation
(frozen by the residual golden test).
"""

import enum
import logging
import math
from dataclasses import dataclass, field

from . import _mathctx
from .errors import ConfigValidationError, ContourEigenvalue, Diagnostic

log = logging.getLogger(__name__)

#: Convention name -> its sign, which multiplies both the second-symmetry
#: chain and the reconstruction term.
SIGN_CONVENTIONS = {"a": 1, "b": -1}

#: Adjudicated empirically on the one-breather configuration; see the golden
#: residual test.
DEFAULT_SIGN_CONVENTION = "a"


class PoleOrder(enum.Enum):
    SIMPLE = "simple"
    DOUBLE = "double"


@dataclass(frozen=True)
class EigenEntry:
    """One discrete eigenvalue with its norming constant(s)."""

    z: complex
    A_plus: complex
    B_plus: complex = 0j


@dataclass(frozen=True)
class SpectralConfig:
    """Complete input defining one exact solution; checked on construction,
    so an inadmissible one raises ``ConfigValidationError`` listing every
    violated rule."""

    q_minus: complex
    epsilon: float
    gamma0: float
    pole_order: PoleOrder
    eigenvalues: tuple = ()

    def __post_init__(self):
        diags = _problems(self)
        if diags:
            raise ConfigValidationError(diags)

    @property
    def Q0(self) -> float:
        return abs(self.q_minus)

    @property
    def N(self) -> int:
        return len(self.eigenvalues)

    @property
    def u0(self) -> float:
        """Background amplitude of the gauge-side field u."""
        return self.Q0 / abs(self.epsilon)


def canonicalize_eigenvalue(z: complex, Q0: float) -> complex:
    """Pick the orbit member of {z, z*, -Q0^2/z, -Q0^2/z*} with Im > 0, |.| > Q0."""
    if z.imag == 0 or abs(z) == Q0:
        raise ContourEigenvalue(f"eigenvalue {z} lies on the continuous spectrum")
    for cand in (z, z.conjugate(), -Q0 ** 2 / z, -(Q0 ** 2) / z.conjugate()):
        if cand.imag > 0 and abs(cand) > Q0:
            return cand
    raise ContourEigenvalue(f"eigenvalue {z} lies within rounding of the continuous "
                            "spectrum")


@dataclass(frozen=True)
class OrbitTable:
    """Extended eigenvalues, mirrors and all norming constants, plus q_plus."""

    cfg: SpectralConfig
    sign_convention: str
    xi: tuple
    xi_hat: tuple
    A_plus_xi: tuple
    A_minus_xihat: tuple
    B_plus_xi: tuple = ()
    B_minus_xihat: tuple = ()
    q_plus: complex = 0j
    #: per-context constants of the pole modules, filled on first use by
    #: ``reconstruct.prepared``; a replaced orbit starts empty
    prepared: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def N(self) -> int:
        return len(self.xi) // 2

    @property
    def canonical_z(self) -> tuple:
        """The canonical eigenvalues, the first N orbit points."""
        return self.xi[:self.N]

    @property
    def sign(self) -> int:
        """The convention's sign, +1 for "a" and -1 for "b"."""
        return SIGN_CONVENTIONS[self.sign_convention]

    @property
    def q_minus(self):
        return self.cfg.q_minus

    @property
    def Q0(self) -> float:
        return abs(self.cfg.q_minus)


def resolve_convention(convention: str) -> str:
    if convention == "auto":
        return DEFAULT_SIGN_CONVENTION
    if convention not in SIGN_CONVENTIONS:
        raise ValueError(f"unknown sign convention {convention!r}")
    return convention


def derive_orbit(cfg: SpectralConfig, convention="auto", ctx=_mathctx.FLOAT) -> OrbitTable:
    """Build the full 2N orbit with all derived constants."""
    convention = resolve_convention(convention)
    sign = SIGN_CONVENTIONS[convention]
    cz = []
    for e in cfg.eigenvalues:
        z = canonicalize_eigenvalue(e.z, cfg.Q0)
        if z != e.z:
            log.info("eigenvalue %s canonicalized to %s", e.z, z)
        cz.append(z)

    conv = ctx.convert
    qm = conv(cfg.q_minus)
    q0sq = abs(cfg.q_minus) ** 2
    zs = [conv(z) for z in cz]
    n_eigs = len(zs)

    xi = [*zs, *(-q0sq / z.conjugate() for z in zs)]
    xi_hat = [-q0sq / x for x in xi]

    double = cfg.pole_order is PoleOrder.DOUBLE
    a_plus, a_minus = [None] * (2 * n_eigs), [None] * (2 * n_eigs)
    b_plus, b_minus = ([None] * (2 * n_eigs), [None] * (2 * n_eigs)) if double else ([], [])
    for n, (z, e) in enumerate(zip(zs, cfg.eigenvalues)):
        a = conv(e.A_plus)
        if double:
            ratio = (q0sq * q0sq) * qm / (z ** 4 * qm.conjugate())
        else:
            ratio = qm * qm / (z * z)
        a_plus[n] = a
        a_minus[n] = sign * ratio * a
        a_minus[n_eigs + n] = -a.conjugate()
        a_plus[n_eigs + n] = -sign * (ratio * a).conjugate()
        if double:
            b = conv(e.B_plus)
            bshift = (z * z / q0sq) * (b - 2 / z)
            b_plus[n] = b
            b_minus[n] = bshift
            b_minus[n_eigs + n] = b.conjugate()
            b_plus[n_eigs + n] = bshift.conjugate()

    # arg(q_plus/q_minus) is minus 4 (simple poles) or minus 8 (double poles)
    # times the sum of the eigenvalue arguments, and the modulus carries over.
    # The sign is the one the constructed fields realize (measured on
    # asymmetric spectra and frozen in a golden test).
    total = 0.0
    for z in zs:
        total += ctx.arg(z)
    q_plus = qm * ctx.exp(-ctx.i * ((8 if double else 4) * total))

    return OrbitTable(
        cfg=cfg,
        sign_convention=convention,
        xi=tuple(xi),
        xi_hat=tuple(xi_hat),
        A_plus_xi=tuple(a_plus),
        A_minus_xihat=tuple(a_minus),
        B_plus_xi=tuple(b_plus),
        B_minus_xihat=tuple(b_minus),
        q_plus=q_plus,
    )


def _problems(cfg: SpectralConfig):
    """One diagnostic per violated input rule, empty for admissible data."""
    if not isinstance(cfg.pole_order, PoleOrder):
        return [Diagnostic("PoleOrder", "pole_order must be a PoleOrder, "
                           f"got {cfg.pole_order!r}")]
    values = [("epsilon", cfg.epsilon), ("gamma0", cfg.gamma0),
              ("q_minus", cfg.q_minus)]
    for idx, e in enumerate(cfg.eigenvalues):
        values += [(f"eigenvalues[{idx}].{name}", getattr(e, name))
                   for name in ("z", "A_plus", "B_plus")]
    nonfinite = [Diagnostic("NonFiniteValue", f"{name} must be finite, got {v}")
                 for name, v in values
                 if not (math.isfinite(v.real) and math.isfinite(v.imag))]
    if nonfinite:
        return nonfinite  # the checks below assume finite numbers
    out = []
    if cfg.epsilon == 0:
        out.append(Diagnostic("EpsilonZero", "epsilon must be nonzero"))
    if cfg.q_minus == 0:
        out.append(Diagnostic(
            "QMinusZero",
            "|q_minus| must be positive; approach the zero-background limit "
            "with a small |q_minus| instead",
        ))
        return out
    try:
        out += _eigenvalue_problems(cfg)
        if not out:
            derive_orbit(cfg)
        return out
    except ArithmeticError:  # the orbit leaves double range
        return out + [Diagnostic("Unrepresentable", "q_minus and the eigenvalues give "
                                 "mirror points or norming constants that overflow "
                                 "or underflow double precision")]


def _eigenvalue_problems(cfg: SpectralConfig):
    """Contour, zero-norming-constant and duplicate eigenvalue diagnostics;
    duplicates are equal canonical eigenvalues."""
    out = []
    canon = []
    for idx, e in enumerate(cfg.eigenvalues):
        try:
            canon.append((idx, canonicalize_eigenvalue(e.z, cfg.Q0)))
        except ContourEigenvalue as exc:
            out.append(Diagnostic("ContourEigenvalue", f"eigenvalues[{idx}]: {exc}"))
            continue
        if e.A_plus == 0:
            out.append(Diagnostic("NormingConstantZero",
                                  f"A_plus of eigenvalue {idx} must be nonzero"))
    hint = "use double-pole mode" if cfg.pole_order is PoleOrder.SIMPLE else None
    return out + [Diagnostic("DuplicateEigenvalue", f"eigenvalues {i} and {j} coincide "
                             f"at {zi} after canonicalization", hint=hint)
                  for n, (i, zi) in enumerate(canon) for j, zj in canon[n + 1:]
                  if zi == zj]
