"""Spectral data: user-supplied eigenvalues/norming constants and the derived
symmetry orbit feeding both solvers.

Eigenvalues are canonicalized into {Im z > 0, |z| > Q0}; the remaining three
orbit points and every paired norming constant follow from the symmetry
relations.  The source relations can be read with either sign on the
second-symmetry chain; only the reading "a" is built, the one under which the
constructed fields satisfy the evolution equation (frozen by the residual
golden test).
"""

import enum
import logging
from dataclasses import dataclass, field

from . import _mathctx
from .errors import (ConfigValidationError, ContourEigenvalue, Diagnostic,
                     NumberError, finite_number)

log = logging.getLogger(__name__)

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
    """Extended eigenvalues, their mirrors, the minus-side norming constants
    A_minus(xi_hat_j) (and B_minus(xi_hat_j) for double poles) that the solvers
    read, plus q_plus."""

    cfg: SpectralConfig
    xi: tuple
    xi_hat: tuple
    A_minus_xihat: tuple
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
    def q_minus(self):
        return self.cfg.q_minus

    @property
    def Q0(self) -> float:
        return abs(self.cfg.q_minus)


def derive_orbit(cfg: SpectralConfig, convention="auto", ctx=_mathctx.FLOAT) -> OrbitTable:
    """Build the full 2N orbit with its minus-side norming constants.
    ``convention`` names the one sign convention, "a" or "auto"."""
    if convention not in ("a", "auto"):
        raise ValueError(f"unknown sign convention {convention!r}")
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
    a_minus = [None] * (2 * n_eigs)
    b_minus = [None] * (2 * n_eigs) if double else []
    for n, (z, e) in enumerate(zip(zs, cfg.eigenvalues)):
        a = conv(e.A_plus)
        if double:
            ratio = (q0sq * q0sq) * qm / (z ** 4 * qm.conjugate())
        else:
            ratio = qm * qm / (z * z)
        a_minus[n] = ratio * a
        a_minus[n_eigs + n] = -a.conjugate()
        if double:
            b = conv(e.B_plus)
            b_minus[n] = (z * z / q0sq) * (b - 2 / z)
            b_minus[n_eigs + n] = b.conjugate()

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
        xi=tuple(xi),
        xi_hat=tuple(xi_hat),
        A_minus_xihat=tuple(a_minus),
        B_minus_xihat=tuple(b_minus),
        q_plus=q_plus,
    )


def _problems(cfg: SpectralConfig):
    """One diagnostic per violated input rule, empty for admissible data.
    Each number is stored as the float or complex ``finite_number`` returns."""
    if not isinstance(cfg.pole_order, PoleOrder):
        return [Diagnostic("PoleOrder", "pole_order must be a PoleOrder, "
                           f"got {cfg.pole_order!r}")]
    if not isinstance(cfg.eigenvalues, (tuple, list)):
        return [Diagnostic("BadEigenvalues", "eigenvalues must be a tuple of "
                           f"EigenEntry, got {cfg.eigenvalues!r}")]
    out = []

    def number(value, where, kind):
        try:
            return finite_number(value, where, kind)
        except NumberError as exc:
            out.append(Diagnostic(exc.code, str(exc)))

    entries = []
    for idx, e in enumerate(cfg.eigenvalues):
        if isinstance(e, EigenEntry):
            entries.append(EigenEntry(*(number(getattr(e, name),
                                               f"eigenvalues[{idx}].{name}", complex)
                                        for name in ("z", "A_plus", "B_plus"))))
        else:
            out.append(Diagnostic("BadEigenvalues", f"eigenvalues[{idx}] must be an "
                                  f"EigenEntry, got {e!r}"))
    values = {name: number(getattr(cfg, name), name, kind) for name, kind in
              (("epsilon", float), ("gamma0", float), ("q_minus", complex))}
    if out:
        return out  # the checks below assume finite numbers
    for name, v in [*values.items(), ("eigenvalues", tuple(entries))]:
        object.__setattr__(cfg, name, v)
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
