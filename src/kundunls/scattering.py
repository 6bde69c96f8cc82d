"""Trace formulae and analytic-identity audits for the scattering data.

These checks never touch the field reconstruction: they work purely on the
orbit table, so they can catch a corrupted table independently of whether
the solvers happen to produce something plausible.
"""

import cmath
import math
import random

from .errors import Diagnostic, EvaluationAtPole
from .spectrum import OrbitTable, PoleOrder

_POLE_TOL = 1e-13
#: Largest error an audit accepts: the theta condition, each symmetry
#: relation and the trace product s11 s22 = 1.
AUDIT_TOL = 1e-12
#: Seeded points at which ``audit`` compares s11 s22 with 1.
AUDIT_SAMPLES = 100


def _trace_factors(orbit: OrbitTable, z: complex):
    """(numerator root, denominator root) pairs of the reflectionless product."""
    q0sq = orbit.Q0 ** 2
    pairs = []
    for zn in orbit.canonical_z:
        pairs.append((z - zn, z - zn.conjugate()))
        pairs.append((z + q0sq / zn.conjugate(), z + q0sq / zn))
    return pairs


def _order_exponent(orbit: OrbitTable) -> int:
    return 1 if orbit.cfg.pole_order is PoleOrder.SIMPLE else 2


def trace_s11(orbit: OrbitTable, z: complex) -> complex:
    """s11(z) as the finite product over the discrete spectrum (rho = 0)."""
    m = _order_exponent(orbit)
    out = 1 + 0j
    for num, den in _trace_factors(orbit, z):
        if abs(den) < _POLE_TOL * (1 + abs(z)):
            raise EvaluationAtPole(f"z = {z} is a pole of s11")
        out *= (num / den) ** m
    return out


def trace_s22(orbit: OrbitTable, z: complex) -> complex:
    """s22(z) = 1/s11(z), evaluated as its own product so the poles swap."""
    m = _order_exponent(orbit)
    out = 1 + 0j
    for num, den in _trace_factors(orbit, z):
        if abs(num) < _POLE_TOL * (1 + abs(z)):
            raise EvaluationAtPole(f"z = {z} is a pole of s22")
        out *= (den / num) ** m
    return out


def check_theta_condition(orbit: OrbitTable) -> Diagnostic:
    """arg(q_plus/q_minus) must equal -m * sum(arg z_n) mod 2 pi (m = 4 or 8)."""
    m = 4 if orbit.cfg.pole_order is PoleOrder.SIMPLE else 8
    expected = -m * sum(cmath.phase(zn) for zn in orbit.canonical_z)
    actual = cmath.phase(orbit.q_plus / orbit.cfg.q_minus)
    resid = (actual - expected + math.pi) % (2 * math.pi) - math.pi
    # |q_plus| must also carry over unchanged
    mod_err = abs(abs(orbit.q_plus) - abs(orbit.cfg.q_minus))
    ok = abs(resid) <= AUDIT_TOL and mod_err <= AUDIT_TOL
    return Diagnostic(
        "ThetaCondition",
        f"phase residual {resid:.3e}, modulus mismatch {mod_err:.3e}",
        ok=ok,
        value=abs(resid) + mod_err,
    )


def _rel_err(lhs, rhs) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def check_symmetries(orbit: OrbitTable):
    """Re-derive the mirror points and every minus-side norming constant and
    compare.

    Each relation is evaluated from the canonical eigenvalues and the
    config's A_plus (and B_plus) alone, so a corrupted entry in the table
    shows up as an O(1) relative error in exactly the relation it violates.
    """
    order = orbit.cfg.pole_order
    qm = orbit.cfg.q_minus
    q0sq = orbit.Q0 ** 2
    n_eigs = orbit.N
    out = []

    def add(code, err):
        out.append(Diagnostic(code, f"max relative error {err:.3e}",
                              ok=err <= AUDIT_TOL, value=err))

    err = max(
        (_rel_err(orbit.xi_hat[j], -q0sq / orbit.xi[j]) for j in range(2 * n_eigs)),
        default=0.0,
    )
    add("MirrorPoints", err)

    e1 = e2 = 0.0
    for n in range(n_eigs):
        z = orbit.canonical_z[n]
        a = orbit.cfg.eigenvalues[n].A_plus
        if order is PoleOrder.SIMPLE:
            ratio = qm * qm / (z * z)
        else:
            ratio = q0sq * q0sq * qm / (z ** 4 * qm.conjugate())
        e1 = max(e1, _rel_err(orbit.A_minus_xihat[n], ratio * a))
        e2 = max(e2, _rel_err(orbit.A_minus_xihat[n_eigs + n], -a.conjugate()))
    add("NormingChainFirst", e1)
    add("NormingChainConjugate", e2)

    if order is PoleOrder.DOUBLE:
        b1 = b2 = 0.0
        for n in range(n_eigs):
            z = orbit.canonical_z[n]
            b = orbit.cfg.eigenvalues[n].B_plus
            b1 = max(b1, _rel_err(orbit.B_minus_xihat[n], (z * z / q0sq) * (b - 2 / z)))
            b2 = max(b2, _rel_err(orbit.B_minus_xihat[n_eigs + n], b.conjugate()))
        add("DerivativeChainShift", b1)
        add("DerivativeChainConjugate", b2)

    return out


def check_trace_product(orbit: OrbitTable, seed: int) -> Diagnostic:
    """max |s11 s22 - 1| over ``AUDIT_SAMPLES`` seeded points of the box
    [-3, 3]^2, away from the origin, the real axis, the circle |z| = Q0 and
    the poles of either product."""
    rng = random.Random(seed)
    worst = 0.0
    tried = 0
    while tried < AUDIT_SAMPLES:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < 0.1 or abs(abs(z) - orbit.Q0) < 1e-3 or abs(z.imag) < 1e-3:
            continue
        try:
            prod = trace_s11(orbit, z) * trace_s22(orbit, z)
        except EvaluationAtPole:
            continue
        worst = max(worst, abs(prod - 1))
        tried += 1
    return Diagnostic("TraceProduct",
                      f"max |s11*s22 - 1| = {worst:.3e} over {tried} samples",
                      ok=worst <= AUDIT_TOL, value=worst)


def audit(orbit: OrbitTable, seed: int) -> list[Diagnostic]:
    """The audit battery: the phase condition, every symmetry relation and
    the trace product at seeded points."""
    return [check_theta_condition(orbit), *check_symmetries(orbit),
            check_trace_product(orbit, seed)]
