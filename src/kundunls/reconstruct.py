"""Reconstruction core shared by both pole orders.

A pole module supplies ``build(orbit, x, t, ctx)`` returning ``(rows, rhs,
r)``: the column-scaled system A y = b at one point and the reconstruction
row r, so that q = q_minus - s i r^T A^{-1} b with s the convention's
reconstruction sign.  This module owns the column scaling, the LU solve
route, the bordered-determinant route (kept a separate code path), the
near-singularity check and the per-point flags.

The exponential weights are carried in log form and each column is rescaled
by exp(-max(Re log w_j, 0)), so fields stay evaluable far out on the
background where exp(2 i theta) overflows double precision.  The scale
factors cancel in the reconstruction.
"""

import warnings

from . import _mathctx, linalg
from .errors import NearSingularWarning, SingularMatrix
from .spectrum import SIGN_CONVENTIONS, OrbitTable
from .uniformization import SpectralPoint, theta

COND_WARN_THRESHOLD = 1e8


def log_weights(orbit: OrbitTable, x, t, ctx):
    """log(A_minus[xi_hat_j] e^{2 i theta(xi_hat_j)}) for every mirror point."""
    q0 = orbit.Q0
    return [ctx.log(a) + 2 * ctx.i * theta(x, t, SpectralPoint(zh, q0))
            for a, zh in zip(orbit.A_minus_xihat, orbit.xi_hat)]


def column_weights(orbit: OrbitTable, x, t, ctx, scaled=True):
    """(w_j e^{-m_j}, e^{-m_j}) with m_j = max(Re log w_j, 0), or m_j = 0."""
    logw = log_weights(orbit, x, t, ctx)
    shifts = [max(_mathctx.real_of(lw), 0.0) if scaled else 0.0 for lw in logw]
    return ([ctx.exp(lw - m) for lw, m in zip(logw, shifts)],
            [ctx.exp(ctx.convert(-m)) for m in shifts])


def _solve(build, orbit: OrbitTable, x, t, ctx, want_cond):
    """Solve route; returns (q, condition number or None)."""
    qm = ctx.convert(orbit.q_minus)
    if not orbit.xi:
        return qm, 1.0
    _, rec_sign = SIGN_CONVENTIONS[orbit.sign_convention]
    rows, rhs, r = build(orbit, x, t, ctx)
    fac = linalg.lu_factor(rows)
    y = fac.solve(rhs)
    q = qm - rec_sign * ctx.i * sum(rj * yj for rj, yj in zip(r, y))
    return q, (linalg.cond_estimate(rows, fac) if want_cond else None)


def evaluate_q_det(build, orbit: OrbitTable, x: float, t: float, ctx=_mathctx.FLOAT):
    """Determinant-ratio form of the field, via the bordered matrix.

    det([[A, b], [r^T, 0]]) / det(A) = -r^T A^{-1} b; the per-column scale
    factors cancel between the two determinants.
    """
    qm = ctx.convert(orbit.q_minus)
    if not orbit.xi:
        return qm
    _, rec_sign = SIGN_CONVENTIONS[orbit.sign_convention]
    rows, rhs, r = build(orbit, x, t, ctx)
    bordered = [row + [b] for row, b in zip(rows, rhs)]
    bordered.append(list(r) + [ctx.convert(0)])
    num = linalg.det(bordered)
    den = linalg.det(rows)
    return qm + rec_sign * ctx.i * (num / den)


def evaluate_q(build, orbit: OrbitTable, x: float, t: float, ctx=_mathctx.FLOAT,
               check_condition=True):
    """Scattering-side field q(x, t); warns when the system is near singular."""
    try:
        q, cond = _solve(build, orbit, x, t, ctx, check_condition)
    except SingularMatrix as exc:
        raise SingularMatrix(f"singular system at (x={x}, t={t}): {exc}") from exc
    if check_condition and cond > COND_WARN_THRESHOLD:
        warnings.warn(
            f"condition number {cond:.2e} at (x={x}, t={t})", NearSingularWarning
        )
    return q


def point_sample(build, orbit: OrbitTable, x: float, t: float):
    """(q, flag, cond) without raising; used by grid evaluation."""
    try:
        q, cond = _solve(build, orbit, x, t, _mathctx.FLOAT, True)
    except (SingularMatrix, ArithmeticError, ValueError):
        # a pivot underflowed, or a weight or pole left double range
        return complex("nan+nanj"), "singular", float("inf")
    return q, ("near_singular" if cond > COND_WARN_THRESHOLD else "ok"), cond
