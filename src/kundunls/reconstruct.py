"""Reconstruction core shared by both pole orders.

A pole module supplies ``build(orbit, x, t, ctx)`` returning ``(rows, rhs,
r)``: the column-scaled system A y = b at one point and the reconstruction
row r, so that q = q_minus - i r^T A^{-1} b.  This module owns the column
scaling, the generic LU solve route (scalars, or the 40-digit context's
batches of points), the batched float route for grid rows,
the bordered-determinant route (kept a separate code path), the
near-singularity check and the per-point flags.

In double precision the exponential weights are carried in log form and
each column is rescaled by exp(-max(Re log w_j, 0)), so fields stay
evaluable far out on the background where exp(2 i theta) overflows.  The
scale factors cancel in the reconstruction.  A context with a ``batch`` type
(the 40-digit one) needs no such device, since its exponent range is wide;
its weights are unscaled and factored into x and t parts, each computed once
per coordinate value.  Its scalars take the same route, so that a batch has
the bits of its points taken one at a time.

A pole module's (x, t)-independent constants (log A_minus, lambda, k, the
pole differences and the diagonal coefficients) are computed once per
(orbit, context) by ``prepared``, in that context's arithmetic and operation
order, so ``build`` does only per-point work and gets the same bits as a
computation of every term at the point.
"""

import warnings
from dataclasses import dataclass

from . import _mathctx, linalg
from .errors import NearSingularWarning, SingularMatrix
from .spectrum import OrbitTable
from .uniformization import k_of_z, lambda_of_z

COND_WARN_THRESHOLD = 1e8

_SINGULAR = (complex("nan+nanj"), "singular", float("inf"))


@dataclass(frozen=True)
class WeightConstants:
    """The (x, t)-independent part of the weights w_j = A_minus[xi_hat_j]
    e^{2 i theta(xi_hat_j)}, in one context: lambda(xi_hat_j), 2 k(xi_hat_j)
    and 2 i; log A_minus[xi_hat_j] for the shifted weights, or, in a context
    with a ``batch`` type, which factors them instead, A_minus[xi_hat_j], the
    rates 2 i lambda_j and -4 i lambda_j k_j and the tables
    x -> [e^{2 i lambda_j x}], t -> [e^{-4 i lambda_j k_j t}]."""

    log_a: tuple
    lam: tuple
    two_k: tuple
    two_i: object
    a: tuple = ()
    x_rate: tuple = ()
    t_rate: tuple = ()
    x_factors: dict = None
    t_factors: dict = None


def weight_constants(orbit: OrbitTable, ctx) -> WeightConstants:
    q0 = orbit.Q0
    lam = tuple(lambda_of_z(zh, q0) for zh in orbit.xi_hat)
    two_k = tuple(2 * k_of_z(zh, q0) for zh in orbit.xi_hat)
    two_i = 2 * ctx.i
    if ctx.batch is None:
        return WeightConstants(tuple(ctx.log(a) for a in orbit.A_minus_xihat), lam, two_k,
                               two_i)
    return WeightConstants((), lam, two_k, two_i, a=tuple(orbit.A_minus_xihat),
                           x_rate=tuple(two_i * lj for lj in lam),
                           t_rate=tuple(-(two_i * (lj * kj)) for lj, kj in zip(lam, two_k)),
                           x_factors={}, t_factors={})


def prepared(orbit: OrbitTable, ctx, make):
    """make(orbit, ctx): a pole module's (x, t)-independent constants,
    computed once per (orbit, context) and kept on the orbit."""
    key = (make, ctx)
    found = orbit.prepared.get(key)
    if found is None:
        found = orbit.prepared[key] = make(orbit, ctx)
    return found


def _shift(lw):
    """max(Re lw, 0); over an array, NaN where lw is not finite, so that the
    point's column, and with it its flag, becomes non-finite."""
    if getattr(lw, "ndim", 0):  # only the numpy context computes over arrays
        import numpy

        return numpy.where(numpy.isfinite(lw), numpy.maximum(lw.real, 0.0), numpy.nan)
    return max(float(lw.real), 0.0)


def _factors(table: dict, rates, coord, ctx):
    """[e^{rate_j coord}], computed once per coordinate value and keyed by
    its Decimal parts (re, im); for a batch of coordinates, one batch per
    rate, gathered from each point's entry."""
    if type(coord) is ctx.batch:
        points = [_factors(table, rates, c, ctx) for c in coord.points()]
        return [ctx.batch.of(column) for column in zip(*points)]
    key = (coord.re, coord.im)
    found = table.get(key)
    if found is None:
        found = table[key] = [ctx.exp(rate * coord) for rate in rates]
    return found


def offsets(wc: WeightConstants, x, t):
    """[x - 2 k_j t]."""
    return [x - two_k * t for two_k in wc.two_k]


def column_weights(wc: WeightConstants, x, t, ctx):
    """(w_j e^{-m_j}, e^{-m_j}) with m_j = max(Re log w_j, 0);
    log w_j = log A_j + 2 i lambda_j (x - 2 k_j t).  The shift needs one float
    per value, so a context with a ``batch`` type, scalar or batch, takes
    m_j = 0 and the factored w_j = A_j e^{2 i lambda_j x} e^{-4 i lambda_j k_j t}
    instead; its exponent range keeps them representable."""
    if ctx.batch is not None:
        ex = _factors(wc.x_factors, wc.x_rate, x, ctx)
        et = _factors(wc.t_factors, wc.t_rate, t, ctx)
        return ([aj * (exj * etj) for aj, exj, etj in zip(wc.a, ex, et)],
                [ctx.convert(1)] * len(wc.a))
    logw = [log_a + wc.two_i * (lam * y)
            for log_a, lam, y in zip(wc.log_a, wc.lam, offsets(wc, x, t))]
    shifts = [_shift(lw) for lw in logw]
    return ([ctx.exp(lw - m) for lw, m in zip(logw, shifts)],
            [ctx.exp(ctx.convert(-m)) for m in shifts])


def evaluate_q_det(build, orbit: OrbitTable, x: float, t: float, ctx=_mathctx.FLOAT):
    """Determinant-ratio form of the field, via the bordered matrix.

    det([[A, b], [r^T, 0]]) / det(A) = -r^T A^{-1} b; the per-column scale
    factors cancel between the two determinants.
    """
    qm = ctx.convert(orbit.q_minus)
    if not orbit.xi:
        return qm
    rows, rhs, r = build(orbit, x, t, ctx)
    bordered = [row + [b] for row, b in zip(rows, rhs)]
    bordered.append(list(r) + [ctx.convert(0)])
    num = linalg.det(bordered)
    den = linalg.det(rows)
    return qm + ctx.i * (num / den)


def evaluate_q(build, orbit: OrbitTable, x: float, t: float, ctx=_mathctx.FLOAT,
               check_condition=True):
    """Scattering-side field q(x, t) under any context, by the generic LU;
    warns when the system is near singular.  x and t may be batches of a
    context that has them, one coordinate per point, for a batch of q without
    the condition check."""
    qm = ctx.convert(orbit.q_minus)
    if not orbit.xi:
        return qm if type(x) is not ctx.batch else ctx.batch.of([qm] * len(x))
    rows, rhs, r = build(orbit, x, t, ctx)
    try:
        fac = linalg.lu_factor(rows)
    except SingularMatrix as exc:
        raise SingularMatrix(f"singular system at (x={x}, t={t}): {exc}") from exc
    y = fac.solve(rhs)
    q = qm - ctx.i * sum(rj * yj for rj, yj in zip(r, y))
    if check_condition:
        cond = linalg.cond_estimate(rows, fac)
        if cond > COND_WARN_THRESHOLD:
            warnings.warn(
                f"condition number {cond:.2e} at (x={x}, t={t})", NearSingularWarning)
    return q


def _columns(values, p):
    """(P, len(values)) array from a list of scalars and (P,) arrays."""
    import numpy
    out = numpy.empty((p, len(values)), dtype=complex)
    for j, value in enumerate(values):
        out[:, j] = value
    return out


def sample_row(build, orbit: OrbitTable, xs, t: float):
    """[(q, flag, cond)] at every (x, t), x in xs, without raising.

    The float systems of the whole row are built as one (P, n, n) stack and
    inverted by one numpy call; each point is factorized once, and from its
    inverse come both q = q_minus - i r^T A^{-1} b and the exact 1-norm
    condition number ||A||_1 ||A^{-1}||_1.  A point is flagged singular when
    its weights, matrix, condition number or q are not finite, or its matrix
    is exactly singular.  Every point's arithmetic is its own, so a row gives
    the same bits as its points one at a time.
    """
    import numpy

    xs = numpy.asarray(xs, dtype=float)
    p = len(xs)
    if not orbit.xi:
        return [(complex(orbit.q_minus), "ok", 1.0)] * p
    with numpy.errstate(all="ignore"):
        try:
            rows, rhs, r = build(orbit, xs, t, _mathctx.numpy_context())
        except (ArithmeticError, ValueError):
            # only x-independent scalar arithmetic can raise here: a weight or
            # pole that left double range takes every point of the row with it
            return [_SINGULAR] * p
        a = numpy.stack([_columns(row, p) for row in rows], axis=1)
        b = _columns(rhs, p)
        rvec = _columns(r, p)
        bad = ~(numpy.isfinite(a).all(axis=(1, 2)) & numpy.isfinite(b).all(axis=1)
                & numpy.isfinite(rvec).all(axis=1))
        a[bad] = numpy.eye(len(rows))
        try:
            inv = numpy.linalg.inv(a)
        except numpy.linalg.LinAlgError:
            if p == 1:
                return [_SINGULAR]
            # an exactly singular matrix fails the whole stack; isolate it
            return [sample_row(build, orbit, [x], t)[0] for x in xs]
        cond = (numpy.abs(a).sum(axis=1).max(axis=1)
                * numpy.abs(inv).sum(axis=1).max(axis=1))
        y = (inv @ b[:, :, None])[:, :, 0]
        q = complex(orbit.q_minus) - 1j * (rvec * y).sum(axis=1)
    bad |= ~(numpy.isfinite(cond) & numpy.isfinite(q))
    return [_SINGULAR if bad_k else
            (q_k, "near_singular" if cond_k > COND_WARN_THRESHOLD else "ok", cond_k)
            for q_k, cond_k, bad_k in zip(q.tolist(), cond.tolist(), bad.tolist())]


def point_sample(build, orbit: OrbitTable, x: float, t: float):
    """(q, flag, cond) at one point without raising: a one-point row."""
    return sample_row(build, orbit, [x], t)[0]
