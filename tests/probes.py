"""Measurements that only the tests take: peak positions of sampled curves,
the order of a zero of s11 and the background level of the gauge-side
field u; the field of the wrong sign convention, the residual's negative
control; and the CSV of a grid built as one string, the reference for the
streamed writer."""

import dataclasses
import math

from kundunls.io import CSV_HEADER, _fmt
from kundunls.scattering import trace_s11

#: The two relative offsets from z_n of ``zero_order_estimate``'s slope.
ORDER_STEPS = (1e-4, 1e-5)


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


def zero_order_estimate(orbit, zn: complex) -> float:
    """Order of the zero of s11 at zn from the two-scale log-log slope.

    (log|s11(zn(1+h1))| - log|s11(zn(1+h2))|) / (log h1 - log h2) cancels the
    constant prefactor that a single-scale ratio would leave behind.
    """
    h1, h2 = ORDER_STEPS
    f1 = abs(trace_s11(orbit, zn * (1 + h1)))
    f2 = abs(trace_s11(orbit, zn * (1 + h2)))
    return (math.log(f1) - math.log(f2)) / (math.log(h1) - math.log(h2))


def background_u(cfg) -> float:
    """Background amplitude of the gauge-side field u, Q0 / |epsilon|."""
    return cfg.Q0 / abs(cfg.epsilon)


def opposite_sign_evaluator(orbit, evaluate_q):
    """Evaluator q(x, t) of the field read with the other sign on the
    second-symmetry chain, which does not solve the equation.

    That sign negates the first N minus-side norming constants and the
    reconstruction term, so q = 2 q_minus - q', where q' is the field of the
    orbit with those constants negated.  ``evaluate_q`` is the pole module's.
    """
    n = orbit.N
    flipped = dataclasses.replace(orbit, A_minus_xihat=(
        *(-a for a in orbit.A_minus_xihat[:n]), *orbit.A_minus_xihat[n:]))
    twice_qm = 2 * orbit.q_minus

    def evaluator(x, t):
        return twice_qm - evaluate_q(flipped, x, t, check_condition=False)

    return evaluator


def whole_csv(grid) -> str:
    """The CSV text of ``io.write_grid_csv`` built as one string, with every
    field of every point formatted on its own."""
    lines = [CSV_HEADER]
    for i, t in enumerate(grid.ts):
        for j, x in enumerate(grid.xs):
            u = grid.u_values[i][j]
            q = grid.q_values[i][j]
            lines.append(",".join((
                _fmt(x), _fmt(t),
                _fmt(u.real), _fmt(u.imag), _fmt(abs(u)),
                _fmt(q.real), _fmt(q.imag),
                grid.flags[i][j],
            )))
    return "\n".join(lines) + "\n"
