"""Reflectionless field with simple poles: the 2N x 2N system tying the
residue data to the field value at one point.

Only the assembly lives here; scaling, solve, determinant route and flags
come from the shared ``reconstruct`` core.
"""

from dataclasses import dataclass
from functools import partial

from . import _mathctx, reconstruct
from .spectrum import OrbitTable


@dataclass
class SimplePoleSystem:
    """The column-scaled system G mu = -v at one (x, t), G as rows, scaled
    weights w, so that q = q_minus + i w^T mu."""

    G: list
    w: list
    v: list


def _constants(orbit: OrbitTable, ctx):
    """(weight constants, v_s, xi_s - xi_hat_j): the (x, t)-independent part."""
    v = tuple(-ctx.i * ctx.convert(orbit.q_minus) / xs for xs in orbit.xi)
    d = tuple(tuple(xs - xh for xh in orbit.xi_hat) for xs in orbit.xi)
    return reconstruct.weight_constants(orbit, ctx), v, d


def build(orbit: OrbitTable, x, t, ctx):
    """Rows of G, b = v and r = w, columns log-rescaled.

    G mu = -v and q = q_minus + i w^T mu, so q = q_minus - i w^T G^{-1} v.
    """
    wc, v, d = reconstruct.prepared(orbit, ctx, _constants)
    w, c = reconstruct.column_weights(wc, x, t, ctx)
    rows = []
    for s, ds in enumerate(d):
        row = [wj / dj for wj, dj in zip(w, ds)]
        row[s] = row[s] + v[s] * c[s]
        rows.append(row)
    return rows, v, w


def assemble(orbit: OrbitTable, x: float, t: float, ctx=_mathctx.FLOAT) -> SimplePoleSystem:
    """The system every route solves at (x, t), as a ``SimplePoleSystem``."""
    rows, v, w = build(orbit, x, t, ctx)
    return SimplePoleSystem(rows, w, v)


evaluate_q = partial(reconstruct.evaluate_q, build)
evaluate_q_det = partial(reconstruct.evaluate_q_det, build)
point_sample = partial(reconstruct.point_sample, build)
sample_row = partial(reconstruct.sample_row, build)
