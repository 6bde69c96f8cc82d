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
    """The linear system G mu = -v at one (x, t), G as rows, weights w."""

    G: list
    w: list
    v: list


def build(orbit: OrbitTable, x, t, ctx, scaled=True):
    """Rows of G, b = v and r = w, columns optionally log-rescaled.

    G mu = -v and q = q_minus + s i w^T mu, so q = q_minus - s i w^T G^{-1} v.
    """
    w, c = reconstruct.column_weights(orbit, x, t, ctx, scaled)
    v = [-ctx.i * ctx.convert(orbit.q_minus) / xs for xs in orbit.xi]
    n = len(orbit.xi)
    rows = [
        [w[j] / (orbit.xi[s] - orbit.xi_hat[j]) + (v[s] * c[j] if s == j else 0)
         for j in range(n)]
        for s in range(n)
    ]
    return rows, v, w


def assemble(orbit: OrbitTable, x: float, t: float, ctx=_mathctx.FLOAT) -> SimplePoleSystem:
    """Populate G, w, v literally (no rescaling); valid while the weights are
    representable.  Evaluation routines use the scaled path instead."""
    rows, v, w = build(orbit, x, t, ctx, scaled=False)
    return SimplePoleSystem(rows, w, v)


evaluate_q = partial(reconstruct.evaluate_q, build)
evaluate_q_det = partial(reconstruct.evaluate_q_det, build)
point_sample = partial(reconstruct.point_sample, build)
sample_row = partial(reconstruct.sample_row, build)
