"""Reflectionless field with double poles: the 4N x 4N block system coupling
the mirror-point unknowns and their z-derivatives.

Assembly follows the derivation chain (symmetry relation differentiated in
z), not the typeset block formulas, whose hats are inconsistent; the
determinant form exists only as a cross-check.
"""

from dataclasses import dataclass
from functools import partial

from . import _mathctx, reconstruct
from .spectrum import OrbitTable
from .uniformization import theta_prime


@dataclass
class DoublePoleSystem:
    """Block system H (mu, mu') = rhs at one (x, t); H is a list of rows."""

    H: list
    rhs: list
    Cn_hat_weight: list  # A_minus[xi_hat_n] e^{2 i theta(xi_hat_n)}
    Dn_hat: list


def _d_hats(orbit: OrbitTable, x, t, ctx):
    return [bm + 2 * ctx.i * theta_prime(x, t, zh, orbit.Q0)
            for bm, zh in zip(orbit.B_minus_xihat, orbit.xi_hat)]


def build(orbit: OrbitTable, x, t, ctx, scaled=True):
    """Rows and rhs of the block system, and r = (w D_hat, w).

    Columns are optionally log-rescaled.  q = q_minus - s i sum_n w_n (mu'_n
    + D_hat_n mu_n), which is q_minus - s i r^T y.
    """
    qm = ctx.convert(orbit.q_minus)
    q0sq = orbit.Q0 ** 2
    xi, xih = orbit.xi, orbit.xi_hat
    n = len(xi)
    wsc, csc = reconstruct.column_weights(orbit, x, t, ctx, scaled)
    dh = _d_hats(orbit, x, t, ctx)

    rows = []
    rhs = []
    for s in range(n):
        row_mu = []
        row_mup = []
        for j in range(n):
            d = xi[s] - xih[j]
            c = wsc[j] / d
            row_mu.append(c * (dh[j] + 1 / d)
                          - (ctx.i * qm / xi[s]) * csc[j] * (s == j))
            row_mup.append(c)
        rows.append(row_mu + row_mup)
        rhs.append(-ctx.i * qm / xi[s])
    for s in range(n):
        row_mu = []
        row_mup = []
        for j in range(n):
            d = xi[s] - xih[j]
            c = wsc[j] / d
            row_mu.append((c / d) * (dh[j] + 2 / d)
                          - (ctx.i * qm / xi[s] ** 2) * csc[j] * (s == j))
            row_mup.append(c / d + (ctx.i * q0sq * qm / xi[s] ** 3) * csc[j] * (s == j))
        rows.append(row_mu + row_mup)
        rhs.append(-ctx.i * qm / xi[s] ** 2)
    return rows, rhs, [wj * dj for wj, dj in zip(wsc, dh)] + wsc


def assemble(orbit: OrbitTable, x: float, t: float, ctx=_mathctx.FLOAT) -> DoublePoleSystem:
    """Literal (unscaled) block system; valid while the weights are representable."""
    rows, rhs, r = build(orbit, x, t, ctx, scaled=False)
    return DoublePoleSystem(rows, rhs, r[len(orbit.xi):], _d_hats(orbit, x, t, ctx))


evaluate_q = partial(reconstruct.evaluate_q, build)
evaluate_q_det = partial(reconstruct.evaluate_q_det, build)
point_sample = partial(reconstruct.point_sample, build)
sample_row = partial(reconstruct.sample_row, build)
