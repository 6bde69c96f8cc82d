"""Reflectionless field with double poles: the 4N x 4N block system coupling
the mirror-point unknowns and their z-derivatives.

Assembly follows the derivation chain (symmetry relation differentiated in
z), not the typeset block formulas, whose hats are inconsistent; the
determinant form exists only as a cross-check.
"""

from dataclasses import dataclass
from functools import partial

from . import reconstruct
from .spectrum import OrbitTable
from .uniformization import k_prime, lambda_of_z, lambda_prime


@dataclass(frozen=True)
class _Constants:
    """The (x, t)-independent part of the block system in one context."""

    weights: reconstruct.WeightConstants
    d: tuple  # xi_s - xi_hat_j
    inv_d: tuple  # 1 / d
    two_d: tuple  # 2 / d
    lam_p: tuple  # lambda'(xi_hat_j)
    two_lam_kp: tuple  # 2 lambda(xi_hat_j) k'(xi_hat_j)
    diag: tuple  # per s: i q_-/xi_s, i q_-/xi_s^2, i Q0^2 q_-/xi_s^3
    rhs: tuple


def _constants(orbit: OrbitTable, ctx) -> _Constants:
    qm = ctx.convert(orbit.q_minus)
    q0 = orbit.Q0
    q0sq = q0 ** 2
    xi, xih = orbit.xi, orbit.xi_hat
    d = tuple(tuple(xs - xh for xh in xih) for xs in xi)
    return _Constants(
        weights=reconstruct.weight_constants(orbit, ctx),
        d=d,
        inv_d=tuple(tuple(1 / dj for dj in ds) for ds in d),
        two_d=tuple(tuple(2 / dj for dj in ds) for ds in d),
        lam_p=tuple(lambda_prime(zh, q0) for zh in xih),
        two_lam_kp=tuple(2 * lambda_of_z(zh, q0) * k_prime(zh, q0) for zh in xih),
        diag=tuple((ctx.i * qm / xs, ctx.i * qm / xs ** 2, ctx.i * q0sq * qm / xs ** 3)
                   for xs in xi),
        rhs=tuple([-ctx.i * qm / xs for xs in xi] + [-ctx.i * qm / xs ** 2 for xs in xi]),
    )


def build(orbit: OrbitTable, x, t, ctx):
    """Rows and rhs of the block system, and r = (w D_hat, w).

    Columns are log-rescaled.  q = q_minus - i sum_n w_n (mu'_n + D_hat_n
    mu_n), which is q_minus - i r^T y.
    """
    const = reconstruct.prepared(orbit, ctx, _constants)
    w, csc = reconstruct.column_weights(const.weights, x, t, ctx)
    two_i = const.weights.two_i
    dh = [bm + two_i * (lp * y - lk * t)
          for bm, lp, lk, y in zip(orbit.B_minus_xihat, const.lam_p, const.two_lam_kp,
                                   reconstruct.offsets(const.weights, x, t))]
    top, bottom = [], []
    for s, (ds, inv_ds, two_ds, (k1, k2, k3)) in enumerate(
            zip(const.d, const.inv_d, const.two_d, const.diag)):
        c = [wj / dj for wj, dj in zip(w, ds)]
        cd = [cj / dj for cj, dj in zip(c, ds)]
        mu = [cj * (dhj + ij) for cj, dhj, ij in zip(c, dh, inv_ds)]
        mu[s] = mu[s] - k1 * csc[s]
        mu2 = [cdj * (dhj + tj) for cdj, dhj, tj in zip(cd, dh, two_ds)]
        mu2[s] = mu2[s] - k2 * csc[s]
        mup2 = list(cd)
        mup2[s] = cd[s] + k3 * csc[s]
        top.append(mu + c)
        bottom.append(mu2 + mup2)
    return top + bottom, const.rhs, [wj * dj for wj, dj in zip(w, dh)] + w


evaluate_q = partial(reconstruct.evaluate_q, build)
evaluate_q_det = partial(reconstruct.evaluate_q_det, build)
point_sample = partial(reconstruct.point_sample, build)
sample_row = partial(reconstruct.sample_row, build)
