import math
import random

import mpmath

import oracles
from kundunls import _mathctx
from kundunls.double_pole import build, evaluate_q, evaluate_q_det, point_sample
from kundunls.fields import evaluate_grid
from kundunls.linalg import lu_factor
from kundunls.simple_pole import evaluate_q as simple_evaluate_q
from kundunls.spectrum import (EigenEntry, PoleOrder, SpectralConfig,
                               derive_orbit)

FIG7A_Q00 = 0.30864303513483424 + 0.5963640002707344j  # frozen golden value


def test_system_dimensions_and_origin_simplification(fig7a):
    orbit = derive_orbit(fig7a)
    rows, _, r = build(orbit, 0.0, 0.0, _mathctx.FLOAT)
    assert [len(row) for row in rows] == [4] * 4
    # theta(0,0,.) = 0: the weights reduce to the bare norming constants
    for w, a in zip(r[2 * orbit.N:], orbit.A_minus_xihat):
        assert abs(w - a) < 1e-15


def test_assembled_entries_match_direct_formulas(fig7a):
    orbit = derive_orbit(fig7a)
    rows, _, _ = build(orbit, 1.0, 0.5, _mathctx.FLOAT)
    # columns j and 2 + j are scaled by 1 / max(|w_j|, 1)
    with mpmath.workdps(40):
        q0 = 1.0
        for s in range(2):
            for j in range(2):
                zh = mpmath.mpc(orbit.xi_hat[j])
                w = mpmath.mpc(orbit.A_minus_xihat[j]) \
                    * mpmath.exp(2j * oracles._theta(1.0, 0.5, zh, q0))
                dhat = mpmath.mpc(orbit.B_minus_xihat[j]) \
                    + 2j * oracles._theta_prime(1.0, 0.5, zh, q0)
                d = mpmath.mpc(orbit.xi[s]) - zh
                c = w / d
                scale = 1 / max(abs(w), 1)
                blocks = {
                    (s, j): c * (dhat + 1 / d) - (1j / mpmath.mpc(orbit.xi[s])) * (s == j),
                    (s, 2 + j): c,
                    (2 + s, j): (c / d) * (dhat + 2 / d)
                    - (1j / mpmath.mpc(orbit.xi[s]) ** 2) * (s == j),
                    (2 + s, 2 + j): c / d + (1j / mpmath.mpc(orbit.xi[s]) ** 3) * (s == j),
                }
                for (r, col), ref in blocks.items():
                    got = rows[r][col]
                    ref = complex(ref * scale)
                    assert abs(got - ref) <= 1e-11 * (1 + abs(ref))


def test_golden_value_at_origin(fig7a):
    orbit = derive_orbit(fig7a)
    q = evaluate_q(orbit, 0.0, 0.0)
    assert abs(q - FIG7A_Q00) < 1e-12
    ref = complex(oracles.double_q(1, [1.5j], [1], [1], 0.0, 0.0))
    assert abs(q - ref) < 1e-12


def test_matches_oracle_at_random_points(fig7a):
    rng = random.Random(1234)
    orbit = derive_orbit(fig7a)
    for _ in range(25):
        x, t = rng.uniform(-3, 3), rng.uniform(-1.5, 1.5)
        got = evaluate_q(orbit, x, t, check_condition=False)
        ref = complex(oracles.double_q(1, [1.5j], [1], [1], x, t))
        assert abs(got - ref) <= 1e-9 * (1 + abs(ref))


def test_determinant_form_agrees_with_linear_form(fig7a):
    rng = random.Random(4321)
    orbit = derive_orbit(fig7a)
    for _ in range(50):
        x, t = rng.uniform(-6, 6), rng.uniform(-3, 3)
        qs = evaluate_q(orbit, x, t, check_condition=False)
        qd = evaluate_q_det(orbit, x, t)
        assert abs(qd - qs) <= 1e-8 * (1 + abs(qs))


def test_solve_system_unknowns_reproduce_field(fig7a):
    orbit = derive_orbit(fig7a)
    rows, rhs, r = build(orbit, 0.4, -0.2, _mathctx.FLOAT)
    y = lu_factor(rows).solve(rhs)
    # r = (w D_hat, w), so r^T y = sum_n w_n (mu'_n + D_hat_n mu_n)
    q = orbit.q_minus - 1j * sum(rj * yj for rj, yj in zip(r, y))
    assert abs(q - evaluate_q(orbit, 0.4, -0.2)) < 1e-12


def test_background_recovery():
    cfg = SpectralConfig(1 + 0j, 0.5, 0.0, PoleOrder.DOUBLE,
                         (EigenEntry(1.5j, 1e-30 + 0j, 0j),))
    orbit = derive_orbit(cfg)
    for x in (-2.0, 0.0, 3.0):
        assert abs(evaluate_q(orbit, x, 0.2) - 1) < 1e-12


def test_pole_merging_limit_has_finite_order():
    # two simple poles z1 and z1(1+delta) with A/delta, -A/delta norming
    # constants approach a double-pole field; Richardson order at least 1
    z1 = 1.5j
    vals = []
    for d in (1e-2, 1e-3, 1e-4):
        A = 1.0 / d
        cfg = SpectralConfig(1 + 0j, 0.5, 0.0, PoleOrder.SIMPLE,
                             (EigenEntry(z1, A + 0j),
                              EigenEntry(z1 * (1 + d), -A + 0j)))
        orbit = derive_orbit(cfg)
        vals.append(simple_evaluate_q(orbit, 0.0, 0.0, check_condition=False))
    d12 = abs(vals[0] - vals[1])
    d23 = abs(vals[1] - vals[2])
    order = math.log(d12 / d23) / math.log(10)
    assert order >= 1.0 - 0.05
    # successive values differ less and less: consistent with a finite limit
    assert d23 < d12 / 5


def test_far_field_phases(fig7a):
    orbit = derive_orbit(fig7a)
    qp = evaluate_q(orbit, 30.0, 0.0, check_condition=False)
    qm = evaluate_q(orbit, -30.0, 0.0, check_condition=False)
    # 8 arg(1.5i) = 4 pi: both tails sit on the same background value
    assert abs(qp - 1) < 1e-8 and abs(qm - 1) < 1e-8


def test_gauge_scaling_and_grid(fig7a):
    orbit = derive_orbit(fig7a)
    u = evaluate_grid(fig7a, orbit, [0.2], [0.1]).u_values[0][0]
    q = evaluate_q(orbit, 0.2, 0.1)
    assert abs(u - q / 0.5) < 1e-13
    grid = evaluate_grid(fig7a, orbit, [-1.0, 1.0], [0.0])
    assert abs(grid.q_values[0][0] - evaluate_q(orbit, -1.0, 0.0)) < 1e-13
    q_s, flag, _ = point_sample(orbit, -1.0, 0.0)
    assert flag == "ok" and abs(q_s - grid.q_values[0][0]) < 1e-15
