import random

import oracles
from kundunls import _mathctx
from kundunls.fields import evaluate_grid
from kundunls.linalg import lu_factor
from kundunls.simple_pole import build, evaluate_q, evaluate_q_det, point_sample
from kundunls.spectrum import EigenEntry, PoleOrder, SpectralConfig, derive_orbit

FIG2A_Q00 = 1.0 + 0.8248730964467005j  # frozen after the first verified build


def test_assembled_system_at_origin(fig2a):
    orbit = derive_orbit(fig2a)
    G, v, w = build(orbit, 0.0, 0.0, _mathctx.FLOAT)
    assert [len(row) for row in G] == [2, 2]
    # the phase vanishes at the origin, so the weights are bare constants
    for wj, aj in zip(w, orbit.A_minus_xihat):
        assert abs(wj - aj) < 1e-15
    # v = (-i/xi_1, -i/xi_2) with xi = (1.5i, -(2/3)i), so v = (-2/3, +3/2)
    assert abs(v[0] - (-2 / 3)) < 1e-15
    assert abs(v[1] - (3 / 2)) < 1e-15


def test_assembled_entries_match_oracle_formulas(fig4a):
    import mpmath
    orbit = derive_orbit(fig4a)
    G, _, _ = build(orbit, 1.0, 0.5, _mathctx.FLOAT)
    # column j is scaled by 1 / max(|w_j|, 1)
    with mpmath.workdps(40):
        for s in range(4):
            for j in range(4):
                th = oracles._theta(1.0, 0.5, mpmath.mpc(orbit.xi_hat[j]), 1.0)
                w = mpmath.mpc(orbit.A_minus_xihat[j]) * mpmath.exp(2j * th)
                ref = w / (mpmath.mpc(orbit.xi[s]) - mpmath.mpc(orbit.xi_hat[j]))
                if s == j:
                    ref += -1j / mpmath.mpc(orbit.xi[s])
                ref = complex(ref / max(abs(w), 1))
                got = G[s][j]
                assert abs(got - ref) <= 1e-12 * (1 + abs(ref))


def test_background_without_spectrum(background_only):
    orbit = derive_orbit(background_only)
    for x, t in [(0.0, 0.0), (3.2, -1.1), (-40.0, 7.0)]:
        assert evaluate_q(orbit, x, t) == background_only.q_minus


def test_golden_value_at_origin(fig2a):
    orbit = derive_orbit(fig2a)
    q = evaluate_q(orbit, 0.0, 0.0)
    assert abs(q - FIG2A_Q00) < 1e-12
    # independent high-precision route
    ref = complex(oracles.simple_q(1, [1.5j], [1], 0.0, 0.0))
    assert abs(q - ref) < 1e-12


def test_matches_oracle_at_random_points(fig4a):
    rng = random.Random(42)
    orbit = derive_orbit(fig4a)
    for _ in range(25):
        x, t = rng.uniform(-4, 4), rng.uniform(-2, 2)
        got = evaluate_q(orbit, x, t, check_condition=False)
        ref = complex(oracles.simple_q(1, [0.2 + 2j, 1 + 1j], [1, 1], x, t))
        assert abs(got - ref) <= 1e-10 * (1 + abs(ref))


def test_determinant_form_agrees_with_linear_form(fig2a, fig4a):
    rng = random.Random(777)
    for cfg in (fig2a, fig4a):
        orbit = derive_orbit(cfg)
        for _ in range(50):
            x, t = rng.uniform(-8, 8), rng.uniform(-4, 4)
            qs = evaluate_q(orbit, x, t, check_condition=False)
            qd = evaluate_q_det(orbit, x, t)
            assert abs(qd - qs) <= 1e-9 * (1 + abs(qs))


def test_solve_system_unknowns_reproduce_field(fig2a):
    orbit = derive_orbit(fig2a)
    G, v, w = build(orbit, 0.4, -0.2, _mathctx.FLOAT)
    mu = lu_factor(G).solve([-vi for vi in v])
    q = orbit.q_minus + 1j * sum(wj * m for wj, m in zip(w, mu))
    assert abs(q - evaluate_q(orbit, 0.4, -0.2)) < 1e-12


def test_background_recovery_with_tiny_norming_constant():
    cfg = SpectralConfig(1 + 0j, 0.5, 0.0, PoleOrder.SIMPLE,
                         (EigenEntry(1.5j, 1e-30 + 0j),))
    orbit = derive_orbit(cfg)
    for x in (-3.0, 0.0, 2.5):
        assert abs(evaluate_q(orbit, x, 0.1) - 1) < 1e-12


def test_gauge_scaling(fig2a):
    import cmath
    orbit = derive_orbit(fig2a)
    u = evaluate_grid(fig2a, orbit, [0.3], [0.3]).u_values[0][0]
    q = evaluate_q(orbit, 0.3, 0.3)
    assert abs(u - q / 0.5) < 1e-13
    rotated = SpectralConfig(1 + 0j, 0.5, 1.2, PoleOrder.SIMPLE,
                             fig2a.eigenvalues)
    u2 = evaluate_grid(rotated, derive_orbit(rotated), [0.3], [0.3]).u_values[0][0]
    assert abs(u2 - u * cmath.exp(-1.2j)) < 1e-13


def test_far_field_stays_finite_despite_huge_phases(fig2a):
    orbit = derive_orbit(fig2a)
    for x in (-500.0, 500.0, 2000.0):
        q = evaluate_q(orbit, x, 3.0, check_condition=False)
        assert abs(q - 1) < 1e-8  # decayed to the background, no overflow


def test_mpmath_context_agrees_with_float(fig2a):
    ctx = _mathctx.mp_context(30)
    orbit_f = derive_orbit(fig2a)
    orbit_m = derive_orbit(fig2a, ctx=ctx)
    qf = evaluate_q(orbit_f, 0.8, -0.6)
    qm = evaluate_q(orbit_m, 0.8, -0.6, ctx=ctx, check_condition=False)
    assert abs(qf - complex(qm)) < 1e-12


def test_point_sample_never_raises(fig2a):
    q, flag, cond = point_sample(derive_orbit(fig2a), 0.0, 0.0)
    assert flag == "ok" and cond >= 1.0
    # z this close to the real axis makes a Cauchy denominator round to zero
    edge = SpectralConfig(1 + 0j, 0.5, 0.0, PoleOrder.SIMPLE, (EigenEntry(
        695923947298 + 1.1964050115783906e-300j, 1 + 0j),))
    assert point_sample(derive_orbit(edge), 0.0, 0.0)[1] == "singular"


def test_grid_evaluation_matches_pointwise(fig2a):
    orbit = derive_orbit(fig2a)
    grid = evaluate_grid(fig2a, orbit, [-1.0, 0.0, 1.0], [-0.5, 0.5])
    assert len(grid.q_values) == 2 and len(grid.q_values[0]) == 3
    for i, t in enumerate(grid.ts):
        for j, x in enumerate(grid.xs):
            assert abs(grid.q_values[i][j] - evaluate_q(orbit, x, t)) < 1e-13
            assert abs(grid.u_values[i][j] - grid.q_values[i][j] / 0.5) < 1e-13


def test_grid_flags_non_finite_u_singular(fig2a):
    # epsilon passes validation, but u = q e^{-i gamma0} / epsilon overflows
    tiny = SpectralConfig(1 + 0j, 1e-320, 0.0, PoleOrder.SIMPLE, fig2a.eigenvalues)
    grid = evaluate_grid(tiny, derive_orbit(tiny), [-1.0, 0.0, 1.0], [0.5])
    assert grid.flags == [["singular"] * 3]
