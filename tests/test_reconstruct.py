import cmath
import random
import sys
import warnings

import numpy
import pytest

from kundunls import _mathctx, double_pole, fields, io, linalg, reconstruct, simple_pole
from kundunls.errors import NearSingularWarning, SingularMatrix
from kundunls.spectrum import EigenEntry, PoleOrder, SpectralConfig, derive_orbit


def test_point_sample_factorizes_once_per_point(monkeypatch, fig2a, fig4a, fig7a):
    shapes = []
    real_inv = numpy.linalg.inv

    def counted(a):
        shapes.append(a.shape)
        return real_inv(a)

    def forbidden(*args, **kwargs):
        raise AssertionError("the batched route factorized by another routine")

    monkeypatch.setattr(numpy.linalg, "inv", counted)
    for name in ("solve", "det", "slogdet", "lstsq", "pinv"):
        monkeypatch.setattr(numpy.linalg, name, forbidden)
    # patch every module that bound the generic LU, not only linalg itself
    for name, mod in list(sys.modules.items()):
        if name.startswith("kundunls") and getattr(mod, "lu_factor", None) is linalg.lu_factor:
            monkeypatch.setattr(mod, "lu_factor", forbidden)
    points = [(0.0, 0.0), (1.3, -0.4), (-2.5, 0.9)]
    xs = [-2.5, 0.0, 1.3, 4.0, 7.5]
    for cfg, module, n in ((fig2a, simple_pole, 2), (fig4a, simple_pole, 4),
                           (fig7a, double_pole, 4)):
        orbit = derive_orbit(cfg)
        shapes.clear()
        for x, t in points:
            assert module.point_sample(orbit, x, t)[1] == "ok"
        assert shapes == [(1, n, n)] * len(points)
        shapes.clear()
        for t in (-0.4, 0.9):
            assert all(flag == "ok" for _, flag, _ in module.sample_row(orbit, xs, t))
        assert shapes == [(len(xs), n, n)] * 2


def _scalar_sample(module, orbit, x, t):
    """(q, flag) by the generic LU of ``evaluate_q``, flagged as the grid flags."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NearSingularWarning)
        try:
            q = module.evaluate_q(orbit, x, t)
        except (SingularMatrix, ArithmeticError, ValueError):
            return None, "singular"
    if not cmath.isfinite(q):
        return None, "singular"
    near = any(issubclass(w.category, NearSingularWarning) for w in caught)
    return q, "near_singular" if near else "ok"


@pytest.mark.parametrize("name", ["fig2a", "fig4a", "fig7a", "fig4d", "fig7d"])
def test_sample_row_matches_generic_lu(name):
    """Seeded grid points: same flags, and q within 1e-12 on ok points (within
    1e-7 where the condition number passes 1e8; fig7d has no other points)."""
    run = io.load_config(name)
    g = run.grid
    xs = fields.linspace(g["x_min"], g["x_max"], g["nx"])
    ts = fields.linspace(g["t_min"], g["t_max"], g["nt"])
    orbit = derive_orbit(run.cfg)
    module = fields.POLE_MODULES[run.cfg.pole_order]
    rng = random.Random(20261018)
    tolerance = {"ok": 1e-12, "near_singular": 1e-7}
    for t in rng.sample(ts, 6):
        row_xs = sorted(rng.sample(xs, 25))
        for x, (q, flag, cond) in zip(row_xs, module.sample_row(orbit, row_xs, t)):
            q_ref, flag_ref = _scalar_sample(module, orbit, x, t)
            assert flag == flag_ref, (x, t, cond)
            assert abs(q - q_ref) <= tolerance[flag] * max(1.0, abs(q_ref)), (x, t)


EDGE_Z = [1e-300j, 695923947298 + 1.1964050115783906e-300j]


@pytest.mark.parametrize("order", [PoleOrder.SIMPLE, PoleOrder.DOUBLE])
@pytest.mark.parametrize("z", EDGE_Z, ids=["tiny-z", "near-real-z"])
def test_sample_row_flags_unrepresentable_systems_singular(order, z):
    """A weight or pole out of double range flags every point singular, as
    the generic LU route does, whether the row is one batch or single points."""
    cfg = SpectralConfig(1 + 0j, 0.5, 0.0, order, (EigenEntry(z, 1 + 0j, 1 + 0j),))
    orbit = derive_orbit(cfg)
    module = fields.POLE_MODULES[order]
    xs = [-1.0, 0.0, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (-0.5, 0.0, 0.5):
            assert [f for _, f, _ in module.sample_row(orbit, xs, t)] == ["singular"] * 3
            assert [module.point_sample(orbit, x, t)[1] for x in xs] == ["singular"] * 3
            assert [_scalar_sample(module, orbit, x, t)[1] for x in xs] == ["singular"] * 3
        grid = fields.evaluate_grid(cfg, orbit, xs, [-0.5, 0.0, 0.5])
    assert grid.flags == [["singular"] * 3] * 3


def _singular_at_one(orbit, x, t, ctx):
    """A stand-in for a pole module's build: a 2 x 2 system that is exactly
    singular at x = 1."""
    return [[x, 1], [1, 1]], [1, 0], [1, 1]


def test_an_exactly_singular_system_is_flagged_alone(fig2a):
    """Where one matrix of a row is exactly singular, numpy cannot invert the
    row's stack: that point is flagged singular, every other gets the bits of
    its own one-point row, and evaluate_q names the point."""
    orbit = derive_orbit(fig2a)
    xs = [-2.0, 0.5, 1.0, 3.0]
    row = reconstruct.sample_row(_singular_at_one, orbit, xs, 0.25)
    assert repr(row[2]) == repr((complex("nan+nanj"), "singular", float("inf")))
    assert [repr(s) for s in row] == [
        repr(reconstruct.sample_row(_singular_at_one, orbit, [x], 0.25)[0]) for x in xs]
    assert [flag for _, flag, _ in row] == ["ok", "ok", "singular", "ok"]
    with pytest.raises(SingularMatrix, match=r"^singular system at \(x=1\.0, t=0\.25\)"):
        reconstruct.evaluate_q(_singular_at_one, orbit, 1.0, 0.25)


def test_grid_flags_tiny_epsilon_singular_for_both_orders(fig2a, fig7a):
    for base in (fig2a, fig7a):
        tiny = SpectralConfig(base.q_minus, 1e-320, 0.0, base.pole_order, base.eigenvalues)
        grid = fields.evaluate_grid(tiny, derive_orbit(tiny), [-1.0, 0.0, 1.0],
                                    [-0.5, 0.5])
        assert grid.flags == [["singular"] * 3] * 2


@pytest.mark.parametrize("name", ["fig4a", "fig7a", "fig4d"])
def test_sample_row_is_bit_identical_to_single_points(name):
    run = io.load_config(name)
    g = run.grid
    xs = fields.linspace(g["x_min"], g["x_max"], g["nx"])
    orbit = derive_orbit(run.cfg)
    module = fields.POLE_MODULES[run.cfg.pole_order]
    for t in (g["t_min"], 0.37, g["t_max"]):
        row = module.sample_row(orbit, xs, t)
        assert [repr(s) for s in row] == [repr(module.point_sample(orbit, x, t)) for x in xs]


def test_grid_rows_share_one_numpy_context(fig2a):
    """Every t row runs in the one numpy context, so the orbit keeps one entry
    of prepared constants, not one per row."""
    orbit = derive_orbit(fig2a)
    fields.evaluate_grid(fig2a, orbit, fields.linspace(-2, 2, 5), fields.linspace(-1, 1, 4))
    assert [ctx for _, ctx in orbit.prepared] == [_mathctx.numpy_context()]
