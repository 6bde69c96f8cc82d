import dataclasses
import random

import pytest

from probes import zero_order_estimate
from kundunls.errors import EvaluationAtPole
from kundunls.scattering import (audit, check_symmetries, check_theta_condition,
                                 trace_s11, trace_s22)
from kundunls.spectrum import PoleOrder, derive_orbit


def random_offcontour_z(rng, q0=1.0):
    while True:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) > 0.1 and abs(abs(z) - q0) > 1e-3 and abs(z.imag) > 1e-3:
            return z


def test_s11_vanishes_at_eigenvalue(fig2a):
    orbit = derive_orbit(fig2a)
    assert abs(trace_s11(orbit, 1.5j)) == 0


def test_product_identity_at_seeded_points(fig2a, fig4a, fig7a):
    rng = random.Random(2718)
    for cfg in (fig2a, fig4a, fig7a):
        orbit = derive_orbit(cfg)
        for _ in range(100):
            z = random_offcontour_z(rng)
            assert abs(trace_s11(orbit, z) * trace_s22(orbit, z) - 1) <= 1e-12


def test_conjugation_symmetry(fig4a):
    orbit = derive_orbit(fig4a)
    rng = random.Random(161)
    for _ in range(50):
        z = random_offcontour_z(rng)
        lhs = trace_s11(orbit, z.conjugate()).conjugate()
        rhs = trace_s22(orbit, z)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_evaluation_at_pole_raises(fig2a):
    orbit = derive_orbit(fig2a)
    with pytest.raises(EvaluationAtPole):
        trace_s11(orbit, -1.5j)  # conjugate eigenvalue is a pole of s11
    with pytest.raises(EvaluationAtPole):
        trace_s22(orbit, 1.5j)


def test_zero_order_matches_pole_order(fig2a, fig4a, fig7a):
    for cfg, want in ((fig2a, 1.0), (fig4a, 1.0), (fig7a, 2.0)):
        orbit = derive_orbit(cfg)
        for zn in orbit.canonical_z:
            assert abs(zero_order_estimate(orbit, zn) - want) < 0.01


def test_z_to_zero_limit_reduces_to_eigenvalue_phases(fig4a):
    # s11(z) -> prod (z_n^*/z_n)^m as z -> 0, which carries the same phase
    # information as the boundary-value condition
    orbit = derive_orbit(fig4a)
    tiny = trace_s11(orbit, 1e-8 + 1e-8j)
    expect = 1 + 0j
    for zn in orbit.canonical_z:
        expect *= (zn / zn.conjugate()) ** 2
    assert abs(tiny - expect) < 1e-6


def test_theta_condition_passes_by_construction(fig2a, fig4a, fig7a):
    for cfg in (fig2a, fig4a, fig7a):
        diag = check_theta_condition(derive_orbit(cfg))
        assert diag.ok and diag.value <= 1e-12


def test_theta_condition_catches_corrupted_q_plus(fig4a):
    import cmath
    orbit = derive_orbit(fig4a)
    bad = dataclasses.replace(orbit, q_plus=orbit.q_plus * cmath.exp(0.1j))
    diag = check_theta_condition(bad)
    assert not diag.ok
    assert abs(diag.value - 0.1) < 1e-9


def test_symmetries_pass_on_all_presets():
    from kundunls import io
    for name in io.preset_names():
        try:
            run = io.load_config(name)
        except Exception:
            continue  # the intentionally degenerate preset
        orbit = derive_orbit(run.cfg)
        for diag in check_symmetries(orbit):
            assert diag.ok, (name, diag)


def test_symmetries_catch_single_constant_corruption(fig4a):
    orbit = derive_orbit(fig4a)
    tampered = list(orbit.A_minus_xihat)
    tampered[0] *= 2
    bad = dataclasses.replace(orbit, A_minus_xihat=tuple(tampered))
    diags = {d.code: d for d in check_symmetries(bad)}
    assert not diags["NormingChainFirst"].ok
    assert abs(diags["NormingChainFirst"].value - 0.5) < 0.01
    assert diags["NormingChainConjugate"].ok


def test_audit_names_the_one_broken_relation(fig4a):
    orbit = derive_orbit(fig4a)
    tampered = list(orbit.A_minus_xihat)
    tampered[0] *= 2
    bad = dataclasses.replace(orbit, A_minus_xihat=tuple(tampered))
    diags = audit(bad, seed=3)
    assert [d.code for d in diags] == [
        "ThetaCondition", "MirrorPoints", "NormingChainFirst",
        "NormingChainConjugate", "TraceProduct"]
    assert [d.code for d in diags if not d.ok] == ["NormingChainFirst"]
    assert all(d.ok for d in audit(orbit, seed=3))


def test_double_pole_audit_adds_the_derivative_chains(fig7a):
    diags = audit(derive_orbit(fig7a), seed=3)
    assert [d.code for d in diags] == [
        "ThetaCondition", "MirrorPoints", "NormingChainFirst",
        "NormingChainConjugate", "DerivativeChainShift",
        "DerivativeChainConjugate", "TraceProduct"]
    assert all(d.ok for d in diags)


def test_double_symmetries_catch_derivative_corruption(fig7a):
    orbit = derive_orbit(fig7a)
    tampered = list(orbit.B_minus_xihat)
    tampered[1] += 1
    bad = dataclasses.replace(orbit, B_minus_xihat=tuple(tampered))
    diags = {d.code: d for d in check_symmetries(bad)}
    assert not diags["DerivativeChainConjugate"].ok
    assert diags["DerivativeChainShift"].ok
