import cmath
import dataclasses
import random

import pytest

from kundunls.errors import ConfigValidationError, ContourEigenvalue
from kundunls.spectrum import (EigenEntry, PoleOrder, SpectralConfig,
                               canonicalize_eigenvalue, derive_orbit)


def _rejected_codes(*args):
    """The diagnostic codes that constructing SpectralConfig(*args) raises."""
    with pytest.raises(ConfigValidationError) as err:
        SpectralConfig(*args)
    return [d.code for d in err.value.diagnostics]


def test_canonicalization_picks_upper_exterior_member():
    rng = random.Random(314)
    for _ in range(300):
        q0 = rng.uniform(0.3, 2.0)
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z.imag) < 1e-3 or abs(abs(z) - q0) < 1e-3:
            continue
        zc = canonicalize_eigenvalue(z, q0)
        assert zc.imag > 0 and abs(zc) > q0
        # member of the four-point orbit
        orbit = {z, z.conjugate(), -q0 ** 2 / z, -(q0 ** 2) / z.conjugate()}
        assert any(abs(zc - m) < 1e-12 for m in orbit)
        # idempotent
        assert canonicalize_eigenvalue(zc, q0) == zc


def test_contour_eigenvalue_rejected():
    with pytest.raises(ContourEigenvalue):
        canonicalize_eigenvalue(2.0 + 0j, 1.0)
    with pytest.raises(ContourEigenvalue):
        canonicalize_eigenvalue(cmath.exp(0.7j), 1.0)


def test_orbit_shape_and_mirrors(fig4a):
    orbit = derive_orbit(fig4a)
    assert len(orbit.xi) == 4 and len(orbit.xi_hat) == 4
    for s, h in zip(orbit.xi, orbit.xi_hat):
        assert abs(h + orbit.Q0 ** 2 / s) < 1e-14


def test_q_plus_modulus_preserved(fig4a):
    qp = derive_orbit(fig4a).q_plus
    assert abs(abs(qp) - abs(fig4a.q_minus)) < 1e-14


def test_q_plus_trivial_phase_for_imaginary_eigenvalue(fig2a):
    # arg z = pi/2, four times that is 2 pi: the boundary values coincide
    qp = derive_orbit(fig2a).q_plus
    assert abs(qp - fig2a.q_minus) < 1e-12


def test_duplicate_eigenvalue_rejected_with_hint():
    with pytest.raises(ConfigValidationError, match=r"DuplicateEigenvalue: .*"
                       r"\[use double-pole mode\]"):
        SpectralConfig(1 + 0j, 0.5, 0.0, PoleOrder.SIMPLE,
                       (EigenEntry(1.5j, 1 + 0j), EigenEntry(1.5j, 1 + 0j)))


def test_duplicate_detected_across_orbit_members():
    # 0.5j canonicalizes onto 2j, so the pair collides after canonicalization
    assert _rejected_codes(1 + 0j, 0.5, 0.0, PoleOrder.SIMPLE,
                           (EigenEntry(0.5j, 1 + 0j), EigenEntry(2j, 1 + 0j))
                           ) == ["DuplicateEigenvalue"]


def test_validation_diagnostics():
    assert _rejected_codes(0j, 0.0, 0.0, PoleOrder.SIMPLE, ()) == [
        "EpsilonZero", "QMinusZero"]
    assert _rejected_codes(1 + 0j, 0.5, 0.0, PoleOrder.SIMPLE,
                           (EigenEntry(1.5j, 0j),)) == ["NormingConstantZero"]


def test_pole_order_must_be_a_pole_order():
    """A name in place of the enum is rejected before it can pick a solver."""
    assert _rejected_codes(1 + 0j, 0.5, 0.0, "double",
                           (EigenEntry(1.5j, 1 + 0j, 1 + 0j),)) == ["PoleOrder"]


@pytest.mark.parametrize("args, code", [
    ((1 + 0j, "0.5", 0.0, PoleOrder.SIMPLE), "BadNumber"),
    ((1 + 0j, True, 0.0, PoleOrder.SIMPLE), "BadNumber"),
    ((1 + 0j, 0.5, None, PoleOrder.SIMPLE), "BadNumber"),
    ((1 + 0j, 0.5, 0.5j, PoleOrder.SIMPLE), "BadNumber"),
    (("1", 0.5, 0.0, PoleOrder.SIMPLE), "BadComplex"),
    ((1 + 0j, 0.5, 0.0, PoleOrder.SIMPLE, (EigenEntry("1.5j", 1 + 0j),)), "BadComplex"),
    ((1 + 0j, 0.5, 0.0, PoleOrder.DOUBLE, (EigenEntry(1.5j, 1 + 0j, [1, 0]),)),
     "BadComplex"),
    ((1 + 0j, 0.5, 0.0, PoleOrder.SIMPLE, (2j,)), "BadEigenvalues"),
    ((1 + 0j, 0.5, 0.0, PoleOrder.SIMPLE, None), "BadEigenvalues"),
], ids=["epsilon-str", "epsilon-bool", "gamma0-none", "gamma0-complex", "q_minus-str",
        "z-str", "B_plus-list", "bare-eigenvalue", "eigenvalues-none"])
def test_wrong_type_is_a_named_diagnostic(args, code):
    """A field of the wrong type gets the code io gives the same JSON value,
    not an AttributeError from the checks that assume numbers."""
    assert _rejected_codes(*args) == [code]


def test_replaced_config_is_checked_again(fig2a):
    with pytest.raises(ConfigValidationError) as err:
        dataclasses.replace(fig2a, epsilon=0.0)
    assert [d.code for d in err.value.diagnostics] == ["EpsilonZero"]


def test_convention_resolution(fig2a):
    """Convention "a" is the only one; "auto" names it, and any other raises."""
    assert derive_orbit(fig2a, "auto") == derive_orbit(fig2a, "a") == derive_orbit(fig2a)
    for bad in ("b", "c", None):
        with pytest.raises(ValueError):
            derive_orbit(fig2a, bad)


def test_double_orbit_carries_derivative_constants(fig7a):
    orbit = derive_orbit(fig7a)
    assert len(orbit.A_minus_xihat) == 2 and len(orbit.B_minus_xihat) == 2
    z = 1.5j
    bshift = (z * z / 1.0) * ((1 + 0j) - 2 / z)
    assert abs(orbit.B_minus_xihat[0] - bshift) < 1e-14
    assert abs(orbit.B_minus_xihat[1] - (1 - 0j)) < 1e-14


def test_simple_orbit_has_no_derivative_constants(fig2a):
    orbit = derive_orbit(fig2a)
    assert len(orbit.A_minus_xihat) == 2 and orbit.B_minus_xihat == ()


def test_eigenvalue_canonicalized_inside_orbit_table():
    cfg = SpectralConfig(1 + 0j, 0.5, 0.0, PoleOrder.SIMPLE,
                         (EigenEntry(-1.5j, 1 + 0j),))  # lower half-plane input
    orbit = derive_orbit(cfg)
    assert orbit.canonical_z == (1.5j,)
