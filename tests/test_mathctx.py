import decimal
import operator

import mpmath
import pytest

from kundunls import _mathctx, reconstruct, simple_pole, verification
from kundunls.spectrum import derive_orbit
from kundunls.verification import _evaluator, pde_residual

DIGITS = verification.RESIDUAL_DPS
DEC = _mathctx.decimal_context(DIGITS)
MP = _mathctx.mp_context(DIGITS)

#: |Im| up to 1e3, zero and negative real parts, a value with 40 digits
ARGUMENTS = [1 + 0j, -1 + 0j, 1j, -1j, 2.5 - 3j, -7.25 + 0.5j, 0.3 + 1000j,
             -0.3 - 999.5j, 40 - 2j, -40 + 3j, 1e-20 + 1j, 0.001 + 0j]
NAN = float("nan")


def _mp(value):
    """A scalar of the decimal context as an mpmath number, digit for digit."""
    return mpmath.mpc(str(value.re), str(value.im))


def _close(got, ref, rel=1e-38):
    with mpmath.workdps(60):
        return abs(_mp(got) - ref) <= rel * abs(ref)


@pytest.mark.parametrize("name", ["exp", "log", "arg"])
def test_transcendentals_match_mpmath(name):
    values = [DEC.convert(z) for z in ARGUMENTS] + [DEC.real(1) / 3 + DEC.i * 7]
    for value in values:
        with mpmath.workdps(60):
            ref = getattr(mpmath, name)(_mp(value))
        assert _close(getattr(DEC, name)(value), ref), (name, value)


@pytest.mark.parametrize("name", ["exp", "log", "arg"])
@pytest.mark.parametrize("z", [complex(NAN, 0), complex(0, NAN), complex(1, NAN)])
def test_transcendentals_carry_nan_as_mpmath_does(name, z):
    got = getattr(DEC, name)(DEC.convert(z))
    ref = mpmath.mpc(getattr(MP, name)(MP.convert(z)))
    assert (got.re.is_nan(), got.im.is_nan()) == (mpmath.isnan(ref.real),
                                                 mpmath.isnan(ref.imag))


OPERANDS = [3, -2.75, 0.1 + 0.2j, decimal.Decimal("1.25")]


@pytest.mark.parametrize("other", OPERANDS, ids=["int", "float", "complex", "Decimal"])
def test_arithmetic_mixes_numbers_exactly(other):
    """Each operand converts exactly, and each result is the exact one rounded
    to 40 digits, on either side of the operator."""
    z = DEC.real(2) / 3 - DEC.i / 7
    with mpmath.workdps(60):
        zm = _mp(z)
        om = mpmath.mpmathify(str(other) if isinstance(other, decimal.Decimal)
                              else other)
        pairs = [(z + other, zm + om), (other + z, om + zm), (z - other, zm - om),
                 (other - z, om - zm), (z * other, zm * om), (other * z, om * zm),
                 (z / other, zm / om), (other / z, om / zm)]
    for got, ref in pairs:
        assert _close(got, ref, rel=1e-39), (got, ref)


def test_arithmetic_ignores_the_ambient_context():
    def compute():
        z = DEC.real(1) / 3 + DEC.real(0.001) * 2
        return z, DEC.exp(z * z - DEC.i) / 7 + abs(z) - 1.5

    expected = compute()
    with decimal.localcontext(decimal.Context(prec=6)):
        assert compute() == expected
    assert len(expected[0].re.as_tuple().digits) == DIGITS


def test_real_values_print_as_mpmath_and_convert_to_float_and_complex():
    for value in (-5.0, -3.0, 1e-3, 0.5, 1 / 3):
        assert str(DEC.real(value)) == str(MP.real(value))
    step = DEC.real(6) * 7 / 20 - 3
    assert str(step) == str(MP.real(6) * 7 / 20 - 3) == "-0.9"
    assert float(DEC.real(0.1)) == 0.1 and complex(DEC.convert(1 - 2j)) == 1 - 2j
    with pytest.raises(TypeError):
        float(DEC.convert(1 - 2j))


@pytest.mark.parametrize("value", [0, -1, 3, 2 ** 70, -2.75, 0.1, 1e300, 0.1 + 0.2j, -1j,
                                   complex(-1, -1), decimal.Decimal("1.25")])
def test_a_scalar_equals_the_number_it_converts(value):
    assert DEC.convert(value) == value


def test_a_coordinate_computed_twice_hits_one_table_entry(fig4a):
    """The weight factors of a coordinate are keyed on its Decimal parts: the
    same x and t computed anew find the factors the first evaluation tabled."""
    orbit = derive_orbit(fig4a, ctx=DEC)
    h = DEC.real(verification.RESIDUAL_H)

    def q():  # one stencil point, its coordinates computed afresh
        return simple_pole.evaluate_q(orbit, DEC.real(0.3) + 2 * h, DEC.real(-0.7) - h,
                                      ctx=DEC, check_condition=False)

    first = q()
    wc = reconstruct.prepared(orbit, DEC, simple_pole._constants)[0]
    tables = (wc.x_factors, wc.t_factors)
    assert [len(table) for table in tables] == [1, 1]
    factors = [list(table.values())[0] for table in tables]
    assert q() == first
    assert [len(table) for table in tables] == [1, 1]
    assert all(list(table.values())[0] is f for table, f in zip(tables, factors))


def test_batch_operations_have_the_scalar_bits():
    """Each operation of a batch gives every point the Decimal parts of the
    scalar operation, with a batch, a scalar or a number on either side, by
    divisors real at every point, complex at every point or mixed, and
    whatever the thread's context."""
    values = [DEC.convert(z) for z in ARGUMENTS] + [DEC.real(1) / 3 + DEC.i * 7]
    others = values[::-1]  # real at some points, complex at others
    a, b = DEC.batch.of(values), DEC.batch.of(others)
    complex_b = b + DEC.i / 1000
    scalar = DEC.real(2) / 3 - DEC.i / 7

    def parts(batch):
        return list(zip(batch.re, batch.im))

    def check():
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for other, each in [(b, others), (complex_b, complex_b.points()),
                                (scalar, [scalar] * len(values)), (3, [3] * len(values)),
                                (-2.5, [-2.5] * len(values))]:
                assert parts(op(a, other)) == [(z.re, z.im) for z in map(op, values, each)]
                assert parts(op(other, a)) == [(z.re, z.im) for z in map(op, each, values)]
        for op in (operator.neg, abs, lambda z: z.conjugate(), lambda z: z.real):
            assert parts(op(a)) == [(z.re, z.im) for z in map(op, values)]

    check()
    with decimal.localcontext(decimal.Context(prec=6)):
        check()


#: The sweep node (i, j) of each config's largest residual, as
#: perfbench/checks.py names it in RESIDUAL_ARGMAX
RESIDUAL_ARGMAX = {"fig2a": (10, 13), "fig4a": (12, 12), "fig7a": (16, 18)}


def _argmax_residual(cfg, node, ctx):
    evaluator, _ = _evaluator(cfg, "a", ctx)
    x_min, x_max, t_min, t_max = (ctx.real(v) for v in verification.RESIDUAL_WINDOW)
    n = verification.RESIDUAL_N - 1
    x = x_min + (x_max - x_min) * node[0] / n
    t = t_min + (t_max - t_min) * node[1] / n
    r = pde_residual(evaluator, cfg, x, t, ctx.real(verification.RESIDUAL_H), ctx=ctx)
    return float(abs(r))


@pytest.mark.parametrize("name", sorted(RESIDUAL_ARGMAX))
def test_argmax_residual_has_the_mpmath_bits(request, name):
    cfg = request.getfixturevalue(name)
    node = RESIDUAL_ARGMAX[name]
    expected = _argmax_residual(cfg, node, MP)
    assert _argmax_residual(cfg, node, DEC) == expected
    with decimal.localcontext(decimal.Context(prec=6)):
        assert _argmax_residual(cfg, node, DEC) == expected
