"""Arithmetic contexts so the core formulas run in double or multi precision.

Every solver-facing function in this package does its complex arithmetic
through one of these contexts.  ``FLOAT`` uses the builtin ``complex`` type;
``numpy_context()`` evaluates the same formulas over a float64 array of x
values at once, for batched grid rows, and is built on first use, once per
process.  ``decimal_context(digits)`` carries a fixed number of significant
decimal digits on the C-backed ``decimal`` module; the residual sweep runs in
it, where stencil differencing would otherwise be limited by double roundoff.
It alone has a ``batch`` type: the values of many points as lists of
``Decimal`` parts, each operation a few ``map`` calls over those lists, with
the scalar's bits.  Its exponent range is decimal's widest, so its weights
need no column shift; ``reconstruct`` factors them wherever ``batch`` is set.
``mp_context(dps)`` is the same kind of context on pure-Python mpmath, several
times slower; no command runs it.
"""

import cmath
import functools
import math
import operator


class MathContext:
    def __init__(self, convert, exp, log, arg, name, real=float, batch=None):
        self.convert = convert  # python complex -> context scalar
        self.exp = exp
        self.log = log
        self.arg = arg
        self.name = name
        self.real = real  # python float -> context real scalar
        self.i = convert(1j)
        self.batch = batch  # the type of a batch of points; decimal only

    def __repr__(self):
        return f"MathContext({self.name})"


FLOAT = MathContext(complex, cmath.exp, cmath.log, cmath.phase, "float64")


@functools.cache
def numpy_context():
    # imported here, so that commands that compute no array do not pay for it;
    # one object, so ``reconstruct.prepared`` keeps one entry per orbit
    import numpy

    return MathContext(lambda v: numpy.asarray(v, dtype=complex), numpy.exp, numpy.log,
                       numpy.angle, "numpy-float64")


def mp_context(dps=40):
    # imported here, so that commands without a residual sweep do not pay for it
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = dps
    return MathContext(ctx.mpc, ctx.exp, ctx.log, ctx.arg,
                       f"mpmath-dps{dps}", real=ctx.mpf)


@functools.cache
def decimal_context(digits=40):
    """Complex scalars of two ``Decimal`` parts, ``re`` and ``im``, rounded to
    ``digits`` in one explicit ``decimal.Context``, never in the thread's
    ambient one (28 digits by default).  int, float, complex and Decimal
    operands convert exactly; a scalar equals the number it converts, and a
    real value (``im`` zero) prints as mpmath's does.  exp, log and arg run in
    ``mpmath.libmp`` at 20 bits beyond ``digits`` and round once on the way
    back.  The exponent range is decimal's widest, so unscaled weights stay
    representable far out on the background; past it, ``decimal.Overflow``.
    The context's ``batch`` type carries the values of many points at once
    and gives each the bits it has as a scalar; an operation of a scalar with
    a batch is the batch's."""
    # imported here, so that commands without a residual sweep do not pay for them
    import decimal

    from mpmath import libmp

    dec = decimal.Context(prec=digits, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                          traps=[decimal.InvalidOperation, decimal.DivisionByZero,
                                 decimal.Overflow])
    add, sub, mul, div = dec.add, dec.subtract, dec.multiply, dec.divide
    Decimal, from_float = decimal.Decimal, decimal.Decimal.from_float
    localcontext, negated = decimal.localcontext, Decimal.copy_negate
    plus, minus, times, over = operator.add, operator.sub, operator.mul, operator.truediv
    zero = Decimal(0)
    bits = math.ceil(digits * math.log2(10)) + 20

    def parts(v):
        if type(v) is DecimalComplex:
            return v.re, v.im
        if isinstance(v, complex):
            return from_float(v.real), from_float(v.imag)
        return (from_float(v) if isinstance(v, float) else Decimal(v)), zero

    def to_mpf(d):  # to within 2**-bits, relative
        if not d.is_finite():
            return libmp.from_float(float(d))
        p, q = d.as_integer_ratio()
        shift = max(bits + q.bit_length() - p.bit_length(), 0)
        return libmp.from_man_exp((p << shift) // q, -shift)

    def from_mpf(m):
        sign, man, exp, _ = m
        if not man:  # zero, an infinity or NaN
            return from_float(libmp.to_float(m))
        man = -man if sign else man
        return (dec.create_decimal(man << exp) if exp >= 0
                else div(Decimal(man), Decimal(1 << -exp)))

    def quotient(a, b, c, d):
        if not d:
            return DecimalComplex(div(a, c), div(b, c))
        den = add(mul(c, c), mul(d, d))
        return DecimalComplex(div(add(mul(a, c), mul(b, d)), den),
                              div(sub(mul(b, c), mul(a, d)), den))

    class DecimalComplex:
        __slots__ = ("re", "im")

        def __init__(self, re, im=zero):
            self.re, self.im = re, im

        # an operation with a batch is the batch's, which gives a batch
        def __add__(self, other):
            if type(other) is DecimalBatch:
                return NotImplemented
            c, d = (other.re, other.im) if type(other) is DecimalComplex else parts(other)
            return DecimalComplex(add(self.re, c), add(self.im, d))

        def __sub__(self, other):
            if type(other) is DecimalBatch:
                return NotImplemented
            c, d = (other.re, other.im) if type(other) is DecimalComplex else parts(other)
            return DecimalComplex(sub(self.re, c), sub(self.im, d))

        def __mul__(self, other):
            if type(other) is DecimalBatch:
                return NotImplemented
            c, d = (other.re, other.im) if type(other) is DecimalComplex else parts(other)
            a, b = self.re, self.im
            return DecimalComplex(sub(mul(a, c), mul(b, d)), add(mul(a, d), mul(b, c)))

        def __truediv__(self, other):
            if type(other) is DecimalBatch:
                return NotImplemented
            return quotient(self.re, self.im, *parts(other))

        def __str__(self):
            if not self.im:
                return libmp.to_str(to_mpf(self.re), digits)
            return f"({libmp.mpc_to_str((to_mpf(self.re), to_mpf(self.im)), digits)})"

        __radd__, __rmul__, __repr__ = __add__, __mul__, __str__
        __eq__ = lambda self, other: (self.re, self.im) == parts(other)
        # a complex value raises TypeError, as float(complex) does
        __float__ = lambda self: float(complex(self) if self.im else self.re)
        __rsub__ = lambda self, other: -self + other
        __rtruediv__ = lambda self, other: quotient(*parts(other), self.re, self.im)
        __pow__ = lambda self, n: functools.reduce(DecimalComplex.__mul__, [self] * n)
        __neg__ = lambda self: DecimalComplex(self.re.copy_negate(), self.im.copy_negate())
        conjugate = lambda self: DecimalComplex(self.re, self.im.copy_negate())
        real = property(lambda self: DecimalComplex(self.re))
        __abs__ = lambda self: DecimalComplex(dec.sqrt(add(mul(self.re, self.re),
                                                           mul(self.im, self.im))))
        __complex__ = lambda self: complex(float(self.re), float(self.im))

    def lists(v, n):  # the parts of an operand, a scalar's at each of n points
        if type(v) is DecimalBatch:
            return v.re, v.im
        c, d = parts(v)
        return [c] * n, [d] * n

    def quotients(a, b, divisor):  # quotient's arithmetic at every point, on lists
        c, d = lists(divisor, len(a))
        if all(d):  # every divisor with an imaginary part
            with localcontext(dec):
                if type(divisor) is DecimalBatch:
                    den = list(map(plus, map(times, c, c), map(times, d, d)))
                else:  # one divisor, so one c^2 + d^2
                    den = [add(mul(c[0], c[0]), mul(d[0], d[0]))] * len(a)
                return DecimalBatch(
                    list(map(over, map(plus, map(times, a, c), map(times, b, d)), den)),
                    list(map(over, map(minus, map(times, b, c), map(times, a, d)), den)))
        if not any(d):  # every divisor real
            with localcontext(dec):
                return DecimalBatch(list(map(over, a, c)), list(map(over, b, c)))
        return DecimalBatch.of(map(quotient, a, b, c, d))

    class DecimalBatch:
        """The values of several points: their ``re`` and ``im`` parts as two
        lists of Decimal.  Each operation is DecimalComplex's, point by point
        and in its order, by Decimal operators under
        ``decimal.localcontext(dec)``, which round as ``dec``'s methods do; so
        a batch holds the bits of its points taken one at a time, whatever the
        thread's context.  A scalar or number operand applies at every point.
        ``where`` picks each point's value from one of two operands, so that
        each point can pivot on its own."""

        __slots__ = ("re", "im")

        def __init__(self, re, im):
            self.re, self.im = re, im

        @staticmethod
        def of(values):
            """The batch of the given scalars or numbers, one per point."""
            re, im = zip(*map(parts, values))
            return DecimalBatch(list(re), list(im))

        @staticmethod
        def where(mask, a, b):
            """b at the points where mask holds, a elsewhere; either may be a
            scalar."""
            (ar, ai), (br, bi) = lists(a, len(mask)), lists(b, len(mask))
            return DecimalBatch([y if m else x for m, x, y in zip(mask, ar, br)],
                                [y if m else x for m, x, y in zip(mask, ai, bi)])

        def points(self):
            return list(map(DecimalComplex, self.re, self.im))

        def magnitudes(self):
            """abs(complex(value)) at every point: the magnitude in double."""
            return list(map(abs, map(complex, map(float, self.re), map(float, self.im))))

        def __len__(self):
            return len(self.re)

        def __getitem__(self, points):  # a slice of the points
            return DecimalBatch(self.re[points], self.im[points])

        def __add__(self, other):
            c, d = lists(other, len(self.re))
            with localcontext(dec):
                return DecimalBatch(list(map(plus, self.re, c)), list(map(plus, self.im, d)))

        def __sub__(self, other):
            c, d = lists(other, len(self.re))
            with localcontext(dec):
                return DecimalBatch(list(map(minus, self.re, c)), list(map(minus, self.im, d)))

        def __rsub__(self, other):
            a, b = lists(other, len(self.re))
            with localcontext(dec):
                return DecimalBatch(list(map(minus, a, self.re)), list(map(minus, b, self.im)))

        def __mul__(self, other):
            (a, b), (c, d) = (self.re, self.im), lists(other, len(self.re))
            with localcontext(dec):
                return DecimalBatch(list(map(minus, map(times, a, c), map(times, b, d))),
                                    list(map(plus, map(times, a, d), map(times, b, c))))

        def __abs__(self):
            a, b = self.re, self.im
            with localcontext(dec):
                return DecimalBatch(
                    list(map(Decimal.sqrt, map(plus, map(times, a, a), map(times, b, b)))),
                    [zero] * len(a))

        __radd__, __rmul__ = __add__, __mul__
        __truediv__ = lambda self, other: quotients(self.re, self.im, other)
        __rtruediv__ = lambda self, other: quotients(*lists(other, len(self.re)), self)
        __neg__ = lambda self: DecimalBatch(list(map(negated, self.re)),
                                            list(map(negated, self.im)))
        conjugate = lambda self: DecimalBatch(self.re, list(map(negated, self.im)))
        real = property(lambda self: DecimalBatch(self.re, [zero] * len(self.re)))

    def through_libmp(f):  # f on the parts as libmp numbers, giving the result's parts
        return lambda z: DecimalComplex(*map(from_mpf, f(*map(to_mpf, parts(z)))))

    exp = through_libmp(lambda re, im: libmp.mpc_exp((re, im), bits))
    log = through_libmp(lambda re, im: libmp.mpc_log((re, im), bits))
    arg = through_libmp(lambda re, im: (libmp.mpf_atan2(im, re, bits),))
    return MathContext(lambda v: DecimalComplex(*parts(v)), exp, log, arg,
                       f"decimal-{digits}", real=lambda v: DecimalComplex(parts(v)[0]),
                       batch=DecimalBatch)
