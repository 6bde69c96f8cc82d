"""Arithmetic contexts so the core formulas run in double or multi precision.

Every solver-facing function in this package does its complex arithmetic
through one of these contexts.  ``FLOAT`` uses the builtin ``complex`` type;
``numpy_context()`` evaluates the same formulas over a float64 array of x
values at once, for batched grid rows, and is built on first use, once per
process; ``mp_context(dps)`` returns an mpmath-backed context used by the
residual checker, where stencil differencing would otherwise be limited by
double roundoff.
"""

import cmath
import functools


class MathContext:
    def __init__(self, convert, exp, log, arg, name, real=float):
        self.convert = convert  # python complex -> context scalar
        self.exp = exp
        self.log = log
        self.arg = arg
        self.name = name
        self.real = real  # python float -> context real scalar
        self.i = convert(1j)

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

