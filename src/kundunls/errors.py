"""Exception types, the diagnostic record and the number rule of the package."""

import math
import numbers
from dataclasses import dataclass


class KunduNLSError(Exception):
    """Base class for all package-specific errors."""


class ContourEigenvalue(KunduNLSError):
    """Eigenvalue lies on the continuous spectrum (real axis or circle |z| = Q0)."""


class SingularMatrix(KunduNLSError):
    """A pivot underflowed during LU factorization."""


class EvaluationAtPole(KunduNLSError):
    """Trace product evaluated at one of its poles."""


class PeriodicIncompatible(KunduNLSError):
    """Field does not match at the ends of the periodic evolution window."""


class StencilEvaluationFailure(KunduNLSError):
    """Field evaluation failed at a finite-difference stencil point."""


class ConfigParseError(KunduNLSError):
    """Configuration file is not UTF-8 text holding valid JSON."""

    def __init__(self, message, line=None, column=None):
        where = "" if line is None else f" (line {line}, column {column})"
        super().__init__(f"invalid JSON{where}: {message}")
        self.line = line
        self.column = column


class ConfigValidationError(KunduNLSError):
    """Configuration violates a structural or spectral invariant; the message
    lists one ``  Code: message [hint]`` line per diagnostic."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("invalid configuration" + "".join(
            f"\n  {d.code}: {d.message}" + (f" [{d.hint}]" if d.hint else "")
            for d in self.diagnostics))


class NearSingularWarning(UserWarning):
    """Linear system condition number exceeded the warning threshold."""


@dataclass(frozen=True)
class Diagnostic:
    """One named check outcome, used by validation and the audit commands."""

    code: str
    message: str
    ok: bool = False
    value: float | None = None
    hint: str | None = None

    def to_dict(self):
        d = {"code": self.code, "message": self.message, "ok": self.ok}
        if self.value is not None:
            d["value"] = self.value
        if self.hint is not None:
            d["hint"] = self.hint
        return d


class NumberError(ValueError):
    """A value broke the number rule; ``code`` is the ``Diagnostic`` code."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def finite_number(value, where: str, kind=float):
    """``value`` converted to ``kind`` (float or complex), if it is a finite
    number.  A bool or another type raises ``NumberError`` coded
    ``BadNumber`` (``BadComplex`` for complex); NaN, an infinity or an int
    beyond double range raises it coded ``NonFiniteValue``."""
    real = kind is float
    if isinstance(value, bool) or not isinstance(
            value, numbers.Real if real else numbers.Complex):
        raise NumberError("BadNumber" if real else "BadComplex",
                          f"{where} must be a {'real' if real else 'complex'} "
                          f"number, got {value!r}")
    try:
        out = kind(value)
    except OverflowError:  # an int beyond double range
        out = kind(math.inf)
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise NumberError("NonFiniteValue",
                          f"{where} must be finite in double precision, got {out}")
    return out
