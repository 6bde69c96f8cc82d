"""Exception types and the diagnostic record shared across the package."""

from dataclasses import dataclass


class KunduNLSError(Exception):
    """Base class for all package-specific errors."""


class ContourEigenvalue(KunduNLSError):
    """Eigenvalue lies on the continuous spectrum (real axis or circle |z| = Q0)."""


class DuplicateEigenvalue(KunduNLSError):
    """Two eigenvalues coincide after canonicalization."""


class SingularMatrix(KunduNLSError):
    """A pivot underflowed during LU factorization."""


class EvaluationAtPole(KunduNLSError):
    """Trace product evaluated at one of its poles."""


class PeriodicIncompatible(KunduNLSError):
    """Field does not match at the ends of the periodic evolution window."""


class NonPowerOfTwo(KunduNLSError):
    """Spectral grid size must be a power of two."""


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
