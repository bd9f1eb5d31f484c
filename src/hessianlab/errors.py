"""Exception hierarchy shared across the package.

Two broad families matter to callers: precondition violations (bad inputs,
mapped to CLI exit code 2) and numerical failures (non-convergence or loss
of validity mid-computation, exit code 3).
"""


class HessianLabError(Exception):
    """Base class for all package errors."""


class PreconditionError(HessianLabError):
    """Input violates a documented precondition."""


class NumericError(HessianLabError):
    """A numerical procedure failed to converge or lost validity."""


class SingularQuotientError(PreconditionError):
    """Denominator symmetric polynomial vanishes in a quotient operator."""


class AdmissibilityError(PreconditionError):
    """Data left the ellipticity cone required by the operation."""


class ClippingError(PreconditionError):
    """A sub-level set does not fit inside the target grid box."""


class DegenerateDomainError(PreconditionError):
    """Masked domain is empty or too small to carry a field."""


class UnboundedSublevelError(PreconditionError):
    """A sub-level set escaped the probe range during extraction."""


class NonConvergenceError(NumericError):
    """Iteration cap reached before the tolerance was met."""


class ConfigError(PreconditionError):
    """A config does not match the CLI's schema: json_path names the
    offending entry, message says what is wrong with it."""

    def __init__(self, json_path: str, message: str):
        super().__init__(f"{json_path}: {message}")
        self.json_path = json_path
        self.message = message
