"""hessianlab: a desk-scale numerical laboratory for k-Hessian and
Hessian-quotient Dirichlet problems, sub-level-set geometry and the
growth conditions attached to Bernstein-type rigidity statements.
"""

from .errors import (
    AdmissibilityError,
    ClippingError,
    ConfigError,
    DegenerateDomainError,
    HessianLabError,
    NonConvergenceError,
    NumericError,
    PreconditionError,
    UnboundedSublevelError,
)

__version__ = "0.1.0"
