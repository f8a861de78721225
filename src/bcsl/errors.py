"""Exception hierarchy shared across the package.

Split between *validation* problems (bad data), *usage* problems (bad call),
*config* problems (a rate configuration violating its own feasibility
conditions), and *capability* limits (problem too large for exact methods).
The CLI maps these onto its exit-code contract.
"""


class BcslError(Exception):
    """Base class for all package errors."""


class ValidationError(BcslError):
    """Input data violates an invariant (bad pmf, bad channel tensor, ...)."""


class UsageError(BcslError):
    """A function was called with inconsistent arguments (axis overlap, ...)."""


class PreconditionError(BcslError):
    """A documented precondition of an operation is not met."""


class ConfigError(BcslError):
    """A code configuration violates one of its feasibility conditions."""


class GenerationError(BcslError):
    """Random codebook generation failed (typicality rejection cap hit)."""


class CapabilityError(BcslError):
    """The requested computation exceeds a configured exact-method cap."""
