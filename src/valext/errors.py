"""Exception hierarchy shared by all valext modules."""


class ValextError(Exception):
    """Base class for all package errors."""


class StructuralError(ValextError):
    """Operands belong to incompatible structures (different groups, towers, ...)."""


class DomainError(ValextError):
    """The input is outside the mathematical domain of the operation (inverse of zero, ...)."""


class CapabilityError(ValextError):
    """The request is well posed but outside the implemented capabilities.

    Raised instead of ever returning a wrong answer, e.g. factorization over
    an unsupported coefficient field or beyond the degree bound.
    """


class SelfCheckError(DomainError):
    """A check of the engine's own answer failed: a fault of valext, not of its input."""


class PreconditionError(ValextError):
    """A documented precondition of the operation does not hold for this input."""


class ScenarioParseError(ValextError):
    """A scenario file failed to parse; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
