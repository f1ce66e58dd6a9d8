"""Exception taxonomy shared across the toolkit."""


class ReccostError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ReccostError):
    """An abscissa is outside the evaluable domain, or a numeric input is invalid."""


class RangeOverflowError(DomainError):
    """The requested point would overflow double precision (cosh-type growth)."""


class ParameterError(ReccostError):
    """A structural parameter (family spec, term count) is out of range."""


class PrecisionError(ReccostError):
    """A numerical estimate is round-off dominated and cannot support the requested decision."""


class ClassificationError(ReccostError):
    """The handle is not close to any admissible solution branch."""


class PreconditionError(ReccostError):
    """A certificate hypothesis (evenness, normalization, positive curvature) fails for the input."""


class InputError(ReccostError):
    """A CLI input file or flag set is malformed.  Carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
