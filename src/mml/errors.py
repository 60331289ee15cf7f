"""Exception hierarchy. The CLI maps these classes onto documented exit codes."""


class MMLError(Exception):
    """Base class for all library errors."""


class ChainFileError(MMLError):
    """Chain-spec file could not be parsed (JSON or schema problem)."""


class ValidationError(MMLError):
    """Input data violates a structural invariant."""


class NonSquareError(ValidationError):
    pass


class NegativeEntryError(ValidationError):
    pass


class NonStochasticRowError(ValidationError):
    """A row of the transition matrix does not sum to 1 within tolerance."""


class BadParamsError(ValidationError):
    """Chain-family generator called with unusable parameters."""


class PreconditionError(MMLError):
    """A mathematical precondition of the operation is not met."""


class NotIrreducibleError(PreconditionError):
    pass


class EmptySetError(PreconditionError):
    pass


class TooManyStatesError(PreconditionError):
    """Exhaustive subset enumeration is capped at 20 states."""


class DomainError(PreconditionError):
    """Argument outside the domain of the function."""


class SingularSystemError(MMLError):
    """A linear solve failed where theory says it cannot (internal error)."""


class InsufficientTrialsError(MMLError):
    """The rate constant c cannot be certified: no calibration instance constrains it."""
