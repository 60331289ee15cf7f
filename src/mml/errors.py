"""Exception hierarchy. The CLI maps each class onto one documented exit code."""


class MMLError(Exception):
    """Base class for all library errors."""


class ChainFileError(MMLError):
    """Chain-spec file could not be parsed (JSON or schema problem)."""


class ValidationError(MMLError):
    """Input data violates a structural invariant, or a generator got unusable parameters."""


class PreconditionError(MMLError):
    """A mathematical precondition of the operation is not met: a reducible chain, an
    empty set, more states than an enumeration allows, or an argument outside a domain."""


class SingularSystemError(MMLError):
    """A linear solve failed where theory says it cannot (internal error)."""


class InsufficientTrialsError(MMLError):
    """The rate constant c cannot be certified: no calibration instance constrains it."""
