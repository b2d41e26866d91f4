"""Exception hierarchy shared by all engine components, and the input-type
checks of the entry points."""


class EalgebraError(Exception):
    """Base class for every error raised by this package."""


class DeclarationError(EalgebraError):
    """A vocabulary declaration clashes with a logic name or another declaration."""


class VocabularyError(EalgebraError):
    """A function name is unknown or used at the wrong arity."""


class ParseError(EalgebraError):
    """Concrete-syntax error, with best-effort source position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class IllegalUpdateError(EalgebraError):
    """An update targets a static or logic function name."""


class UpdateTypeError(EalgebraError):
    """A relational location is being given a non-Boolean value."""


class StateValidityError(EalgebraError):
    """A state violates the reserve proviso or the distributed state conditions."""


class EvaluationError(EalgebraError):
    """Term or guard evaluation failed (unbound variable, broken invariant)."""


class ModeError(EvaluationError):
    """An operation was called on a rule outside its supported fragment."""


class ContractViolation(EvaluationError):
    """An internal precondition (e.g. perspicuity) was not met by the caller."""


class DuplicateError(EvaluationError):
    """The duplicated term evaluated to undef or a reserve element."""


class OracleError(EalgebraError):
    """An external-function query could not be resolved."""


class ScheduleError(EalgebraError):
    """A scheduled element is not an agent at the current state."""


class CertificateError(EalgebraError):
    """A run certificate file is malformed."""


class BudgetError(EalgebraError):
    """A fixed work budget ran out before the answer was complete."""


def require_text(text, entry_point: str) -> str:
    """``text``, refused with ``ContractViolation`` naming ``entry_point``
    when it is not a ``str`` (``None``, ``bytes``)."""
    if not isinstance(text, str):
        raise ContractViolation(f"{entry_point} reads text, not {type(text).__name__}")
    return text


def require(value, kinds: type | tuple[type, ...], entry_point: str):
    """``value``, refused with ``ContractViolation`` naming ``entry_point``
    when it is not an instance of ``kinds`` (``None``, text in place of a
    state)."""
    if not isinstance(value, kinds):
        kinds = kinds if isinstance(kinds, tuple) else (kinds,)
        what = " or ".join(
            f"{'an' if kind.__name__[0] in 'AEIOU' else 'a'} {kind.__name__}" for kind in kinds
        )
        raise ContractViolation(f"{entry_point} takes {what}, not {type(value).__name__}")
    return value


def require_int(value, entry_point: str) -> int:
    """``value``, refused with ``ContractViolation`` naming ``entry_point``
    when it is not an ``int`` (text, a float, a ``bool``, ``None``)."""
    if type(value) is bool or not isinstance(value, int):
        raise ContractViolation(f"{entry_point} takes an int, not {type(value).__name__}")
    return value
