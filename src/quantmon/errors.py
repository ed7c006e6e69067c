"""Exception taxonomy shared across the package."""


class QuantmonError(Exception):
    """Base class for all library errors."""


class InputError(QuantmonError, ValueError):
    """A number, bound, value or spec given as input is malformed or out of range."""


class DomainMismatchError(QuantmonError):
    """A value does not belong to the carrier of the domain it was used with."""


class NoBoundError(QuantmonError):
    """A supremum or infimum was requested but does not exist in the domain."""


class UnsupportedDomainError(QuantmonError):
    """An operation requires lattice/numeric structure the domain lacks."""


class UndefinedArithmeticError(QuantmonError):
    """Arithmetic on extremal values outside the supported conventions."""


class InvalidFunctionError(QuantmonError):
    """A user-supplied function violates a sampled precondition (e.g. monotonicity)."""


class TraceParseError(QuantmonError):
    """Malformed trace text.  Carries a token position when one is known."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class AutomatonError(QuantmonError):
    """Malformed or inconsistent property automaton."""


class AcceptanceKindError(QuantmonError):
    """An operation received an automaton of the wrong acceptance kind."""


class MachineError(QuantmonError):
    """Malformed machine description: nondeterminism, missing cases, bad instructions."""
