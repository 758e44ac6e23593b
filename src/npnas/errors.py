"""Exception hierarchy shared by all solver modules."""


class NpnasError(Exception):
    """Base class for all library errors."""


class TypeMismatch(NpnasError):
    """A tree or term does not have the expected type."""


class UnboundVariable(NpnasError):
    """A variable is used without a declaration in the environment."""


class NonNameBinder(NpnasError):
    """An abstraction binder variable is not of name sort."""


class IllegalBinderSubstitution(NpnasError):
    """A compound term was substituted into a binder position."""


class MissingVariable(NpnasError):
    """A valuation does not cover a required variable."""


class NarrowOnVariable(NpnasError):
    """Narrowing was requested for a bare variable."""


class InvalidSelection(NpnasError):
    """A rule selection does not match the target problem."""


class Uninhabited(NpnasError):
    """A type over the signature has no ground tree."""

    def __init__(self, ty):
        super().__init__(f"type has no inhabitant: {ty}")
        self.ty = ty


class NotSolved(NpnasError):
    """Witness extraction was called on a problem that is not solved, or a
    witness fails its re-check."""


class IllFormedProblem(NpnasError):
    """The problem fails signature validation or typechecking."""


class UndeclaredSymbol(NpnasError):
    """An EU constraint mentions a symbol outside the declared sets."""


class PhaseTwoViolation(NpnasError):
    """An EU input contains a form that should have been expanded away."""


class BudgetExhausted(NpnasError):
    """The solver exceeded its node budget."""


class PoolTooLarge(NpnasError):
    """The EU brute-force name pool exceeds the safety guard."""


class SearchSpaceTooLarge(NpnasError):
    """The oracle's assignment space exceeds the safety guard."""


class SourceSyntaxError(NpnasError):
    """A parse error, with 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ValidationError(NpnasError):
    """A parsed document violates a well-formedness rule."""


class UndeclaredSort(ValidationError):
    """A constructor of a signature uses a sort the signature does not
    declare."""

    def __init__(self, con, message):
        super().__init__(message)
        self.con = con
