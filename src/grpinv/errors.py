"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside an operation's mathematical domain."""


class ParseError(ValueError):
    """Malformed text input; carries the offending position when known."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class ResourceLimitError(RuntimeError):
    """A configured cap (table size, enumeration order, prime bound) was hit."""


class ConvergenceError(ResourceLimitError):
    """The greedy approximation hit its prime cap; ``best`` holds the closest
    selection reached before giving up."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class InvalidGroupError(ValueError):
    """A candidate multiplication table is not a group table."""


class NoIdentityError(InvalidGroupError):
    """No element acts as a two-sided identity."""


class NotLatinSquareError(InvalidGroupError):
    """Some row or column is not a permutation of the index range."""


class NotAssociativeError(InvalidGroupError):
    """The table is a Latin square with identity but fails associativity."""


class InvariantViolationError(RuntimeError):
    """An internal cross-check that must always hold has failed."""
