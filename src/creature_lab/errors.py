"""Error types shared across the package."""


class ValidationError(ValueError):
    """A structural invariant of a value is violated."""


class PreconditionError(ValueError):
    """An operation's stated premise is not met; the message names the clause."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ConstructionError(ValueError):
    """Raw input cannot be assembled into a valid object."""


class BudgetError(RuntimeError):
    """An exhaustive computation would exceed the configured work budget."""


class UsageError(ValueError):
    """A flag or environment value is malformed (exit 64 on the command line)."""
