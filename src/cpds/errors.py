"""Exception hierarchy for the cpds package.

Every error raised by the library derives from :class:`CpdsError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations


class CpdsError(Exception):
    """Base class for all library errors."""


class UndefinedTop(CpdsError):
    """``top_k`` hit an empty enclosing stack and is undefined."""


class OrderMismatch(CpdsError):
    """Stack or automaton orders are incompatible for the operation."""


class UndefinedOperation(CpdsError):
    """A stack operation is not applicable to the given stack."""


class ParseError(CpdsError):
    """Malformed textual input.

    Carries the token position (0-based) at which parsing failed.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at token {position})"
        super().__init__(message)
        self.position = position


class NotNormalized(CpdsError):
    """An ordered system violates the bottom-rule normal form."""


class LanguageQueryFailure(CpdsError):
    """A language handle could not answer a decision query."""


class PreconditionViolation(CpdsError):
    """A saturation input automaton violates the initial-state conditions."""


class NotRoundPartitionable(CpdsError):
    """A run does not admit the requested round partition."""


class ArityMismatch(CpdsError):
    """Configuration and system disagree on the number of stacks."""


class UnknownControl(CpdsError):
    """A control state is not declared by the system or automaton."""


class NotSupported(CpdsError):
    """Requested feature is intentionally out of scope."""


class _BudgetStop(CpdsError):
    """A solve stopped at a budget; ``count`` went past ``limit``."""

    def __init__(self, budget: str, count: int, unit: str, limit: int):
        super().__init__(f"{budget} exceeded: {count} {unit}, limit {limit}")
        self.count = count
        self.limit = limit


class VertexBudgetExceeded(_BudgetStop):
    """The scope-bounded reachability graph outgrew its vertex budget."""


class BudgetExceeded(_BudgetStop):
    """A bounded exploration or saturation exceeded its resource budget."""
