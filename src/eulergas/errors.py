"""Error types shared by all modules.

Three failure classes cover every contract in the library: bad inputs
(DomainError), a series past its term budget (PrecisionError), and
sums that fail their certificate (ConvergenceError).  Computation errors
carry their diagnostic fields so front ends can serialize them.  require_positive is the
one check of a physical input: finite and > 0; require_integer that of a
count such as n in p(n).
"""

from __future__ import annotations

import math
import operator


class DomainError(ValueError):
    """Input outside an operation's stated domain."""


def require_positive(name: str, value: float) -> None:
    """DomainError unless value is a finite number > 0 (nan fails too)."""
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be finite and > 0, got {value}")


def require_integer(name: str, value) -> int:
    """value as an int (operator.index: ints, bools and integer types such
    as numpy's), or DomainError for anything else, such as 5.0 or nan."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


class PrecisionError(RuntimeError):
    """The exact p(n) series needs more terms than its 5e6-term budget."""

    def __init__(self, message: str, terms_attempted: int = 0):
        super().__init__(message)
        self.terms_attempted = terms_attempted

    def fields(self) -> dict:
        return {"type": "PrecisionError", "message": str(self),
                "terms_attempted": self.terms_attempted}


class ConvergenceError(RuntimeError):
    """A truncated sum is not certified: its residual plus its error bound
    does not leave it within 1/2 of an integer."""

    def __init__(self, message: str, terms_used: int = 0,
                 residual: float = float("nan")):
        super().__init__(message)
        self.terms_used = terms_used
        self.residual = residual

    def fields(self) -> dict:
        return {"type": "ConvergenceError", "message": str(self),
                "terms_used": self.terms_used, "residual": self.residual}
