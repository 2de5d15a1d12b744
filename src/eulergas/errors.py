"""Error types shared by all modules.

Two failure classes cover every contract in the library: inputs outside
an operation's domain, size limits included (DomainError), and sums that
fail their certificate (ConvergenceError), which carries its diagnostic
fields so front ends can serialize it.  require_positive is the one check
of a physical input: finite and > 0; require_integer that of a count such
as n in p(n); int_text spells an int of any size in a message.
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


def int_text(n: int) -> str:
    """n in decimal, or its sign and bit length where n is too long for
    Python's int-to-str limit (4300 digits by default)."""
    try:
        return str(n)
    except ValueError:
        sign = "a negative" if n < 0 else "an"
        return f"{sign} integer of {abs(n).bit_length()} bits"


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
