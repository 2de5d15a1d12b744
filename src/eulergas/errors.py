"""Error types shared by all modules.

Three failure classes cover every contract in the library: bad inputs
(DomainError), series/quadrature precision exhaustion (PrecisionError), and
non-stabilizing sums (ConvergenceError).  Computation errors carry their
diagnostic fields so front ends can serialize them.  require_positive is the
one check of a physical input: finite and > 0.
"""

from __future__ import annotations

import math


class DomainError(ValueError):
    """Input outside an operation's stated domain."""


def require_positive(name: str, value: float) -> None:
    """DomainError unless value is a finite number > 0 (nan fails too)."""
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be finite and > 0, got {value}")


class PrecisionError(RuntimeError):
    """The requested tolerance cannot be met within the term/precision budget."""

    def __init__(self, message: str, terms_attempted: int = 0):
        super().__init__(message)
        self.terms_attempted = terms_attempted

    def fields(self) -> dict:
        return {"type": "PrecisionError", "message": str(self),
                "terms_attempted": self.terms_attempted}


class ConvergenceError(RuntimeError):
    """A truncated sum failed to stabilize near an acceptable value."""

    def __init__(self, message: str, terms_used: int = 0,
                 residual: float = float("nan"), convention: str = ""):
        super().__init__(message)
        self.terms_used = terms_used
        self.residual = residual
        self.convention = convention

    def fields(self) -> dict:
        return {"type": "ConvergenceError", "message": str(self),
                "terms_used": self.terms_used, "residual": self.residual,
                "convention": self.convention}
