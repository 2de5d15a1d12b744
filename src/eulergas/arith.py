"""Exact arithmetic primitives and scalar special functions.

Divisor power sums, a partition-count table built by Euler's pentagonal
number recurrence, Farey sequences, Ford circles with their tangency
geometry, Dedekind sums in two conventions, the root-of-unity sums A_q(n)
entering the exact partition series (from Dedekind-sum phases, and by
Selberg's formula), and float-valued zeta / gamma / Euler-constant
evaluators.

All geometry here is exact: ints and ``fractions.Fraction`` only.  Floats
appear solely in the special functions, which are the double-precision ones
of ``math`` and ``mpmath.fp`` behind domain checks; mpmath is imported only
when ``riemann_zeta`` is called, so the arithmetic alone does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError

__all__ = [
    "PrecisionPolicy", "DEFAULT_POLICY",
    "divisors", "divisor_sigma",
    "partition_count_oracle",
    "farey_sequence", "reduced_fraction",
    "FordCircle", "ford_circle", "TangencyPoint", "ford_tangency",
    "DedekindConvention", "DedekindValue", "dedekind_sum", "kloosterman_A",
    "selberg_residues", "selberg_A",
    "ZETA3", "riemann_zeta", "gamma_fn", "euler_gamma",
]


@dataclass(frozen=True)
class PrecisionPolicy:
    """Targets for the truncated series and products.

    rel_tol   -- target relative error of the Z and eta products and of G2
    work_bits -- minimum working precision of the exact p(n) series
    max_terms -- hard cap on the length of the Z and eta products, the G2
                 series and the exact p(n) series before PrecisionError

    The per-mode thermodynamics takes no policy: it sums at most 53 terms
    at any x.
    """

    rel_tol: float = 1e-12
    work_bits: int = 64
    max_terms: int = 5_000_000

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.work_bits < 53:
            raise DomainError(f"work_bits must be >= 53, got {self.work_bits}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")


DEFAULT_POLICY = PrecisionPolicy()


# ---------------------------------------------------------------------------
# Divisor sums
# ---------------------------------------------------------------------------

def divisors(n: int) -> list[int]:
    """All positive divisors of n in increasing order (trial division)."""
    if n < 1:
        raise DomainError(f"divisors needs n >= 1, got {n}")
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    large.reverse()
    return small + large


def divisor_sigma(k: int, n: int) -> int | Fraction:
    """Sum of k-th powers of the divisors of n, exactly.

    Negative k is allowed and returns a Fraction; sigma_{-1}(n) equals
    sigma_1(n)/n.  Integers come back for k >= 0.
    """
    if n < 1:
        raise DomainError(f"divisor_sigma needs n >= 1, got {n}")
    if k >= 0:
        return sum(d ** k for d in divisors(n))
    return sum(Fraction(1, d ** (-k)) for d in divisors(n))


# ---------------------------------------------------------------------------
# Partition counts (ground-truth oracle)
# ---------------------------------------------------------------------------

# p(0), p(1), ...: the recurrence's working table, kept between calls and
# grown in place to the largest n asked (about 13 MB of ints at n = 10^5)
_partition_cache: list[int] = [1]


def partition_count_oracle(n: int) -> int:
    """Exact partition count p(n) by Euler's pentagonal number recurrence:

        p(m) = sum_{k>=1} (-1)^(k+1) [p(m - k(3k-1)/2) + p(m - k(3k+1)/2)],

    O(sqrt(m)) exact big-integer additions per entry, independent of the
    Rademacher series.  The table is the recurrence's working memory: it is
    kept and grows to the largest n asked, so sweeps over a range of n pay
    the cost once.
    """
    if n < 0:
        raise DomainError(f"partition count needs n >= 0, got {n}")
    table = _partition_cache
    if n < len(table):
        return table[n]
    # generalized pentagonal numbers 1, 2, 5, 7, 12, 15, ... up to n; their
    # signs run +, +, -, -, +, +, ...
    pent = []
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        pent += [k * (3 * k - 1) // 2, k * (3 * k + 1) // 2]
        k += 1
    for m in range(len(table), n + 1):
        acc = 0
        for i, g in enumerate(pent):
            if g > m:
                break
            if i & 2:
                acc -= table[m - g]
            else:
                acc += table[m - g]
        table.append(acc)
    return table[n]


# ---------------------------------------------------------------------------
# Farey sequences and Ford circles
# ---------------------------------------------------------------------------

def reduced_fraction(num: int, den: int) -> Fraction:
    """Build a Fraction from a pair required to be already in lowest terms."""
    if den < 1:
        raise DomainError(f"denominator must be >= 1, got {den}")
    if math.gcd(num, den) != 1:
        raise DomainError(f"{num}/{den} is not reduced")
    return Fraction(num, den)


def farey_sequence(order: int) -> list[Fraction]:
    """All reduced fractions in [0, 1] with denominator <= order, ascending.

    Uses the next-term recurrence, so consecutive entries are unimodular by
    construction; tests verify that independently against brute-force
    enumeration.
    """
    if order < 1:
        raise DomainError(f"farey order must be >= 1, got {order}")
    out = [Fraction(0, 1)]
    a, b, c, d = 0, 1, 1, order
    while c <= order:
        k = (order + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        out.append(Fraction(a, b))
    return out


@dataclass(frozen=True)
class FordCircle:
    """Circle tangent to the real axis at p/q: center (p/q, 1/(2q^2)),
    radius 1/(2q^2), all exact rationals."""

    fraction: Fraction
    center_x: Fraction
    center_y: Fraction
    radius: Fraction


def ford_circle(f: Fraction) -> FordCircle:
    """The circle attached to a reduced fraction p/q."""
    if not isinstance(f, Fraction):
        raise DomainError(f"ford_circle expects a Fraction, got {type(f).__name__}")
    r = Fraction(1, 2 * f.denominator ** 2)
    return FordCircle(f, Fraction(f.numerator, f.denominator), r, r)


class TangencyPoint(NamedTuple):
    """Exact rational point in the upper half plane."""

    re: Fraction
    im: Fraction

    def as_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)


def _unimodular(lo: Fraction, hi: Fraction) -> bool:
    return hi.numerator * lo.denominator - lo.numerator * hi.denominator == 1


def ford_tangency(left: Fraction, mid: Fraction,
                  right: Fraction) -> tuple[TangencyPoint, TangencyPoint]:
    """Points where the circle at mid touches the circles at left and right.

    The triple must be adjacent in some Farey sequence (pairwise unimodular).
    With q, q1, q2 the three denominators and p/q the middle fraction:

        tau_L = p/q - q1/(q(q^2+q1^2)) + i/(q^2+q1^2)
        tau_R = p/q + q2/(q(q^2+q2^2)) + i/(q^2+q2^2)

    Both returned points lie exactly on the middle circle and on the
    respective neighbor circle.
    """
    if not (left < mid < right):
        raise DomainError("tangency needs left < mid < right")
    if not (_unimodular(left, mid) and _unimodular(mid, right)):
        raise DomainError("fractions are not Farey-adjacent")
    p, q = mid.numerator, mid.denominator
    q1, q2 = left.denominator, right.denominator
    tau_l = TangencyPoint(Fraction(p, q) - Fraction(q1, q * (q * q + q1 * q1)),
                          Fraction(1, q * q + q1 * q1))
    tau_r = TangencyPoint(Fraction(p, q) + Fraction(q2, q * (q * q + q2 * q2)),
                          Fraction(1, q * q + q2 * q2))
    return tau_l, tau_r


# ---------------------------------------------------------------------------
# Dedekind sums and the root-of-unity sums A_q(n)
# ---------------------------------------------------------------------------

class DedekindConvention(Enum):
    """Two readings of the arithmetic sum s(p, q).

    PAPER_LITERAL sums (l/q) * frac(pl/q) over l = 1..q.  CLASSICAL_SAWTOOTH
    is the standard double sawtooth sum; the two differ by (q-1)/4.  Which
    one makes the exact partition series round to integers is decided
    empirically by the acceptance suite (classical wins; see README).
    """

    PAPER_LITERAL = "paper-literal"
    CLASSICAL_SAWTOOTH = "classical-sawtooth"


@dataclass(frozen=True)
class DedekindValue:
    value: Fraction
    convention: DedekindConvention


def dedekind_sum(p: int, q: int, convention: DedekindConvention) -> DedekindValue:
    """Exact s(p, q) for coprime 0 <= p < q (p = 0 only with q = 1).

    Both conventions reduce to T/q^2 with T = sum l*((p*l) mod q) over
    l = 1..q-1; the classical sawtooth version subtracts (q-1)/4.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    if not 0 <= p < q and not (p == 0 and q == 1):
        raise DomainError(f"need 0 <= p < q, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise DomainError(f"p and q must be coprime, got p={p}, q={q}")
    total = sum(l * ((p * l) % q) for l in range(1, q))
    value = Fraction(total, q * q)
    if convention is DedekindConvention.CLASSICAL_SAWTOOTH:
        value -= Fraction(q - 1, 4)
    return DedekindValue(value, convention)


def kloosterman_phases(q: int, n: int,
                       convention: DedekindConvention) -> tuple[Fraction, ...]:
    """Exact phases t (mod 2) such that A_q(n) = sum exp(i*pi*t).

    One entry per residue p mod q with gcd(p, q) = 1; for q = 1 the single
    residue is taken as p = 0 with unit weight, so A_1(n) = 1 and the q = 1
    term of the exact series reproduces the dominant closed form.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    if q == 1:
        return (Fraction(0),)
    return tuple((dedekind_sum(p, q, convention).value
                  - Fraction(2 * (n % q) * p, q)) % 2
                 for p in range(1, q) if math.gcd(p, q) == 1)


def kloosterman_A(q: int, n: int, convention: DedekindConvention) -> complex:
    """A_q(n) = sum over coprime residues of exp(i*pi*s(p,q) - 2*i*pi*n*p/q).

    Returned as a complex number; in the convention validated by the integer
    test the imaginary part vanishes to rounding.
    """
    re = im = 0.0
    for t in kloosterman_phases(q, n, convention):
        ft = float(t)
        re += math.cos(math.pi * ft)
        im += math.sin(math.pi * ft)
    return complex(re, im)


def selberg_residues(q: int, n: int) -> list[int]:
    """The residues l mod 2q with (3l^2 + l)/2 = -n (mod q), ascending.

    They index Selberg's formula for the classical sums,

        A_q(n) = sqrt(q/3) * sum_l (-1)^l cos((6l + 1) pi / (6q)),

    which is real, costs O(q) and needs no Dedekind sums.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    return [l for l in range(2 * q) if (l * (3 * l + 1) // 2 + n) % q == 0]


def selberg_A(q: int, n: int) -> float:
    """A_q(n) in the classical convention by Selberg's formula, in doubles."""
    return math.sqrt(q / 3.0) * sum(
        (-1) ** l * math.cos(math.pi * (6 * l + 1) / (6 * q))
        for l in selberg_residues(q, n))


# ---------------------------------------------------------------------------
# Scalar special functions
# ---------------------------------------------------------------------------

# Bernoulli numbers B_2, B_4, ..., B_42 (exact), for the Debye function's
# Bernoulli series in phonon and Wigert's expansion of N in thermo.
_BERNOULLI_2K = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
    Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
    Fraction(854513, 138), Fraction(-236364091, 2730), Fraction(8553103, 6),
    Fraction(-23749461029, 870), Fraction(8615841276005, 14322),
    Fraction(-7709321041217, 510), Fraction(2577687858367, 6),
    Fraction(-26315271553053477373, 1919190), Fraction(2929993913841559, 6),
    Fraction(-261082718496449122051, 13530),
    Fraction(1520097643918070802691, 1806),
)


# Apery's constant zeta(3), correctly rounded; equal to mpmath.fp.zeta(3.0)
ZETA3 = 1.2020569031595942


def riemann_zeta(s: float) -> float:
    """zeta(s) for finite real s > 1, from mpmath's double-precision context."""
    if not (s > 1.0 and math.isfinite(s)):
        raise DomainError(f"riemann_zeta needs finite s > 1, got {s}")
    import mpmath
    return mpmath.fp.zeta(s)


def gamma_fn(s: float) -> float:
    """Gamma(s) for finite real s > 0 (math.gamma)."""
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(f"gamma_fn needs finite s > 0, got {s}")
    return math.gamma(s)


def euler_gamma() -> float:
    """Euler's constant gamma = 0.5772156649015329 to double precision."""
    return 0.5772156649015329
