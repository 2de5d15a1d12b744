"""Exact arithmetic primitives.

Divisor power sums, a partition-count table built by Euler's pentagonal
number recurrence, Farey sequences, Ford circles with their tangency
geometry, Dedekind sums in two conventions, and the root-of-unity sums
A_q(n) of the exact partition series factored over the prime powers of q.

Everything here is exact: ints and ``fractions.Fraction`` only, with no
floats but FactoredA's double-precision value.  The float-valued zeta,
gamma and Euler constant live in thermo, beside their users, so that a
float subcommand loads neither this module nor fractions.  Nothing here
imports mpmath.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, int_text, require_integer

__all__ = [
    "divisors", "divisor_sigma",
    "partition_count_oracle",
    "farey_sequence", "reduced_fraction",
    "FordCircle", "ford_circle", "TangencyPoint", "ford_tangency",
    "DedekindConvention", "DedekindValue", "dedekind_sum",
    "FactoredA", "factored_a",
]


# ---------------------------------------------------------------------------
# Divisor sums
# ---------------------------------------------------------------------------

def divisors(n: int) -> list[int]:
    """All positive divisors of n in increasing order (trial division)."""
    if n < 1:
        raise DomainError(f"divisors needs n >= 1, got {int_text(n)}")
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
        raise DomainError(f"divisor_sigma needs n >= 1, got {int_text(n)}")
    if k >= 0:
        return sum(d ** k for d in divisors(n))
    return sum(Fraction(1, d ** (-k)) for d in divisors(n))


# ---------------------------------------------------------------------------
# Partition counts (ground-truth oracle)
# ---------------------------------------------------------------------------

# The largest n the oracle takes: its table then holds about 13 MB of ints
# and the cold fill takes seconds
_ORACLE_MAX_N = 100_000
# p(0), p(1), ...: the recurrence's working table, kept between calls and
# grown in place to the largest n asked, at most _ORACLE_MAX_N
_partition_cache: list[int] = [1]


def partition_count_oracle(n: int) -> int:
    """Exact partition count p(n) by Euler's pentagonal number recurrence:

        p(m) = sum_{k>=1} (-1)^(k+1) [p(m - k(3k-1)/2) + p(m - k(3k+1)/2)],

    O(sqrt(m)) exact big-integer additions per entry, independent of the
    Rademacher series.  The table is the recurrence's working memory: it is
    kept and grows to the largest n asked, so sweeps over a range of n pay
    the cost once.  n above 10^5, negative n and non-integer n are refused
    with DomainError.
    """
    n = require_integer("n", n)
    if n < 0:
        raise DomainError(f"partition count needs n >= 0, got {int_text(n)}")
    if n > _ORACLE_MAX_N:
        raise DomainError(f"the partition oracle takes n <= {_ORACLE_MAX_N}, "
                          f"got {int_text(n)}")
    table = _partition_cache
    if n < len(table):
        return table[n]
    # the generalized pentagonal numbers up to n, ascending, each with the sign
    # of its term: 1, 2, 12, 15, ... (k odd) added, 5, 7, 22, ... subtracted
    pentagonal: list[tuple[int, bool]] = []
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        add = k % 2 == 1
        pentagonal += ((k * (3 * k - 1) // 2, add), (k * (3 * k + 1) // 2, add))
        k += 1
    for m in range(len(table), n + 1):
        total = 0
        for g, add in pentagonal:
            if g > m:
                break
            if add:
                total += table[m - g]
            else:
                total -= table[m - g]
        table.append(total)
    return table[n]


# ---------------------------------------------------------------------------
# Farey sequences and Ford circles
# ---------------------------------------------------------------------------

def reduced_fraction(num: int, den: int) -> Fraction:
    """Build a Fraction from a pair required to be already in lowest terms."""
    if den < 1:
        raise DomainError(f"denominator must be >= 1, got {int_text(den)}")
    if math.gcd(num, den) != 1:
        raise DomainError(f"{int_text(num)}/{int_text(den)} is not reduced")
    return Fraction(num, den)


# The largest Farey order taken (304 193 fractions; order 10^5 would be ~3e9)
_FAREY_MAX_ORDER = 1000


def farey_sequence(order: int) -> list[Fraction]:
    """All reduced fractions in [0, 1] with denominator <= order, ascending.

    Uses the next-term recurrence, so consecutive entries are unimodular by
    construction; tests verify that independently against brute-force
    enumeration.  order above 1000 is refused with DomainError.
    """
    if order < 1:
        raise DomainError(f"farey order must be >= 1, got {int_text(order)}")
    if order > _FAREY_MAX_ORDER:
        raise DomainError(f"farey order must be <= {_FAREY_MAX_ORDER}, "
                          f"got {int_text(order)}")
    out = [Fraction(0, 1)]
    a, b, c, d = 0, 1, 1, order
    while c <= order:
        k = (order + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        out.append(Fraction(a, b))
    return out


class FordCircle(NamedTuple):
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
# Dedekind sums and the factored sums A_q(n)
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


class DedekindValue(NamedTuple):
    value: Fraction
    convention: DedekindConvention


def dedekind_sum(p: int, q: int, convention: DedekindConvention) -> DedekindValue:
    """Exact s(p, q) for coprime 0 <= p < q (p = 0 only with q = 1).

    The classical sum is the alternating sum of the reciprocity law's
    right-hand sides, s(p, q) + s(q, p) = (p/q + q/p + 1/(pq))/12 - 1/4,
    along Euclid's remainders of (q, p), with s(0, 1) = 0: O(log q) steps.
    The paper-literal version adds (q-1)/4.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1, got {int_text(q)}")
    if not 0 <= p < q and not (p == 0 and q == 1):
        raise DomainError(f"need 0 <= p < q, got p={int_text(p)}, q={int_text(q)}")
    if math.gcd(p, q) != 1:
        raise DomainError(f"p and q must be coprime, got p={int_text(p)}, q={int_text(q)}")
    value, sign, a, b = Fraction(0), 1, p, q
    while a:
        value += sign * (Fraction(a * a + b * b + 1, 12 * a * b) - Fraction(1, 4))
        sign, a, b = -sign, b % a, a
    if convention is DedekindConvention.PAPER_LITERAL:
        value += Fraction(q - 1, 4)
    return DedekindValue(value, convention)


class FactoredA(NamedTuple):
    """A_q(n) = sign * sqrt(num/den) * prod cos(pi*r/s) over the pairs
    (r, s) of `cospi`, each with 0 <= r <= s; sign is 0 when A_q(n) = 0."""

    sign: int
    num: int
    den: int
    cospi: tuple[tuple[int, int], ...]

    def __float__(self) -> float:
        """A_q(n) in doubles."""
        a = self.sign * math.sqrt(self.num / self.den)
        for r, s in self.cospi:
            a *= math.cos(math.pi * r / s)
        return a


def _sqrt_mod(a: int, p: int, mod: int) -> int | None:
    """A square root of a modulo mod = p^j, p an odd prime not dividing a,
    or None when there is none: Tonelli-Shanks mod p, then Hensel lifting
    one power of p at a time."""
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = odd * 2^s
    odd = (p - 1) >> s
    t, r = pow(a, odd, p), pow(a, (odd + 1) // 2, p)
    if t != 1:
        z = 2  # the least non-residue
        while pow(z, (p - 1) // 2, p) == 1:
            z += 1
        c = pow(z, odd, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        if i == s:
            return None  # t of order 2^s: a is no square mod p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    if mod > p:
        # a Newton step with 1/(2r) fixed mod p gains one power of p
        inv = pow(2 * r, -1, mod)
        pk = p
        while pk < mod:
            pk *= p
            r = (r - (r * r - a) * inv) % mod
    return r


def _sqrt_mod_2(a: int, mod: int) -> int:
    """A square root of a = 1 (mod 8) modulo mod = 2^j, j >= 3, lifted bit
    by bit: if x^2 = a (mod 2^i), x or x + 2^(i-1) is a root mod 2^(i+1)."""
    x, m = 1, 8
    while m < mod:
        if (x * x - a) % (2 * m):
            x += m // 2
        m *= 2
    return x


def _cospi_arg(r: int, s: int) -> tuple[int, int]:
    """(r', s) with 0 <= r' <= s and cos(pi*r'/s) = cos(pi*r/s)."""
    r %= 2 * s
    return min(r, 2 * s - r), s


# The most (q, n mod q) pairs factored_a keeps: all 4095 of q <= 90, so
# every residue of every term of p(n) for n up to 16 131 (N <= 90)
_A_CACHE_SIZE = 4096


def factored_a(q: int, n: int) -> FactoredA:
    """A_q(n), the root-of-unity sum of the exact partition series in the
    classical convention, as a product over the prime powers k = p^lam of q.

    Whiteman (1956; Johansson, arXiv:1205.5991, section 2) splits
    A_q(n) = A_{k1}(n1) A_{k2}(n2) for coprime q = k1*k2, with n1 and n2
    from congruences in three cases: k1 = 2, k1 = 4, and the rest, with
    d1 = gcd(24, k1), d2 = gcd(24, k2) and 24 = d1*d2*e.  Written for
    D = 1 - 24n and D_i = 1 - 24n_i, the three cases say the same thing,
    D_i = D (q/k_i)^-2 modulo 8k_i (p = 2), 3k_i (p = 3) or k_i (p > 3), and
    so does each further split of k2.  So each prime power takes one square
    root x of D modulo 8k, 3k or k, with k2 = q/k:

        k = 2:  (-1)^(n - (k2^2 - 1)/8)
        p = 2:  (-1)^lam (-1|m) sqrt(k) sin(pi m/(2k)),         m = x/(3k2) mod 8k
        p = 3:  2 (-1)^(lam+1) (m|3) sqrt(k/3) sin(4 pi m/(3k)), m = x/(8k2) mod 3k
        p > 3:  2 (3|k) sqrt(k) cos(4 pi m/k),                  m = x/(24k2) mod k,
                (3|k) sqrt(k) if p divides D and lam = 1,
                and 0 if D is no square mod k or p divides D and lam > 1.

    The primes come from trial division.  That is O(log q) modular work and
    omega(q) cosines, none for A_1 = 1 and A_2 = +-1.

    All of this depends on n only through n mod q: each root is of D modulo
    a divisor of 24q, and the k = 2 sign is that of n mod 2.  So results are
    kept in a least-recently-used cache keyed by (q, n mod q), at most
    _A_CACHE_SIZE of them, which serves runs of consecutive n.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    return _factored_a(q, n % q)


@functools.lru_cache(maxsize=_A_CACHE_SIZE)
def _factored_a(q: int, n: int) -> FactoredA:
    """factored_a for 0 <= n < q."""
    d = 1 - 24 * n
    sign, num, den, cospi = 1, 1, 1, []
    rest, p = q, 2
    while rest > 1:
        while rest % p:
            p = rest if p * p > rest else p + 1 + (p > 2)
        k, lam = p, 1
        rest //= p
        while rest % p == 0:
            k, lam, rest = k * p, lam + 1, rest // p
        k2 = q // k
        if k == 2:
            sign *= 1 - 2 * ((n - (k2 * k2 - 1) // 8) % 2)
            continue
        if p == 2:
            m = _sqrt_mod_2(d, 8 * k) * pow(3 * k2, -1, 8 * k) % (8 * k)
            sign *= (-1) ** lam * (1 if m % 4 == 1 else -1)
            arg = _cospi_arg(k - m, 2 * k)
        elif p == 3:
            m = _sqrt_mod(d, 3, 3 * k) * pow(8 * k2, -1, 3 * k) % (3 * k)
            sign *= 2 * (-1) ** (lam + 1) * (1 if m % 3 == 1 else -1)
            den = 3
            arg = _cospi_arg(3 * k - 8 * m, 6 * k)
        else:
            # (3|p) = 1 exactly for p = +-1 (mod 12), by quadratic reciprocity
            jacobi_3 = (1 if p % 12 in (1, 11) else -1) ** lam
            if d % p == 0:
                if lam > 1:
                    return FactoredA(0, 0, 1, ())
                sign *= jacobi_3
                num *= k
                continue
            x = _sqrt_mod(d, p, k)
            if x is None:
                return FactoredA(0, 0, 1, ())
            m = x * pow(24 * k2, -1, k) % k
            sign *= 2 * jacobi_3
            arg = _cospi_arg(4 * m, k)
        num *= k
        cospi.append(arg)
    return FactoredA(sign, num, den, tuple(cospi))
