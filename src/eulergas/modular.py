"""Generating-function evaluation on the disk and upper half plane.

The partition generating product, the dominant closed-form term, the crude
exponential estimate, and the exact convergent series for p(n) with
integer rounding.  eta, its shift/inversion transforms and the weight-two
Eisenstein series live in thermo, next to the per-mode kernel.

The exact series is truncated where a bound on its tail, from |A_q(n)| <=
2^w sqrt(q) (w the number of odd primes dividing q), falls below what the
certificate needs.  It needs working precision beyond 53 bits once p(n)
outgrows doubles (n around 300).  Its large terms are fixed-point Python
ints, each with the fractional bits its own size needs, every product
truncated once and the error of each term a proved count of units; its
small terms are doubles, under an explicit bound.  Only pi, exp and
cos(pi x) come from mpmath.libmp, each converted once to an int.  This is
the only module that imports mpmath, and it does so at import, so that
loading it (not the first p(n)) pays that cost.  Each term's A_q(n)
factors, with the doubles that depend on them alone, come from one
bounded cache here, keyed by (q, n mod q).
Everything else is double precision: Z(e^{-x}) on 0 < y < 1 is exp(-F/kT)
from thermo, and Z elsewhere is from eta.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

from mpmath.libmp import from_man_exp, mpf_cos_pi, mpf_exp, mpf_pi, to_fixed

from . import thermo
from .arith import FactoredA, _factored_a
from .errors import ConvergenceError, DomainError, int_text, require_integer
from .thermo import eta

__all__ = [
    "partition_generating",
    "RademacherResult", "rademacher_p", "leading_term_p", "asymptotic_p",
]

# Least working precision of the exact p(n) series
_WORK_BITS = 64
# Z(e^{-x}) exceeds the largest double below this x: the root of
# -x/24 + ln(x/2pi)/2 + pi^2/(6x) = ln(DBL_MAX), rounded up
Z_OVERFLOW_X = 2.3047e-3
# The largest n whose leading term and crude estimate of p(n) fit a double:
# both logs pass ln(DBL_MAX) between n = 79 445 and 79 446
ESTIMATE_MAX_N = 79_445
# The largest n taken by the exact series: the largest n whose Rademacher
# remainder bound (|A_q(n)| <= q) at 5*10^6 terms is below 1/5
EXACT_MAX_N = 466_735_713_430_801
# ln(DBL_MAX): the largest v for which math.exp(v) does not overflow
_LOG_DBL_MAX = 709.782712893384


def partition_generating(y: complex | float) -> complex | float:
    """Z(y) = prod_{n>=1} (1 - y^n)^{-1} strictly inside the unit disk: for
    real y in (0, 1) the per-mode partition function exp(-F/kT) at x = -ln y
    from thermo, elsewhere e^{i pi tau/12}/eta(tau) at tau = ln y/(2 pi i).
    Raises DomainError for |y| >= 1 (also nan) and where Z overflows a
    double."""
    if not isinstance(y, complex) or y.imag == 0.0:
        y = float(y.real)
    # |y| of a complex y raises OverflowError near the largest double
    if not (abs(y.real) < 1.0 and abs(y.imag) < 1.0 and abs(y) < 1.0):
        raise DomainError(f"need |y| < 1, got y = {y}")
    if y == 0.0:
        return 1.0
    try:
        if isinstance(y, float) and y > 0.0:
            z = math.exp(-thermo.free_energy(-math.log(y)))
        else:
            tau = cmath.log(y) / (2j * math.pi)
            z = cmath.exp(1j * math.pi * tau / 12.0) / eta(tau)
    except (OverflowError, ZeroDivisionError):  # exp > DBL_MAX, eta is 0
        z = math.inf
    if not cmath.isfinite(z):
        raise DomainError(f"Z(y) at y = {y} overflows a double; Z(e^-x) "
                          f"fits only for x >= {Z_OVERFLOW_X:g}")
    return z.real if isinstance(y, float) else z  # Z is real for real y


# ---------------------------------------------------------------------------
# Closed forms and the exact series for p(n)
# ---------------------------------------------------------------------------

def _exp_ratio(v: float, num: float, den: float) -> float:
    """e^v * num / den for 0 < num/den < 1: the product as written wherever
    it stays finite, so that those values do not depend on the overflow
    handling, and exp(v + ln(num/den)) where e^v or e^v * num overflows."""
    if v <= _LOG_DBL_MAX:
        value = math.exp(v) * num / den
        if value < math.inf:
            return value
    return math.exp(v + math.log(num / den))


def _estimate_n(n: int, name: str) -> int:
    """n as an int for the estimate `name` of p(n), or DomainError unless
    it is an integer from 1 to ESTIMATE_MAX_N."""
    n = require_integer("n", n)
    if n < 1:
        raise DomainError(f"need n >= 1, got {int_text(n)}")
    if n > ESTIMATE_MAX_N:
        raise DomainError(f"the {name} of p({int_text(n)}) overflows a "
                          f"double; it fits only for n <= {ESTIMATE_MAX_N}")
    return n


def asymptotic_p(n: int) -> float:
    """Crude exponential estimate exp(pi*sqrt(2n/3))/(4n*sqrt(3)).  Raises
    DomainError for non-integer n, n < 1 and n > ESTIMATE_MAX_N."""
    n = _estimate_n(n, "crude estimate")
    return _exp_ratio(math.pi * math.sqrt(2.0 * n / 3.0), 1.0,
                      4.0 * n * math.sqrt(3.0))


def leading_term_p(n: int) -> float:
    """Dominant closed-form term (1/(2*pi*sqrt(2))) d/dn exp(K*lam)/lam,
    K = pi*sqrt(2/3), lam = sqrt(n - 1/24), with the derivative in closed
    form: exp(K*lam)*(K*lam - 1)/(4*pi*sqrt(2)*lam^3).  Raises DomainError
    for non-integer n, n < 1 and n > ESTIMATE_MAX_N."""
    n = _estimate_n(n, "leading term")
    k = math.pi * math.sqrt(2.0 / 3.0)
    lam = math.sqrt(n - 1.0 / 24.0)
    return _exp_ratio(k * lam, k * lam - 1.0,
                      4.0 * math.pi * math.sqrt(2.0) * lam ** 3)


class RademacherResult(NamedTuple):
    """Outcome of the exact series: the certified value and its certificate.

    residual    -- |sum - round(sum)|
    error_bound -- bound on |sum - p(n)|: the bound on the terms left out
                   from |A_q(n)| <= 2^w sqrt(q) (_remainder_bound) plus
                   the evaluation error of the sum
    The value is returned only when residual + error_bound < 1/2.
    """

    n: int
    value: int
    terms_used: int
    residual: float
    error_bound: float


_K = math.pi * math.sqrt(2.0 / 3.0)
_LN2 = math.log(2.0)
_PI_ROOT2 = math.pi * math.sqrt(2.0)
# The tail bound C*f(K*lam/(N + 1))*T(N) of _remainder_bound: C = K^3/(6 pi
# sqrt(2)), c0 of T(N) = ln 2 + gamma/2 + pi^2/12, and the coefficients
# 6k/(2k + 1)!, k = 9 down to 2, of f's series
_REM_C = _K ** 3 / (6.0 * _PI_ROOT2)
_REM_C0 = _LN2 + 0.5772156649015329 / 2.0 + math.pi ** 2 / 12.0
_F_SERIES = tuple(6.0 * k / math.factorial(2 * k + 1)
                  for k in range(9, 1, -1))
# every term is evaluated to within 2^-_EVAL_BITS / N
_EVAL_BITS = 24
# Truncate where the remainder bound falls below this.  It certifies every
# sum: each of the N terms is off by under 2^-guard <= 2^-24/N, in ints
# and in doubles alike, and the fsum and its conversion add under 2^-30,
# so the evaluation error is under 2^-23 and error_bound < 1/4.  A correct
# sum then lies within error_bound of p(n) and rounds to it, so residual
# <= error_bound and residual + error_bound < 1/2.
_REM_TARGET = 0.25 - 2.0 ** -20


# The most (q, n mod q) records _a_record keeps: all 4095 of q <= 90, so
# every residue of every term of p(n) for n up to 35 495 (N <= 90)
_A_CACHE_SIZE = 4096


class _ARecord(NamedTuple):
    """What term q of the series for p(n) takes from A_q(n): everything
    that depends on (q, n mod q) alone."""

    a: FactoredA
    n_cos: int      # len(a.cospi)
    kq: float       # K_q = K/q
    root_q: float   # sqrt(q)
    lead: float     # sqrt(q) * |sign| * sqrt(num/den), a bound on sqrt(q)|A_q|
    a_q: float      # A_q(n) in doubles


@functools.lru_cache(maxsize=_A_CACHE_SIZE)
def _a_record(q: int, n: int) -> _ARecord | None:
    """The record of term q for 0 <= n < q, or None where A_q(n) = 0
    exactly.  A_q(n) depends on n only through n mod q, so runs of
    consecutive n, as in a sweep, mostly hit the cache."""
    a = _factored_a(q, n)
    if not a.sign:
        return None
    root_q = math.sqrt(q)
    lead = root_q * (abs(a.sign) * math.sqrt(a.num / a.den))
    return _ARecord(a, len(a.cospi), _K / q, root_q, lead, float(a))


def _term_shape(u: float) -> float:
    """f(u) = 3*(u*cosh(u) - sinh(u))/u^3 for u > 0: from its series below
    u = 1, where the difference cancels (the series' terms past k = 9 are
    under 2^-58 of f there), else from e^u; OverflowError where e^u
    overflows."""
    if u < 1.0:
        u2 = u * u
        total = 0.0
        for c in _F_SERIES:
            total = total * u2 + c
        return 1.0 + total * u2
    e = math.exp(u)
    return 1.5 * ((u - 1.0) * e + (u + 1.0) / e) / (u * u * u)


def _odd_divisor_tail(terms: int) -> float:
    """T(N) for N = `terms` >= 1: a bound on sum_{q>N} d_o(q)/q^2, where
    d_o(q) is the number of odd divisors of q, that falls strictly in N.

    With q = c*b, c odd, the sum is sum_c c^-2 sum_{b > N/c} b^-2.  As
    1/b^2 < 1/(b - 1/2) - 1/(b + 1/2), the inner sum is below 1/(N/c - 1/2)
    for c <= N, and it is at most pi^2/6 for c > N, where sum_{c>N} c^-2 <
    1/(2N) over odd c.  Since 1/(c(N - c/2)) = (1/c + 1/(2N - c))/N, the
    part c <= N is (H_o + [N odd]/N)/N, where H_o = sum_{j<=N} 1/(2j - 1)
    = H_2N - H_N/2 < ln(N)/2 + ln 2 + gamma/2 + 1/(24 N^2) by ln m + gamma
    + 1/(2m) - 1/(12 m^2) < H_m < ln m + gamma + 1/(2m).  So the sum is
    below

        T(N) = (ln(N)/2 + c0 + 1/N + 1/(24 N^2))/N,
        c0 = ln 2 + gamma/2 + pi^2/12,

    and N^2 T'(N) < 1/2 - c0 - ln(N)/2 < 0.  T(N) lies at least 6% above
    the sum for every N up to 2000, which covers the few units of 2^-52 by
    which doubles round it and the bound built on it.
    """
    return (0.5 * math.log(terms) + _REM_C0 + 1.0 / terms
            + 1.0 / (24.0 * terms * terms)) / terms


def _remainder_bound(n: int, terms: int) -> float:
    """A bound on the terms q > N = `terms` of the series for p(n), n >= 2;
    inf where e^u overflows, also for n beyond the range of a double.

    Term q is sqrt(q)*A_q(n)/(pi*sqrt(2)) * (u cosh u - sinh u)/(2 lam^3)
    with u = K*lam/q, that is C*f(u)*A_q(n)/q^(5/2) with C = K^3/(6 pi
    sqrt(2)) and

        f(u) = 3(u cosh u - sinh u)/u^3 = sum_{k>=1} 6k u^(2k-2)/(2k + 1)!
             = 1 + u^2/10 + u^4/280 + ...,

    whose coefficients are all positive, so f >= 1 and f increases with u.
    arith._factored_a writes A_q(n) as a product over the prime powers k
    of q of factors of size at most 1 (k = 2), sqrt(k) (k = 2^lam >= 4),
    2 sqrt(k/3) (k = 3^lam) and 2 sqrt(k), sqrt(k) or 0 (k = p^lam, p > 3),
    each cosine at most 1.  So |A_q(n)| <= 2^w sqrt(q), w the number of odd
    primes dividing q (Lehmer; Johansson, arXiv:1205.5991, sec. 2), and
    2^w <= d_o(q), the number of odd divisors of q.  For q > N, u <= K*lam/
    (N + 1), so the tail is at most

        C f(K*lam/(N + 1)) sum_{q>N} d_o(q)/q^2 < C f(K*lam/(N + 1)) T(N)

    with T from _odd_divisor_tail.  Both factors fall strictly as N grows,
    so the bound does too and _term_count can bisect.
    """
    try:
        u = _K * math.sqrt(n - 1.0 / 24.0) / (terms + 1)
        return _REM_C * _term_shape(u) * _odd_divisor_tail(terms)
    except OverflowError:
        return math.inf


def _term_count(n: int) -> int:
    """N for p(n), n >= 2: the least number of terms whose remainder bound
    is below _REM_TARGET."""
    # The bound falls strictly as N grows, so the search can bisect.  With
    # f >= 1 and T(N) > c0/N it exceeds the target at every count up to
    # lo.  Where it crosses the target N + 1 = K*lam/u, with u = ln(K*lam)
    # - delta and delta from 0.66 to 1.27 for every n up to EXACT_MAX_N;
    # the start takes delta = 1 (u at least 1/2), which is within two counts
    # of N for every n up to 5000.  The bound at the start makes it lo or
    # hi.  Step away from it, doubling the step, until the bound finds the
    # other end of the bracket, then bisect (lo, hi].
    lo, hi = math.floor(_REM_C * _REM_C0 / _REM_TARGET), 0
    k_lam = _K * math.sqrt(n - 1.0 / 24.0)
    start = math.floor(k_lam / max(math.log(k_lam) - 1.0, 0.5))
    if start > lo:
        if _remainder_bound(n, start) < _REM_TARGET:
            hi = start
        else:
            lo = start
    step = 1
    if hi:
        while hi - step > lo and _remainder_bound(n, hi - step) < _REM_TARGET:
            hi -= step
            step *= 2
        lo = max(lo, hi - step)
    else:
        while _remainder_bound(n, lo + step) >= _REM_TARGET:
            lo += step
            step *= 2
        hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _remainder_bound(n, mid) < _REM_TARGET:
            hi = mid
        else:
            lo = mid
    return hi


# The high-precision terms are fixed-point ints: x at scale 2^b is the int
# X with X/2^b = x up to the errors counted in _fixed_units.  Their sum is
# one int at the scale 2^top of the q = 1 term, the largest; each term's
# own scale 2^b, b <= top, is shifted up to it exactly.

def _scale(n: int, top: int) -> tuple[int, int, int, int]:
    """(top, g, U, Z): the sum's scale 2^top and the two constants every
    fixed-point term of p(n) shares, both at scale 2^(top + g):

        U = K*lam = pi*sqrt(24n - 1)/6,   Z = 1/(U*(24n - 1)).

    U is off by less than sqrt(24n - 1)/3 + 2 units (pi from mpf_pi to
    within 2, the root exact to 1) and Z by less than 2.  The g =
    2*bitlen(24n - 1) + 8 guard bits leave less than 2^-8 of a unit of
    2^-b, and 2^-8 of Z's size, in what a term at scale 2^b takes from them.
    """
    m = 24 * n - 1
    g = 2 * m.bit_length() + 8
    w = top + g
    big_u = to_fixed(mpf_pi(w + 2), w) * math.isqrt(m << 2 * w) // (6 << w)
    return top, g, big_u, (1 << 2 * w) // (big_u * m)


def _term(q: int, a: FactoredA, bits: int, scale: tuple) -> int:
    """Term q of the series for p(n) as an int at scale 2^bits,

        sign * sqrt(12*q*num/den) * D * prod cos(pi*r/s) / (U*(24n - 1)),
        D = (u - 1)*e^u + (u + 1)*e^-u,   u = K_q*lam = U/q,

    which is rademacher_p's closed-form derivative over lam = sqrt(24n -
    1)/sqrt(24), K_q = u/lam and A_q(n) = sign*sqrt(num/den)*prod cos.  u
    and the cosine arguments keep the scale's g guard bits; e^u and each
    cosine are libmp's at `bits` bits, e^-u is an integer reciprocal, and
    every product is truncated once.  _fixed_units counts the error.
    """
    top, g, big_u, big_z = scale
    k = top - bits
    w = bits + g
    u = (big_u >> k) // q
    e = to_fixed(mpf_exp(from_man_exp(u, -w), bits), bits)
    one = 1 << w
    d = ((u - one) * e + (u + one) * ((1 << 2 * bits) // e)) >> w
    root = math.isqrt((12 * q * a.num << 2 * bits) // a.den)
    t = (d * root * (big_z >> k) * a.sign) >> (2 * bits + g)
    for r, s in a.cospi:
        c = mpf_cos_pi(from_man_exp((r << w) // s, -w), bits)
        t = (t * to_fixed(c, bits)) >> bits
    return t


def _fixed_units(log2_size: float, n_cos: int) -> float:
    """log2 of the count of units of 2^-bits by which _term can be off,
    over the term's size bound 2^log2_size, for any bits >= 64.

    Every truncation is off by less than one unit, and a product by each
    factor's error times the other factors' bounds, with e^u <= e,
    e^-u <= 1, |u - 1| <= u + 1 and |cos| <= 1 (u's and Z's guard bits
    add under 2^-8 of a unit each):
      e^u     libmp rounds down from 14 guard bits: under 2 ulp, 4e units;
      e^-u    the floor of 2^2b/E: under 4.1 + 1 units;
      D       4.1|u - 1|e + 5.1(u + 1) + 1, at most 5.1 times its bound
              2(u + 1)e;
      root    1 unit of sqrt(12q*num/den) >= 2: half its size;
      product 5.1 + 0.5 + 0.01 times the size, plus 1 for its truncation;
      cosine  2 ulp from libmp (10 guard bits), 1 for the conversion and
              pi*2^-g from its argument: 5.01 units times the size of the
              rest, plus 1 for each product's truncation.
    So the term is off by less than (1 + n_cos)*(6*size + 1) units; the
    slack also covers the sizes' own rounding in doubles.
    """
    return math.log2((1 + n_cos) * (6.0 + 2.0 ** -log2_size))


def rademacher_p(n: int) -> RademacherResult:
    """Exact p(n) from the convergent series over Farey denominators:

        p(n) = (1/(pi*sqrt(2))) * sum_{q<=N} sqrt(q) A_q(n)
               * d/dn [ sinh(K_q*lam)/lam ],
        K_q = (pi/q)*sqrt(2/3),  lam = sqrt(n - 1/24),

    with the derivative in closed form
        (1/(2*lam^2)) * (K_q*cosh(K_q*lam) - sinh(K_q*lam)/lam).

    A_q(n), the root-of-unity sum of the classical Dedekind sums, comes
    from arith.factored_a, a product over the prime powers of q of a sign,
    a square root and at most one cosine each: O(log q) modular work and
    no Dedekind sums.  It and the doubles that depend on it alone are
    kept in _a_record's cache, keyed by (q, n mod q).

    N is fixed before any term is summed: the smallest N whose remainder
    bound is below _REM_TARGET = 1/4 - 2^-20, found by stepping out from a
    start near N and bisecting.  The bound takes |A_q(n)| <= 2^w sqrt(q),
    w the number of odd primes dividing q (Lehmer; Johansson,
    arXiv:1205.5991), and the size of each term from its own u = K_q*lam,
    so N is 14 at n = 200 and 21 818 at n = 10^10 (28 and 30 320 with
    Rademacher's |A_q(n)| <= q).  Term q, of size about exp(K_1*lam/q),
    must be off by less than 2^-24/N.  A term small enough for that in
    doubles, as its own e^u shows, is evaluated in doubles; every other
    term is a fixed-point Python int with the fractional bits its size and
    its counted error need (_fixed_units), never fewer than 64, with e^u
    and the cosines from mpmath.libmp.  Those ints are summed exactly at
    the scale of the q = 1 term, and the doubles' fsum is added to them
    and the sum rounded.  The result's error_bound is the remainder bound plus
    the counted evaluation error, and the value is certified only when
    residual + error_bound < 1/2; otherwise ConvergenceError is raised.
    DomainError is raised for non-integer or negative n, and up front for
    n > EXACT_MAX_N (about 4.7e14, the last n whose Rademacher remainder
    bound at 5e6 terms is below 1/5; N there is 3 227 706).

    p(0) = p(1) = 1 are returned directly: the remainder bound needs n >= 2.
    """
    n = require_integer("n", n)
    if n < 0:
        raise DomainError(f"need n >= 0, got {int_text(n)}")
    if n > EXACT_MAX_N:
        raise DomainError(f"exact p(n) takes n <= {EXACT_MAX_N}, "
                          f"got {int_text(n)}")
    if n <= 1:
        return RademacherResult(n, 1, 0, 0.0, 0.0)
    n_terms = _term_count(n)
    guard = _EVAL_BITS + n_terms.bit_length()
    doubles_max = 2.0 ** (52 - guard)
    lam = math.sqrt(n - 1.0 / 24.0)
    inv_lam = 1.0 / lam
    four_lam2 = 4.0 * lam * lam
    size_den = 2.0 * lam * lam * math.pi * math.sqrt(2.0)

    # Per term: a bound on its size, e^u * lead * (K_q + 1/lam)/size_den,
    # |A_q(n)| being at most |sign|*sqrt(num/den).  In doubles the argument
    # u = K_q*lam carries a relative error of a few units, which cosh and
    # sinh magnify by u; the rest is a few dozen roundings plus a few units
    # per cosine, each of an argument in [0, pi], all within
    # 16*(u + cosines + 4) units of 2^-52 (52 bits, to cover libm's
    # last-bit errors).  A term that this keeps below 2^-guard is summed in
    # doubles; its size, and its error times 2^52, are summed apart and
    # scaled once after the loop.
    eval_err = 0.0
    doubles: list[float] = []
    doubles_size = doubles_units = 0.0
    top, total, scale = _WORK_BITS, 0, None
    for q in range(1, n_terms + 1):
        record = _a_record(q, n % q)
        if record is None:
            continue  # A_q(n) = 0 exactly
        a, n_cos, kq, root_q, lead, a_q = record
        u = kq * lam
        ratio = lead * (kq + inv_lam) / size_den
        if u < _LOG_DBL_MAX:
            e = math.exp(u)
            size = e * ratio
            units = 16.0 * (u + n_cos + 4.0)
            if size * units <= doubles_max:
                deriv = ((kq - inv_lam) * e + (kq + inv_lam) / e) / four_lam2
                doubles.append(root_q * deriv / _PI_ROOT2 * a_q)
                doubles_size += size
                doubles_units += size * units
                continue
        # a fixed-point term; where e^u overflows its size lives in logs
        log2_size = (u + math.log(ratio)) / _LN2
        log2_units = _fixed_units(log2_size, n_cos)
        bits = max(math.ceil(log2_size + log2_units) + guard, _WORK_BITS)
        if q == 1:
            # No later term needs more bits, and none is high-precision
            # while this one is not: term q is about e^(-u(1 - 1/q)) times
            # this one, u >= 14 once it is high-precision (n >= 31), and
            # every n up to 10^5 was checked.
            top, scale = bits, _scale(n, bits)
        total += _term(q, a, bits, scale) << (top - bits)
        eval_err += 2.0 ** (log2_size + log2_units - bits)

    # The ints add exactly.  fsum rounds once, by at most 2^-53 of the
    # doubles' sizes, and its conversion to scale 2^top by under 2^-top.
    frac, exp2 = math.frexp(math.fsum(doubles))
    mant, shift = int(math.ldexp(frac, 53)), exp2 - 53 + top
    total += mant << shift if shift >= 0 else mant >> -shift
    eval_err += (doubles_units * 2.0 ** -52 + doubles_size * 2.0 ** -53
                 + 2.0 ** -top)
    value = (total + (1 << (top - 1))) >> top
    residual = abs(total - (value << top)) / (1 << top)

    error_bound = _remainder_bound(n, n_terms) + eval_err
    if residual + error_bound < 0.5:
        return RademacherResult(n, value, n_terms, residual, error_bound)
    raise ConvergenceError(
        f"series for p({n}) is not certified: residual {residual:.3g} + "
        f"error bound {error_bound:.3g} >= 1/2 after {n_terms} terms",
        terms_used=n_terms, residual=residual)
