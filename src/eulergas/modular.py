"""Generating-function evaluation on the disk and upper half plane.

The partition generating product, the dual-scale functional equation, the
dominant closed-form term, the crude exponential estimate, and the exact
convergent series for p(n) with integer rounding.  eta, its shift/inversion
transforms and the weight-two Eisenstein series live in thermo, next to
the per-mode kernel, and are imported back here.

The exact series needs working precision beyond 53 bits once p(n) outgrows
doubles (n around 300).  Its large terms are fixed-point Python ints, each
with the fractional bits its own size needs, every product truncated once
and the error of each term a proved count of units; its small terms are
doubles, under an explicit bound.  Only pi, exp and cos(pi x) come from
mpmath.libmp, each converted once to an int.  This is the only module
that imports mpmath, and it does so at import, so that loading it (not
the first p(n)) pays that cost.  The A_q(n) factors come from arith's
cache, keyed by (q, n mod q).
Everything else is double precision: Z(e^{-x}) on 0 < y < 1 is exp(-F/kT)
from thermo, and Z elsewhere is from eta.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from mpmath.libmp import from_man_exp, mpf_cos_pi, mpf_exp, mpf_pi, to_fixed

from . import thermo
from .arith import FactoredA, factored_a
from .errors import ConvergenceError, DomainError, int_text, require_integer
# eta and G2 live in thermo; these names keep eulergas.modular.eta working
from .thermo import EtaTransform, eisenstein_g2, eta, eta_transform  # noqa: F401

__all__ = [
    "partition_generating", "functional_equation_rhs",
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
# The largest n taken by the exact series: the largest n whose remainder
# bound at 5*10^6 terms is below 1/5
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
    if not abs(y) < 1.0:
        raise DomainError(f"need |y| < 1, got |y| = {abs(y)}")
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


def functional_equation_rhs(x: float) -> float:
    """Dual-scale prediction of Z(e^{-x}) from the modular inversion:

        Z(y) = y^{1/24} / sqrt(2*pi) * x^{1/2} * exp(pi^2/(6x)) * Z(y'),
        y = e^{-x},  y' = e^{-4*pi^2/x},

    the head being thermo's low-frequency exp(-F/kT).  For x <= 1 Z(y')
    differs from 1 by less than e^{-4*pi^2}.  Below x = Z_OVERFLOW_X the
    value exceeds a double and DomainError is raised.
    """
    head = thermo.free_energy_lowfreq(x)  # refuses all but finite x > 0
    if x < Z_OVERFLOW_X:
        raise DomainError(f"Z(e^-x) at x = {x:g} overflows a double; it "
                          f"fits only for x >= {Z_OVERFLOW_X:g}")
    return math.exp(-head) * partition_generating(
        math.exp(-4.0 * math.pi ** 2 / x))


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
    error_bound -- bound on |sum - p(n)|: Rademacher's remainder bound for
                   the terms left out plus the evaluation error of the sum
    The value is returned only when residual + error_bound < 1/2.
    """

    n: int
    value: int
    terms_used: int
    residual: float
    error_bound: float


_K = math.pi * math.sqrt(2.0 / 3.0)
_LN2 = math.log(2.0)
# Rademacher (Proc. LMS 1937), as used by Lehmer (Trans. AMS 1938):
# |p(n) - sum_{q<=N}| < _REM_A/sqrt(N) + _REM_B*sqrt(N/(n-1))*sinh(K*sqrt(n)/N)
_REM_A = 44.0 * math.pi ** 2 / (225.0 * math.sqrt(3.0))
_REM_B = math.pi * math.sqrt(2.0) / 75.0
# every term is evaluated to within 2^-_EVAL_BITS / N
_EVAL_BITS = 24
# Truncate where the remainder bound falls below this.  The residual of a
# correct sum is at most its error bound, so anything below 1/4 certifies;
# a fifth leaves the certificate a margin of about 1/10.
_REM_TARGET = 0.2


def _remainder_bound(n: int, terms: int) -> float:
    """Rademacher's bound on the terms q > `terms` of the series for p(n),
    n >= 2, evaluated in logs; inf where it overflows, also for n beyond
    the range of a double."""
    try:
        a = _K * math.sqrt(n) / terms
        log_sinh = a + math.log1p(-math.exp(-2.0 * a)) - math.log(2.0)
        log_second = (math.log(_REM_B) + 0.5 * math.log(terms / (n - 1))
                      + log_sinh)
        return _REM_A / math.sqrt(terms) + math.exp(log_second)
    except OverflowError:
        return math.inf


def _term_count(n: int) -> int:
    """N for p(n), n >= 2: the least number of terms whose remainder bound
    is below _REM_TARGET."""
    # The bound falls strictly as N grows: d/dN of sqrt(N) sinh(a), with
    # a = K sqrt(n)/N, is (sinh a - 2a cosh a)/(2 sqrt(N)) < 0, so the
    # search can bisect.  The first part of the bound alone exceeds the
    # target at every count up to lo.  Double from there until the bound
    # is below it, then bisect (lo, hi].
    lo = math.ceil((_REM_A / _REM_TARGET) ** 2) - 1
    hi = lo + 1
    while _remainder_bound(n, hi) >= _REM_TARGET:
        lo, hi = hi, 2 * hi
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
    no Dedekind sums.

    N is fixed before any term is summed: the smallest N whose Rademacher
    remainder bound is below 1/5, found by doubling and bisection.  Term
    q, of size about exp(K_1*lam/q), must be off by less than 2^-24/N.  A
    term small enough for that in doubles is evaluated in doubles; every
    other term is a fixed-point Python int with the fractional bits its
    size and its counted error need (_fixed_units), never fewer than 64,
    with e^u and the cosines from mpmath.libmp.  Those ints are summed
    exactly at the scale of the q = 1 term, and the doubles' fsum is added
    to them and the sum rounded.  The result's error_bound is the
    remainder bound plus the counted evaluation error, and the value is
    certified only when residual + error_bound < 1/2; otherwise
    ConvergenceError is raised.  DomainError is raised for non-integer or
    negative n, and up front for n > EXACT_MAX_N (about 4.7e14, where N
    would pass 5e6 terms).

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
    lam = math.sqrt(n - 1.0 / 24.0)
    inv_lam = 1.0 / lam
    size_den = 2.0 * lam * lam * math.pi * math.sqrt(2.0)

    # Per term: log2 of a bound on its size, |A_q(n)| being at most
    # |sign|*sqrt(num/den).  In doubles the argument u = K_q*lam carries a
    # relative error of a few units, which cosh and sinh magnify by u; the
    # rest is a few dozen roundings plus a few units per cosine, each of an
    # argument in [0, pi], all within 16*(u + cosines + 4) units of 2^-52
    # (52 bits, to cover libm's last-bit errors).  A term that this keeps
    # below 2^-guard is summed in doubles.
    eval_err = 0.0
    doubles: list[float] = []
    doubles_size = 0.0
    top, total, scale = _WORK_BITS, 0, None
    for q in range(1, n_terms + 1):
        a = factored_a(q, n)
        if not a.sign:
            continue  # A_q(n) = 0 exactly
        a_bound = abs(a.sign) * math.sqrt(a.num / a.den)
        kq = _K / q
        u = kq * lam
        root_q = math.sqrt(q)
        log2_size = (u + math.log(root_q * a_bound * (kq + inv_lam)
                                  / size_den)) / _LN2
        log2_units = math.log2(16.0 * (u + len(a.cospi) + 4.0))
        if math.ceil(log2_size + log2_units) + guard <= 52:
            e = math.exp(u)
            deriv = (((kq - inv_lam) * e + (kq + inv_lam) / e)
                     / (4.0 * lam * lam))
            a_q = a_bound if a.sign > 0 else -a_bound
            for r, s in a.cospi:
                a_q *= math.cos(math.pi * r / s)
            doubles.append(root_q * deriv / (math.pi * math.sqrt(2.0)) * a_q)
            doubles_size += 2.0 ** log2_size
            eval_err += 2.0 ** (log2_size + log2_units - 52)
            continue
        log2_units = _fixed_units(log2_size, len(a.cospi))
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
    eval_err += doubles_size * 2.0 ** -53 + 2.0 ** -top
    value = (total + (1 << (top - 1))) >> top
    residual = abs(total - (value << top)) / (1 << top)

    error_bound = _remainder_bound(n, n_terms) + eval_err
    if residual + error_bound < 0.5:
        return RademacherResult(n, value, n_terms, residual, error_bound)
    raise ConvergenceError(
        f"series for p({n}) is not certified: residual {residual:.3g} + "
        f"error bound {error_bound:.3g} >= 1/2 after {n_terms} terms",
        terms_used=n_terms, residual=residual)
