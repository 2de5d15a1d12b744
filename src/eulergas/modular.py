"""Generating-function evaluation on the disk and upper half plane.

The partition generating product, the eta function with its shift/inversion
transforms, the weight-two Eisenstein series, the dominant closed-form term,
the crude exponential estimate, and the exact convergent series for p(n)
with integer rounding.

The exact series needs working precision beyond 53 bits once p(n) outgrows
doubles (n around 300): its large terms run on mpmath, each with the bits
its own size needs, and its small terms in doubles, all under an explicit
error bound.  Everything else is double precision, truncated where the
dropped part falls below a fixed relative error of 1e-12.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import mpmath as mp

from .arith import FactoredA, factored_a
from .errors import ConvergenceError, DomainError, PrecisionError

__all__ = [
    "partition_generating", "eta", "EtaTransform", "eta_transform",
    "functional_equation_rhs", "eisenstein_g2",
    "RademacherResult", "rademacher_p", "leading_term_p", "asymptotic_p",
]

_GUARD_BAND = 1e-9  # |y| must stay this far inside the unit circle
# Target relative error of the Z and eta products and of G2, least working
# precision of the exact p(n) series, and the most terms any product or
# series may take before PrecisionError
_REL_TOL = 1e-12
_WORK_BITS = 64
_MAX_TERMS = 5_000_000
# Z(e^{-x}) exceeds the largest double below this x: the root of
# -x/24 + ln(x/2pi)/2 + pi^2/(6x) = ln(DBL_MAX), rounded up
Z_OVERFLOW_X = 2.3047e-3


def _require_inside(abs_y: float) -> None:
    """PrecisionError when |y| is within the guard band of the unit circle
    (also when it rounds to 1), DomainError when it is nan."""
    if math.isnan(abs_y):
        raise DomainError("need finite y, got |y| = nan")
    if abs_y >= 1.0 - _GUARD_BAND:
        raise PrecisionError(
            f"|y| = {abs_y} is within {_GUARD_BAND} of the unit circle", 0)


def _product_length(abs_y: float) -> int:
    """Smallest N with |y|^N below _REL_TOL*(1-|y|), so the dropped tail of
    log(product) is below _REL_TOL; 0 when |y| is 0, where the product is
    exactly 1.  Refuses |y| as _require_inside does.
    """
    _require_inside(abs_y)
    if abs_y == 0.0:
        return 0
    cut = _REL_TOL * (1.0 - abs_y)
    n = int(math.log(cut) / math.log(abs_y)) + 1
    return max(n, 1)


def partition_generating(y: complex | float) -> complex | float:
    """Evaluate prod_{n>=1} (1 - y^n)^{-1} strictly inside the unit disk.

    Real y in (0, 1) returns a float > 1.  Raises PrecisionError when |y|
    is within the guard band of the circle or the product would exceed the
    term budget, and DomainError when the product overflows a double.
    """
    n_terms = _product_length(abs(y))
    if n_terms > _MAX_TERMS:
        raise PrecisionError(
            f"product needs {n_terms} terms, budget is {_MAX_TERMS}", n_terms)
    if isinstance(y, complex) and y.imag != 0.0:
        prod = 1.0 + 0.0j
        yn = y
        for _ in range(n_terms):
            prod /= 1.0 - yn
            yn *= y
    else:
        yr = float(y.real) if isinstance(y, complex) else float(y)
        prod = 1.0
        yn_r = yr
        for _ in range(n_terms):
            prod /= 1.0 - yn_r
            yn_r *= yr
    if not cmath.isfinite(prod):
        raise DomainError(f"Z(y) at y = {y} overflows a double; Z(e^-x) "
                          f"fits only for x >= {Z_OVERFLOW_X:g}")
    return prod


def _require_upper_half(tau: complex) -> complex:
    tau = complex(tau)
    if not (cmath.isfinite(tau) and tau.imag > 0.0):
        raise DomainError(f"need finite tau with Im(tau) > 0, got {tau}")
    return tau


def eta(tau: complex) -> complex:
    """eta(tau) = exp(i*pi*tau/12) * prod (1 - y^n) with y = exp(2*i*pi*tau).

    Raises PrecisionError when |y| rounds to within the guard band of 1
    (Im tau below about 1.6e-10).  Once |y| underflows (Im tau above about
    119) the product is exactly 1.
    """
    tau = _require_upper_half(tau)
    # eta(tau + 24) = eta(tau): reduce Re(tau) exactly, so that a huge real
    # part cannot overflow 2*pi*tau
    tau = complex(math.fmod(tau.real, 24.0), tau.imag)
    y = cmath.exp(2j * math.pi * tau)
    n_terms = _product_length(abs(y))
    if n_terms > _MAX_TERMS:
        raise PrecisionError(
            f"eta product needs {n_terms} terms, budget is {_MAX_TERMS}",
            n_terms)
    prod = 1.0 + 0.0j
    yn = y
    for _ in range(n_terms):
        prod *= 1.0 - yn
        yn *= y
    return cmath.exp(1j * math.pi * tau / 12.0) * prod


class EtaTransform(Enum):
    SHIFT = "shift"          # predicts eta(tau + 1)
    INVERSION = "inversion"  # predicts eta(-1/tau)


def eta_transform(tau: complex, which: EtaTransform) -> complex:
    """Right-hand side of the degree -1/2 transformation law.

    SHIFT returns exp(i*pi/12)*eta(tau); INVERSION returns
    sqrt(tau/i)*eta(tau) with the principal square root.  Callers compare
    against direct evaluation at tau+1 or -1/tau.
    """
    tau = _require_upper_half(tau)
    base = eta(tau)
    if which is EtaTransform.SHIFT:
        return cmath.exp(1j * math.pi / 12.0) * base
    if which is EtaTransform.INVERSION:
        return cmath.sqrt(tau / 1j) * base
    raise DomainError(f"unknown transform {which!r}")


def functional_equation_rhs(x: float) -> float:
    """Dual-scale prediction of Z(e^{-x}) from the modular inversion:

        Z(y) = y^{1/24} / sqrt(2*pi) * x^{1/2} * exp(pi^2/(6x)) * Z(y'),
        y = e^{-x},  y' = e^{-4*pi^2/x}.

    For x <= 1 the Z(y') factor differs from 1 by less than e^{-4*pi^2}.
    Below x = Z_OVERFLOW_X the value exceeds a double and DomainError is
    raised.
    """
    if x <= 0.0:
        raise DomainError(f"need x > 0, got {x}")
    if x < Z_OVERFLOW_X:
        raise DomainError(f"Z(e^-x) at x = {x:g} overflows a double; it "
                          f"fits only for x >= {Z_OVERFLOW_X:g}")
    z_dual = partition_generating(math.exp(-4.0 * math.pi ** 2 / x))
    log_head = (-x / 24.0 + 0.5 * math.log(x / (2.0 * math.pi))
                + math.pi ** 2 / (6.0 * x))
    return math.exp(log_head) * float(z_dual)


def eisenstein_g2(tau: complex) -> complex:
    """Weight-two Eisenstein series from its Fourier expansion:

        G2(tau) = 2*zeta(2) + 2*(2*i*pi)^2 * sum sigma_1(n) y^n,

    with the divisor sum taken in Lambert form sum d y^d/(1 - y^d).
    Truncated by the geometric tail bound sum_{d>D} d r^d/(1 - r^{D+1}).
    Like eta, raises PrecisionError when |y| rounds to within the guard
    band of 1.
    """
    tau = _require_upper_half(tau)
    # G2(tau + 1) = G2(tau): reduce Re(tau) exactly, so that a huge real
    # part cannot overflow 2*pi*tau
    tau = complex(math.fmod(tau.real, 1.0), tau.imag)
    y = cmath.exp(2j * math.pi * tau)
    r = abs(y)
    _require_inside(r)
    const = math.pi ** 2 / 3.0  # 2*zeta(2)
    if r == 0.0:
        return complex(const, 0.0)
    acc = 0.0 + 0.0j
    yd = 1.0 + 0.0j
    d = 0
    omr = 1.0 - r
    while True:
        d += 1
        yd *= y
        acc += d * yd / (1.0 - yd)
        # sum_{m>d} m r^m = r^{d+1} ((d+1)/(1-r) + r/(1-r)^2), and every
        # dropped denominator has |1 - y^m| >= 1 - r^{d+1}
        tail = (r ** (d + 1) * ((d + 1) / omr + r / omr ** 2)
                / (1.0 - r ** (d + 1)))
        scale = max(abs(acc), const / (8.0 * math.pi ** 2))
        if tail <= _REL_TOL * scale:
            break
        if d > _MAX_TERMS:
            raise PrecisionError("G2 series exceeded term budget", d)
    return const - 8.0 * math.pi ** 2 * acc


# ---------------------------------------------------------------------------
# Closed forms and the exact series for p(n)
# ---------------------------------------------------------------------------

def asymptotic_p(n: int) -> float:
    """Crude exponential estimate exp(pi*sqrt(2n/3))/(4n*sqrt(3))."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return math.exp(math.pi * math.sqrt(2.0 * n / 3.0)) / (4.0 * n * math.sqrt(3.0))


def leading_term_p(n: int) -> float:
    """Dominant closed-form term (1/(2*pi*sqrt(2))) d/dn exp(K*lam)/lam,
    K = pi*sqrt(2/3), lam = sqrt(n - 1/24), with the derivative in closed
    form: exp(K*lam)*(K*lam - 1)/(4*pi*sqrt(2)*lam^3)."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    k = math.pi * math.sqrt(2.0 / 3.0)
    lam = math.sqrt(n - 1.0 / 24.0)
    return math.exp(k * lam) * (k * lam - 1.0) / (4.0 * math.pi * math.sqrt(2.0) * lam ** 3)


@dataclass(frozen=True)
class RademacherResult:
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


def _term_double(q: int, lam: float, a: FactoredA) -> float:
    """Term q of the series in doubles."""
    kq = _K / q
    e = math.exp(kq * lam)
    # K_q cosh(u) - sinh(u)/lam with cosh and sinh from one exponential
    deriv = ((kq - 1.0 / lam) * e + (kq + 1.0 / lam) / e) / (4.0 * lam * lam)
    return math.sqrt(q) * deriv / (math.pi * math.sqrt(2.0)) * float(a)


def _term_mp(q: int, lam, k, a: FactoredA):
    """Term q of the series as an mpf at the current precision, from lam
    and K = pi*sqrt(2/3) given at least as precise."""
    kq = k / q
    e = mp.exp(kq * lam)
    deriv = ((kq - 1 / lam) * e + (kq + 1 / lam) / e) / (4 * lam * lam)
    # sqrt(q)/(pi*sqrt(2)) * A_q(n), with sqrt(q) and sqrt(num/den) in one
    term = a.sign * mp.sqrt(mp.mpf(q * a.num) / (2 * a.den)) / mp.pi * deriv
    for r, s in a.cospi:
        term *= mp.cospi(mp.mpf(r) / s)
    return term


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
    remainder bound is below 1/5.  Term q, of size about exp(K_1*lam/q),
    gets only the bits it needs to keep its absolute error below 2^-24/N,
    and never fewer than 64; a term small enough for that in doubles is
    evaluated in doubles under the same explicit bound.  The sum is
    accumulated at the precision of the q = 1 term.  The result's
    error_bound is the remainder bound plus the evaluation error, and the
    value is certified only when residual + error_bound < 1/2; otherwise
    ConvergenceError is raised.  PrecisionError is raised up front when N
    would exceed 5e6 terms (n above about 4.7e14).

    p(0) = p(1) = 1 are returned directly: the remainder bound needs n >= 2.
    """
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    if n <= 1:
        return RademacherResult(n, 1, 0, 0.0, 0.0)
    # The bound falls strictly as N grows: d/dN of sqrt(N) sinh(a), with
    # a = K sqrt(n)/N, is (sinh a - 2a cosh a)/(2 sqrt(N)) < 0.  So if it
    # is not below the target at the budget, no N within the budget will
    # do, and the search below would count up to the budget in vain.
    if _remainder_bound(n, _MAX_TERMS) >= _REM_TARGET:
        raise PrecisionError(f"series for p({n}) needs more than "
                             f"{_MAX_TERMS} terms, budget is {_MAX_TERMS}",
                             _MAX_TERMS + 1)
    # the first part of the bound alone rules out every smaller N
    n_terms = math.ceil((_REM_A / _REM_TARGET) ** 2)
    while _remainder_bound(n, n_terms) >= _REM_TARGET:
        n_terms += 1
    guard = _EVAL_BITS + n_terms.bit_length()
    lam = math.sqrt(n - 1.0 / 24.0)

    # Per term: log2 of a bound on its size, and of the number of units of
    # 2^-bits by which its evaluation can be off.  The argument u = K_q*lam
    # carries a relative error of a few units, which cosh and sinh magnify
    # by u; the rest is a few dozen roundings plus a few units per cosine,
    # each of an argument in [0, pi].  |A_q(n)| is at most
    # |sign|*sqrt(num/den), as every cosine is at most 1 in size.  Doubles
    # count as 52 bits, to cover libm's last-bit errors.
    plan = []
    for q in range(1, n_terms + 1):
        a = factored_a(q, n)
        if not a.sign:
            continue  # A_q(n) = 0 exactly
        a_bound = abs(a.sign) * math.sqrt(a.num / a.den)
        kq = _K / q
        u = kq * lam
        log2_size = (u + math.log(math.sqrt(q) * a_bound * (kq + 1.0 / lam)
                                  / (2.0 * lam * lam * math.pi * math.sqrt(2.0)))
                     ) / math.log(2.0)
        log2_units = math.log2(16.0 * (u + len(a.cospi) + 4.0))
        need = math.ceil(log2_size + log2_units) + guard
        bits = 0 if need <= 52 else max(need, _WORK_BITS)
        plan.append((q, a, bits, log2_size, log2_units))
    sum_bits = max(_WORK_BITS, plan[0][2])

    eval_err = 0.0
    doubles: list[float] = []
    doubles_size = 0.0
    total = mp.mpf(0)
    with mp.workprec(sum_bits):
        lam_mp = mp.sqrt(mp.mpf(24 * n - 1) / 24)
        k_mp = mp.pi * mp.sqrt(mp.mpf(2) / 3)
    for q, a, bits, log2_size, log2_units in plan:
        eval_err += 2.0 ** (log2_size + log2_units - (bits or 52))
        if not bits:
            doubles.append(_term_double(q, lam, a))
            doubles_size += 2.0 ** log2_size
            continue
        with mp.workprec(bits):
            term = _term_mp(q, lam_mp, k_mp, a)
        with mp.workprec(sum_bits):
            total += term
    with mp.workprec(sum_bits):
        total += math.fsum(doubles)
        rounded = mp.nint(total)
        residual = float(abs(total - rounded))
    # fsum rounds once, by at most 2^-53 of the doubles' sizes; each of the
    # other additions by at most 2^-sum_bits of a partial sum, itself below
    # the sum of all the sizes
    log2_total = max(p[3] for p in plan) + n_terms.bit_length()
    additions = len(plan) - len(doubles) + 1
    eval_err += doubles_size * 2.0 ** -53 \
        + additions * 2.0 ** (log2_total - sum_bits)

    error_bound = _remainder_bound(n, n_terms) + eval_err
    if residual + error_bound < 0.5:
        return RademacherResult(n, int(rounded), n_terms, residual,
                                error_bound)
    raise ConvergenceError(
        f"series for p({n}) is not certified: residual {residual:.3g} + "
        f"error bound {error_bound:.3g} >= 1/2 after {n_terms} terms",
        terms_used=n_terms, residual=residual)
