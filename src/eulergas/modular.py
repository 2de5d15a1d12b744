"""Generating-function evaluation on the disk and upper half plane.

The partition generating product, the dual-scale functional equation, the
dominant closed-form term, the crude exponential estimate, and the exact
convergent series for p(n) with integer rounding.  eta, its shift/inversion
transforms and the weight-two Eisenstein series live in thermo, next to
the per-mode kernel, and are imported back here.

The exact series needs working precision beyond 53 bits once p(n) outgrows
doubles (n around 300): its large terms run on mpmath.libmp's raw values
(sign, mantissa, exponent, bit count), each with the bits its own size
needs and every operation rounded to nearest, and its small terms in
doubles, all under an explicit error bound.  This is the only module that
imports mpmath, and it does so at import, so that loading it (not the
first p(n)) pays that cost.  The A_q(n) factors come from arith's cache,
keyed by (q, n mod q).
Everything else is double precision: Z(e^{-x}) on 0 < y < 1 is exp(-F/kT)
from thermo, and Z elsewhere is from eta.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from mpmath.libmp import (from_float, from_int, fzero, mpf_abs, mpf_add,
                          mpf_cos_pi, mpf_div, mpf_exp, mpf_mul, mpf_mul_int,
                          mpf_nint, mpf_pi, mpf_rdiv_int, mpf_sqrt, mpf_sub,
                          round_nearest, to_float, to_int)

from . import thermo
from .arith import FactoredA, factored_a
from .errors import ConvergenceError, DomainError, PrecisionError
# eta and G2 live in thermo; these names keep eulergas.modular.eta working
from .thermo import EtaTransform, eisenstein_g2, eta, eta_transform  # noqa: F401

__all__ = [
    "partition_generating", "functional_equation_rhs",
    "RademacherResult", "rademacher_p", "leading_term_p", "asymptotic_p",
]

# Least working precision of the exact p(n) series, and the most terms it
# may take before PrecisionError
_WORK_BITS = 64
_MAX_TERMS = 5_000_000
# Z(e^{-x}) exceeds the largest double below this x: the root of
# -x/24 + ln(x/2pi)/2 + pi^2/(6x) = ln(DBL_MAX), rounded up
Z_OVERFLOW_X = 2.3047e-3


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
# the rounding of every high-precision operation, that of mpf arithmetic
_RND = round_nearest
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
    is below _REM_TARGET.  PrecisionError if that exceeds _MAX_TERMS."""
    # The bound falls strictly as N grows: d/dN of sqrt(N) sinh(a), with
    # a = K sqrt(n)/N, is (sinh a - 2a cosh a)/(2 sqrt(N)) < 0.  So if it
    # is not below the target at the budget, no N within the budget will
    # do; and where it is, the search below can bisect.
    if _remainder_bound(n, _MAX_TERMS) >= _REM_TARGET:
        raise PrecisionError(f"series for p({n}) needs more than "
                             f"{_MAX_TERMS} terms, budget is {_MAX_TERMS}",
                             _MAX_TERMS + 1)
    # The first part of the bound alone exceeds the target at every count
    # up to lo.  Double from there until the bound is below it (at the
    # budget at the latest), then bisect (lo, hi].
    lo = math.ceil((_REM_A / _REM_TARGET) ** 2) - 1
    hi = lo + 1
    while _remainder_bound(n, hi) >= _REM_TARGET:
        lo, hi = hi, min(2 * hi, _MAX_TERMS)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _remainder_bound(n, mid) < _REM_TARGET:
            hi = mid
        else:
            lo = mid
    return hi


def _term_double(q: int, lam: float, a: FactoredA) -> float:
    """Term q of the series in doubles."""
    kq = _K / q
    e = math.exp(kq * lam)
    # K_q cosh(u) - sinh(u)/lam with cosh and sinh from one exponential
    deriv = ((kq - 1.0 / lam) * e + (kq + 1.0 / lam) / e) / (4.0 * lam * lam)
    return math.sqrt(q) * deriv / (math.pi * math.sqrt(2.0)) * float(a)


def _term_mp(q: int, lam: tuple, k: tuple, a: FactoredA, prec: int) -> tuple:
    """Term q of the series as a raw mpmath.libmp value at prec bits, from
    lam and K = pi*sqrt(2/3) given at least as precise.  Each operation
    rounds to nearest at prec bits, as mpf arithmetic would."""
    kq = mpf_div(k, from_int(q), prec, _RND)
    e = mpf_exp(mpf_mul(kq, lam, prec, _RND), prec, _RND)
    inv = mpf_rdiv_int(1, lam, prec, _RND)
    # (K_q - 1/lam) e + (K_q + 1/lam)/e over 4 lam^2
    deriv = mpf_div(
        mpf_add(mpf_mul(mpf_sub(kq, inv, prec, _RND), e, prec, _RND),
                mpf_div(mpf_add(kq, inv, prec, _RND), e, prec, _RND),
                prec, _RND),
        mpf_mul(mpf_mul_int(lam, 4, prec, _RND), lam, prec, _RND), prec, _RND)
    # sqrt(q)/(pi*sqrt(2)) * A_q(n), with sqrt(q) and sqrt(num/den) in one
    root = mpf_sqrt(mpf_div(from_int(q * a.num, prec, _RND),
                            from_int(2 * a.den), prec, _RND), prec, _RND)
    term = mpf_mul(mpf_div(mpf_mul_int(root, a.sign, prec, _RND),
                           mpf_pi(prec, _RND), prec, _RND), deriv, prec, _RND)
    for r, s in a.cospi:
        arg = mpf_div(from_int(r, prec, _RND), from_int(s), prec, _RND)
        term = mpf_mul(term, mpf_cos_pi(arg, prec, _RND), prec, _RND)
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
    remainder bound is below 1/5, found by doubling and bisection.  Term
    q, of size about exp(K_1*lam/q), gets only the bits it needs to keep
    its absolute error below 2^-24/N, and never fewer than 64; a term
    small enough for that in doubles is evaluated in doubles under the
    same explicit bound.  The sum is
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
    n_terms = _term_count(n)
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
    total = fzero
    lam_mp = mpf_sqrt(mpf_div(from_int(24 * n - 1, sum_bits, _RND),
                              from_int(24), sum_bits, _RND), sum_bits, _RND)
    k_mp = mpf_mul(mpf_pi(sum_bits, _RND),
                   mpf_sqrt(mpf_div(from_int(2), from_int(3), sum_bits, _RND),
                            sum_bits, _RND), sum_bits, _RND)
    for q, a, bits, log2_size, log2_units in plan:
        eval_err += 2.0 ** (log2_size + log2_units - (bits or 52))
        if not bits:
            doubles.append(_term_double(q, lam, a))
            doubles_size += 2.0 ** log2_size
            continue
        total = mpf_add(total, _term_mp(q, lam_mp, k_mp, a, bits),
                        sum_bits, _RND)
    total = mpf_add(total, from_float(math.fsum(doubles)), sum_bits, _RND)
    rounded = mpf_nint(total, sum_bits, _RND)
    residual = to_float(mpf_abs(mpf_sub(total, rounded, sum_bits, _RND),
                                sum_bits, _RND), rnd=_RND)
    # fsum rounds once, by at most 2^-53 of the doubles' sizes; each of the
    # other additions by at most 2^-sum_bits of a partial sum, itself below
    # the sum of all the sizes
    log2_total = max(p[3] for p in plan) + n_terms.bit_length()
    additions = len(plan) - len(doubles) + 1
    eval_err += doubles_size * 2.0 ** -53 \
        + additions * 2.0 ** (log2_total - sum_bits)

    error_bound = _remainder_bound(n, n_terms) + eval_err
    if residual + error_bound < 0.5:
        return RademacherResult(n, int(to_int(rounded)), n_terms, residual,
                                error_bound)
    raise ConvergenceError(
        f"series for p({n}) is not certified: residual {residual:.3g} + "
        f"error bound {error_bound:.3g} >= 1/2 after {n_terms} terms",
        terms_used=n_terms, residual=residual)
