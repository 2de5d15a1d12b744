"""Generating-function evaluation on the disk and upper half plane.

The partition generating product, the eta function with its shift/inversion
transforms, the weight-two Eisenstein series, the dominant closed-form term,
the crude exponential estimate, and the exact convergent series for p(n)
with integer rounding.

The exact series needs working precision beyond 53 bits once p(n) outgrows
doubles (n around 300); that path runs on mpmath with the bit count chosen
from n.  Everything else is double precision under a PrecisionPolicy.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from enum import Enum

import mpmath as mp

from .arith import (DEFAULT_POLICY, DedekindConvention, PrecisionPolicy,
                    kloosterman_phases)
from .errors import ConvergenceError, DomainError, PrecisionError

__all__ = [
    "partition_generating", "eta", "EtaTransform", "eta_transform",
    "functional_equation_rhs", "eisenstein_g2",
    "RademacherResult", "rademacher_p", "leading_term_p", "asymptotic_p",
]

_GUARD_BAND = 1e-9  # |y| must stay this far inside the unit circle
# Z(e^{-x}) exceeds the largest double below this x: the root of
# -x/24 + ln(x/2pi)/2 + pi^2/(6x) = ln(DBL_MAX), rounded up
Z_OVERFLOW_X = 2.3047e-3


def _product_length(abs_y: float, policy: PrecisionPolicy) -> int:
    """Smallest N with |y|^N below rel_tol*(1-|y|), so the dropped tail of
    log(product) is below rel_tol."""
    cut = policy.rel_tol * (1.0 - abs_y)
    n = int(math.log(cut) / math.log(abs_y)) + 1
    return max(n, 1)


def partition_generating(y: complex | float,
                         policy: PrecisionPolicy = DEFAULT_POLICY) -> complex | float:
    """Evaluate prod_{n>=1} (1 - y^n)^{-1} strictly inside the unit disk.

    Real y in (0, 1) returns a float > 1.  Raises PrecisionError when |y|
    is within the guard band of the circle or the product would exceed the
    term budget, and DomainError when the product overflows a double.
    """
    abs_y = abs(y)
    if abs_y >= 1.0 - _GUARD_BAND:
        raise PrecisionError(
            f"|y| = {abs_y} is within {_GUARD_BAND} of the unit circle", 0)
    if abs_y == 0.0:
        return 1.0
    n_terms = _product_length(abs_y, policy)
    if n_terms > policy.max_terms:
        raise PrecisionError(
            f"product needs {n_terms} terms, budget is {policy.max_terms}",
            n_terms)
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
    if not tau.imag > 0.0:
        raise DomainError(f"need Im(tau) > 0, got {tau}")
    return tau


def eta(tau: complex, policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """eta(tau) = exp(i*pi*tau/12) * prod (1 - y^n) with y = exp(2*i*pi*tau)."""
    tau = _require_upper_half(tau)
    y = cmath.exp(2j * math.pi * tau)
    n_terms = _product_length(abs(y), policy)
    if n_terms > policy.max_terms:
        raise PrecisionError(
            f"eta product needs {n_terms} terms, budget is {policy.max_terms}",
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


def eta_transform(tau: complex, which: EtaTransform,
                  policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Right-hand side of the degree -1/2 transformation law.

    SHIFT returns exp(i*pi/12)*eta(tau); INVERSION returns
    sqrt(tau/i)*eta(tau) with the principal square root.  Callers compare
    against direct evaluation at tau+1 or -1/tau.
    """
    tau = _require_upper_half(tau)
    base = eta(tau, policy)
    if which is EtaTransform.SHIFT:
        return cmath.exp(1j * math.pi / 12.0) * base
    if which is EtaTransform.INVERSION:
        return cmath.sqrt(tau / 1j) * base
    raise DomainError(f"unknown transform {which!r}")


def functional_equation_rhs(x: float,
                            policy: PrecisionPolicy = DEFAULT_POLICY) -> float:
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
    z_dual = partition_generating(math.exp(-4.0 * math.pi ** 2 / x), policy)
    log_head = (-x / 24.0 + 0.5 * math.log(x / (2.0 * math.pi))
                + math.pi ** 2 / (6.0 * x))
    return math.exp(log_head) * float(z_dual)


def eisenstein_g2(tau: complex,
                  policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Weight-two Eisenstein series from its Fourier expansion:

        G2(tau) = 2*zeta(2) + 2*(2*i*pi)^2 * sum sigma_1(n) y^n,

    with the divisor sum taken in Lambert form sum d y^d/(1 - y^d).
    Truncated by the geometric tail bound sum_{d>D} d r^d/(1 - r^{D+1}).
    """
    tau = _require_upper_half(tau)
    y = cmath.exp(2j * math.pi * tau)
    r = abs(y)
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
        if tail <= policy.rel_tol * scale:
            break
        if d > policy.max_terms:
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
    """Outcome of the exact series: rounded value plus rounding metadata."""

    n: int
    value: int
    terms_used: int
    residual: float
    convention: DedekindConvention


_aq_lock = threading.Lock()
_aq_cache: dict[tuple[int, int, DedekindConvention, int], tuple] = {}


def _required_bits(n: int, policy: PrecisionPolicy) -> int:
    # magnitude of p(n) in bits plus guard, rounded to 64-bit buckets
    need = int(math.pi * math.sqrt(2.0 * max(n, 1) / 3.0) / math.log(2.0)) + 64
    need = max(need, policy.work_bits)
    return ((need + 63) // 64) * 64


def _a_q(q: int, n: int, convention: DedekindConvention, bits: int):
    """A_q(n) as an (mpf, mpf) pair at the given precision, cached.

    A_q(n) only depends on n mod q, so the cache is tiny and shared by
    whole sweeps over n.
    """
    key = (q, n % q, convention, bits)
    hit = _aq_cache.get(key)
    if hit is not None:
        return hit
    with mp.workprec(bits):
        re = mp.mpf(0)
        im = mp.mpf(0)
        for t in kloosterman_phases(q, n, convention):
            arg = mp.mpf(t.numerator) / t.denominator
            re += mp.cospi(arg)
            im += mp.sinpi(arg)
    pair = (re, im)
    with _aq_lock:
        _aq_cache[key] = pair
    return pair


def rademacher_p(n: int,
                 convention: DedekindConvention = DedekindConvention.CLASSICAL_SAWTOOTH,
                 policy: PrecisionPolicy = DEFAULT_POLICY) -> RademacherResult:
    """Exact p(n) from the convergent series over Farey denominators:

        p(n) = (1/(pi*sqrt(2))) * sum_q sqrt(q) A_q(n)
               * d/dn [ sinh(K_q*lam)/lam ],
        K_q = (pi/q)*sqrt(2/3),  lam = sqrt(n - 1/24),

    with the derivative in closed form
        (1/(2*lam^2)) * (K_q*cosh(K_q*lam) - sinh(K_q*lam)/lam).

    Truncation starts at ceil(2*sqrt(n)) terms and extends geometrically
    until the residual |sum - round(sum)| stays below 0.25 across three
    consecutive checkpoints with a stable rounded value.
    """
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    if n == 0:
        return RademacherResult(0, 1, 0, 0.0, convention)
    bits = _required_bits(n, policy)
    with mp.workprec(bits):
        lam = mp.sqrt(mp.mpf(24 * n - 1) / 24)
        kq_base = mp.pi * mp.sqrt(mp.mpf(2) / 3)
        prefactor = 1 / (mp.pi * mp.sqrt(2))
        inv_two_lam2 = 1 / (2 * lam * lam)

        def term(q: int):
            kq = kq_base / q
            u = kq * lam
            deriv = inv_two_lam2 * (kq * mp.cosh(u) - mp.sinh(u) / lam)
            a_re, a_im = _a_q(q, n, convention, bits)
            scale = prefactor * mp.sqrt(q) * deriv
            return scale * a_re, scale * a_im

        q_checkpoint = max(2, math.ceil(2.0 * math.sqrt(n)))
        q_cap = max(64, 16 * math.ceil(math.sqrt(n)))
        sum_re = mp.mpf(0)
        sum_im = mp.mpf(0)
        q_done = 0
        stable = 0
        last_round = None
        residual = math.inf
        while q_checkpoint > q_done:
            for q in range(q_done + 1, q_checkpoint + 1):
                t_re, t_im = term(q)
                sum_re += t_re
                sum_im += t_im
            q_done = q_checkpoint
            rounded = mp.nint(sum_re)
            residual = float(mp.sqrt((sum_re - rounded) ** 2 + sum_im ** 2))
            if residual < 0.25 and (last_round is None or rounded == last_round):
                stable += 1
                last_round = rounded
                if stable >= 3:
                    return RademacherResult(n, int(rounded), q_done,
                                            residual, convention)
            else:
                stable = 1 if residual < 0.25 else 0
                last_round = rounded if residual < 0.25 else None
            q_checkpoint = min(max(q_checkpoint + 4,
                                   math.ceil(1.3 * q_checkpoint)), q_cap)
    raise ConvergenceError(
        f"series for p({n}) did not stabilize (residual {residual:.3g} "
        f"after {q_done} terms, convention {convention.value})",
        terms_used=q_done, residual=residual, convention=convention.value)
