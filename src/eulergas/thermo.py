"""Per-mode thermodynamics of the equally-spaced-level boson gas.

Exact free energy, occupation number, internal energy, entropy and energy
fluctuation per mode at x = h*nu/kT, their low-frequency closed forms, the
two conventional per-mode comparators, and the Mellin-transform cross-checks

    integral (-ln Z) x^{s-1} dx      = Gamma(s) zeta(s) zeta(s+1)
    integral  N(x)   x^{s-1} dx      = Gamma(s) zeta(s)^2
    integral (E/kTx) x^{s-1} dx      = Gamma(s) zeta(s) zeta(s-1)

With r = e^{-x}, ln Z, E and the fluctuation come from Euler's pentagonal
number theorem, 1/Z = prod (1 - r^d) = sum_k (-1)^k r^{k(3k-1)/2}, and its
two derivatives, and N from Clausen's identity
N = sum r^{m^2} (1 + r^m)/(1 - r^m); both converge like r^{k^2}, so at
x >= 0.9 double precision takes at most 6 pentagonal pairs and 6 Clausen
terms.  Below x = 0.9, F, E and the fluctuation are the closed forms of
the dual-scale functional equation of ln Z, whose parts at 4 pi^2/x are
below half a unit in the last place, and N is Wigert's expansion (the
residues of Gamma(s) zeta(s)^2 x^{-s}), which needs at most 19 terms.  F,
E, S and the fluctuation share one bounded cache; N is computed apart, and
only where it is asked for.  Every recorded tail bound is a true bound:
geometric on the dropped pentagonal and Clausen terms, closed-form on the
parts at 4 pi^2/x, and a contour bound on Wigert's remainder.  There is no
term budget: every finite x > 0 gives finite values, except below
x ~ 3.9e-306, where N exceeds the largest double and every per-mode
quantity raises OverflowError.

The Mellin checks take [0, 0.9] in closed small-x form and the rest term by
term as incomplete gamma functions, with a bound on the error, against
Gamma(s) zeta zeta from math.gamma and an Euler-Maclaurin zeta.  Those two,
zeta(3), Euler's constant and the Bernoulli numbers B_2..B_42 live here,
beside their users, Wigert's expansion, phonon's Debye series and
radiation's zeta(3) factors.  The Planck factor is written in e^{-x} form,
so it vanishes instead of overflowing.

eta(tau) = e^{i pi tau/12} P(y) and the weight-two Eisenstein series
G2(tau) = pi^2/3 + 8 pi^2 P_1/P on the upper half plane, with eta's shift
and inversion laws, are here too: the same pentagonal sums at the complex
y = e^{2 pi i tau}, after an SL2(Z) reduction to Im tau >= 0.9/(2 pi), so
that |y| <= e^{-0.9} as for the per-mode sums.  Nothing in this module
imports mpmath.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, finite

__all__ = [
    "ThermoPerMode", "thermo_per_mode",
    "free_energy", "free_energy_lowfreq",
    "occupation", "occupation_lowfreq",
    "internal_energy", "internal_energy_lowfreq",
    "entropy", "entropy_lowfreq",
    "per_mode_energy_fluctuation",
    "PlanckVariant", "planck_factor",
    "MellinKind", "mellin_check",
    "eta", "EtaTransform", "eta_transform", "eisenstein_g2",
    "riemann_zeta",
]

DUAL_SWITCH = 0.9        # below this x: the closed forms for F, E, S and
                         # the fluctuation, Wigert's expansion for N
TAIL_EPS = 2.0 ** -56    # the pentagonal and Clausen sums stop once their
                         # tail bounds (the p^2-weighted one for the
                         # pentagonal) are below this fraction of their first
                         # term r, Wigert's once its remainder bound is below
                         # it times the leading term
_U = 2.0 ** -53          # the unit roundoff: one rounding moves a double by
                         # at most this fraction of it
# Tail bounds are rounded up by this factor, which covers the relative error
# of evaluating them in floating point (below 1e-14 for every x)
_BOUND_ROUNDING = 1.0 + 1e-12
# and raised to at least the smallest positive double, since a bound that
# underflows to 0 does not bound the positive remainder it stands for
_BOUND_FLOOR = math.ulp(0.0)
# pi^2, 4 pi^2 and 2 pi as the per-mode kernel rounds them, taken once
_PI2 = math.pi ** 2
_FOUR_PI2 = 4.0 * _PI2
_TWO_PI = 2.0 * math.pi
_LOG_2_600 = 600.0 * math.log(2.0)  # ln 2^600, _exp_up's scale


def _exp_up(log_bound: float) -> float:
    """A double >= e^{log_bound} (or 0, where it is below _BOUND_FLOOR):
    rounded up at 2^600 times its size, scaled back and stepped up once."""
    scaled = _BOUND_ROUNDING * math.exp(log_bound + _LOG_2_600)
    unit = math.ldexp(scaled, -600)
    return unit and math.nextafter(unit, math.inf)


def _require_x(x: float) -> float:
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"need finite x > 0, got {x}")
    return x


# ---------------------------------------------------------------------------
# Zeta, Euler's constant and the Bernoulli numbers
# ---------------------------------------------------------------------------

# Bernoulli numbers B_2, B_4, ..., B_42 as exact (numerator, denominator)
# pairs, for Wigert's expansion of N here, riemann_zeta's Euler-Maclaurin
# correction and the Debye function's Bernoulli series in phonon.  Each
# float table built from them divides ints, which CPython rounds correctly.
_BERNOULLI_2K = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
    (-236364091, 2730), (8553103, 6), (-23749461029, 870),
    (8615841276005, 14322), (-7709321041217, 510), (2577687858367, 6),
    (-26315271553053477373, 1919190), (2929993913841559, 6),
    (-261082718496449122051, 13530), (1520097643918070802691, 1806),
)

# Apery's constant zeta(3), correctly rounded; equal to mpmath.fp.zeta(3.0)
ZETA3 = 1.2020569031595942
# Euler's constant gamma, correctly rounded, for Wigert's expansion of N
EULER_GAMMA = 0.5772156649015329

# B_2k/(2k)! for k = 1..11, the coefficients of riemann_zeta's correction
_ZETA_EM = tuple(num / (den * math.factorial(2 * k))
                 for k, (num, den) in enumerate(_BERNOULLI_2K[:11], 1))


def riemann_zeta(s: float) -> float:
    """zeta(s) for finite real s > 1 by Euler-Maclaurin summation from N = 10:

        zeta(s) = sum_{n<N} n^-s + N^{1-s}/(s-1) + N^-s/2
                  + sum_{k=1}^{11} B_2k/(2k)! s(s+1)...(s+2k-2) N^{1-s-2k} + R.

    For real s, |R| is below the first dropped term (k = 12), under
    1e-20 of zeta(s).  The terms are added by fsum; against 40-digit zeta
    the result is within 2.5e-16 relative on (1, 100].
    """
    if not (s > 1.0 and math.isfinite(s)):
        raise DomainError(f"riemann_zeta needs finite s > 1, got {s}")
    n = 10
    n_s = n ** -s
    terms = [k ** -s for k in range(1, n)]
    terms += (n ** (1.0 - s) / (s - 1.0), 0.5 * n_s)
    rising = s * n_s / n  # s(s+1)...(s+2k-2) N^{1-s-2k}
    for k, c in enumerate(_ZETA_EM, 1):
        terms.append(c * rising)
        # one factor at a time, so that huge s cannot make 0 * inf
        rising = rising * ((s + 2 * k - 1) / n) * ((s + 2 * k) / n)
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Per-mode sums
# ---------------------------------------------------------------------------

class ThermoPerMode(NamedTuple):
    """All per-mode quantities from one evaluation, fluct in (kT)^2 units.

    s_over_k equals e_over_kT - f_over_kT exactly by construction;
    terms_used counts the pentagonal pairs and Clausen terms summed at
    x >= DUAL_SWITCH, and Wigert's terms below it, where F, E, S and the
    fluctuation are closed forms; tail_bound bounds every dropped tail.
    """

    f_over_kT: float
    n_occ: float
    e_over_kT: float
    s_over_k: float
    fluct: float
    terms_used: int
    tail_bound: float


def _power_tails(d: int, r: float) -> tuple[float, float, float]:
    """Bounds on sum_{m>d} m^k r^m for k = 0, 1, 2 from one power r^{d+1}:
    each sum's first term over one minus the largest ratio of successive
    terms, ((d+2)/(d+1))^k r, which must be below 1: it is at most 1.44 r
    for d >= 4, and r < e^{-0.9} keeps that below 0.6.  Taken in logs where
    r^{d+1} is below the normal range."""
    head, grow = r ** (d + 1), (d + 2) / (d + 1)
    r1, r2 = grow * r, grow ** 2 * r
    if head >= sys.float_info.min:
        return (head / (1.0 - r), (d + 1) * head / (1.0 - r1),
                (d + 1) ** 2 * head / (1.0 - r2))
    log_d, log_head = math.log(d + 1), (d + 1) * math.log(r)
    return (_exp_up(log_head - math.log1p(-r)),
            _exp_up(log_d + log_head - math.log1p(-r1)),
            _exp_up(2 * log_d + log_head - math.log1p(-r2)))


def _pentagonal(y: float | complex) -> tuple[
        float | complex, float | complex, float | complex, int, int]:
    """Euler's pentagonal number theorem at |y| <= e^{-DUAL_SWITCH}:

        P = prod_d (1 - y^d) = 1 + sum_{k>=1} (-1)^k (y^{a_k} + y^{b_k}),
        a_k = k(3k-1)/2,  b_k = a_k + k,

    with P_1 and P_2 the same series with each power y^p weighted by p and
    p^2 (P_1 = y P'(y)).  Returns (P - 1, P_1, P_2, a, K) after K pairs,
    a = a_{K+1}.  The exponents left are distinct and at least a >= 5, so
    with r = |y| each dropped P_j tail is at most _power_tails(a - 1, r)[j],
    for complex y too, by the triangle inequality.  Stops once that bound
    for P_2 is below TAIL_EPS of r.
    """
    r = abs(y)
    lim = TAIL_EPS * r
    p0 = p1 = p2 = 0.0  # P - 1, P_1, P_2
    ra, rk, gap, r3 = 1.0, 1.0, y, y * y * y  # y^{a_k}, y^k, y^{a_{k+1}-a_k}
    k, a = 0, 1
    while True:
        k += 1
        b = a + k
        ra *= gap
        rk *= y
        rb = ra * rk
        gap *= r3
        sign = -1.0 if k & 1 else 1.0
        p0 += sign * (ra + rb)
        p1 += sign * (a * ra + b * rb)
        p2 += sign * (a * a * ra + b * b * rb)
        a = b + 2 * k + 1  # a_{k+1}
        # _power_tails(a - 1, r)[2] <= lim, with |y^a| = |ra| |gap| in hand
        if a * a * abs(ra) * abs(gap) <= lim * (1.0 - ((a + 1) / a) ** 2 * r):
            return p0, p1, p2, a, k


def _lambert(x: float) -> tuple[float, float, float, int, float, float, float]:
    """ln Z, E/kT and the fluctuation at x >= DUAL_SWITCH, r = e^{-x}:
    ln Z = -ln P, E/kT = -x P_1/P and fluct = x^2 ((P_1/P)^2 - P_2/P) from
    _pentagonal(r).  Returns (ln Z, E/kT, fluct, pairs, tail of ln Z, tail
    of E/kT, tail of fluct).

    With the dropped P_j tails t_j = _power_tails(a - 1, r)[j] and
    P >= low = P_K - t_0 > 0, ln P moves by at most t_0/low and P_j/P by at
    most (t_j + |P_j/P| t_0)/low (du and dv for j = 1, 2), so ln Z, E and
    fluct move by at most t_0/low, x du and x^2 (du (2 |P_1/P| + du) + dv).

    Where r is subnormal (or 0) every power past r underflows, so each sum
    is its first term and every tail is below the smallest double.  E and
    fluct, x r and x^2 r, are then taken through h = e^{-x/2}, so that they
    keep the bits a subnormal r has lost, and in an order in which x * x
    cannot overflow and turn 0 into nan.
    """
    r = math.exp(-x)
    if r < sys.float_info.min:
        h = math.exp(-0.5 * x)
        return r, x * h * h, x * (x * h) * h, 1, 0.0, 0.0, 0.0
    p0, p1, p2, a, k = _pentagonal(r)
    p = 1.0 + p0
    u, v = p1 / p, p2 / p
    t0, t1, t2 = _power_tails(a - 1, r)
    low = p - t0
    du = (t1 + abs(u) * t0) / low
    dv = (t2 + abs(v) * t0) / low
    return (-math.log1p(p0), -x * u, x * x * (u * u - v), k,
            t0 / low, x * du, x * x * (du * (2.0 * abs(u) + du) + dv))


def _closed_forms(x: float) -> tuple[float, float, float]:
    """The low-frequency closed forms of F/kT, E/kT and the fluctuation:
    -pi^2/(6x) - (1/2) ln(x/2pi) + x/24, pi^2/(6x) - 1/2 + x/24 and
    pi^2/(3x) - 1/2, the dual-scale law without its parts at 4 pi^2/x."""
    return (-_PI2 / (6.0 * x) - 0.5 * math.log(x / _TWO_PI) + x / 24.0,
            _PI2 / (6.0 * x) - 0.5 + x / 24.0,
            _PI2 / (3.0 * x) - 0.5)


def _dual_tail(x: float) -> float:
    """A bound on what the closed forms drop below DUAL_SWITCH: ln Z, E/kT
    and the fluctuation at y = 4 pi^2/x, with q = e^{-y} < e^{-43.8},

        sum sigma_{-1}(n) q^n,  y sum sigma_1(n) q^n,  y^2 sum n sigma_1(n) q^n.

    As sigma_{-1}(n) <= n and sigma_1(n) <= n^2 they are at most
    q/(1 - q)^2, y q (1 + q)/(1 - q)^3 and y^2 q (1 + 4q + q^2)/(1 - q)^4,
    each at least y > 43.8 times the one before, so the last bounds all
    three.  Where q is below the smallest normal double its factor in q is
    within 1e-300 of 1, and y^2 q is taken in logs.
    """
    y = _FOUR_PI2 / x
    q = math.exp(-y)
    if q >= sys.float_info.min:
        return y * y * q * (1.0 + q * (4.0 + q)) / (1.0 - q) ** 4
    return _exp_up(2.0 * math.log(y) - y)


def _clausen(x: float) -> tuple[float, int, float]:
    """N at x >= DUAL_SWITCH by Clausen's identity, r = e^{-x}:

        N = sum_d r^d/(1 - r^d) = sum_{m>=1} r^{m^2} (1 + r^m)/(1 - r^m).

    After M terms every factor (1 + r^m)/(1 - r^m) is at most
    (1 + r)/(1 - r) and the gaps (m+1)^2 - m^2 grow, so the tail is at most
    (1 + r)/(1 - r) r^{(M+1)^2}/(1 - r^{2M+3}).  The sum stops, as the
    pentagonal pairs do, once that bound is below TAIL_EPS of r, its first
    term; where r is subnormal (or 0) N is r and the tail underflows.
    Returns (N, M, tail bound).
    """
    r = math.exp(-x)
    if r < sys.float_info.min:
        return r, 1, 0.0
    n_occ, m = 0.0, 0
    rm, rsq, odd = 1.0, 1.0, r  # r^m, r^{m^2}, r^{2m-1}
    ratio = (1.0 + r) / (1.0 - r)
    while True:
        m += 1
        rm *= r
        rsq *= odd
        odd *= r * r
        n_occ += rsq * (1.0 + rm) / (1.0 - rm)
        head, gaps = rsq * odd, 1.0 - odd * r * r  # r^{(M+1)^2}, 1 - r^{2M+3}
        if ratio * head <= TAIL_EPS * r * gaps:
            break
    if head >= sys.float_info.min:
        return n_occ, m, ratio * head / gaps
    return n_occ, m, _exp_up(math.log(ratio) + (m + 1) ** 2 * math.log(r)
                             - math.log(gaps))


# Wigert's coefficients (B_2k/2k)^2/(2k-1)! for k = 1..21, and the
# constants zeta(3)^2 (K+1) (2K)!/(2 pi) of the bound on the remainder after
# K of them
_WIGERT = tuple(num * num / ((2 * k * den) ** 2 * math.factorial(2 * k - 1))
                for k, (num, den) in enumerate(_BERNOULLI_2K, 1))
_WIGERT_BOUND = tuple(ZETA3 ** 2 * (k + 1) * math.factorial(2 * k)
                      / (2.0 * math.pi) for k in range(1, len(_WIGERT) + 1))


def _wigert(x: float) -> tuple[float, int, float]:
    """N at 0 < x < DUAL_SWITCH by Wigert's expansion, from the residues of
    Gamma(s) zeta(s)^2 x^{-s} at s = 1, 0, -1, -3, ...:

        N = (gamma - ln x)/x + 1/4 - sum_{k=1}^{K} (B_2k/2k)^2 x^{2k-1}/(2k-1)! + R_K.

    R_K is the integral over Re s = -2K, where the functional equation gives
    Gamma(s) zeta(s)^2 = (2 pi)^{2s-1} tan(pi s/2) Gamma(1-s) zeta(1-s)^2
    with |tan(pi s/2)| <= 1 and |zeta(1-s)| <= zeta(3).  Since
    |Gamma(a+it)| <= Gamma(a)/(1 + t^2/(a(a+1))), int |Gamma(a+it)| dt is at
    most pi (a+1) Gamma(a), and so

        |R_K| <= zeta(3)^2 (K+1) (2K)! (x/4 pi^2)^{2K} / (2 pi).

    K is the first count at which the bound is below TAIL_EPS of the leading
    term; below DUAL_SWITCH that is at most 19 of the 21 tabled terms.
    Returns (N, K, bound on |R_K|).
    """
    lead = (EULER_GAMMA - math.log(x)) / x
    lim = TAIL_EPS * lead
    x2 = x * x
    z2 = x2 / _FOUR_PI2 ** 2
    xp, zp, total = x, 1.0, 0.0
    for k, (c, a) in enumerate(zip(_WIGERT, _WIGERT_BOUND), 1):
        total += c * xp
        xp *= x2
        zp *= z2
        if a * zp <= lim:
            break
    bound = a * zp
    if zp < sys.float_info.min:  # lost bits to underflow: x below 5.9e-153
        log_z = math.log(x) - math.log(_FOUR_PI2)
        bound = _exp_up(math.log(a) + 2 * k * log_z)
    return lead + 0.25 - total, k, bound


# The least x at which N, about ln(1/x)/x, is a finite double (the largest
# one); F, E and the fluctuation would overflow only below about 1.8e-308
_X_MIN = 3.915036531051428e-306


def _require_mode_x(x: float) -> float:
    """x as a float for the per-mode quantities: DomainError unless finite
    and > 0, and OverflowError below _X_MIN, before any log is taken (ln of
    the x/(2 pi) in F and S underflows at 5e-324)."""
    x = _require_x(x)
    if x < _X_MIN:
        raise OverflowError(f"per-mode values at x={x:g} overflow a double")
    return x


@lru_cache(maxsize=4096)
def _mode_sums(x: float) -> tuple[float, float, float, float, int, float]:
    """F/kT, E/kT, S/k, the fluctuation, the terms summed and a bound on
    what they drop, at x >= _X_MIN.  N is not among them: see _occupation.

    At x >= DUAL_SWITCH they come from the pentagonal sums of _lambert.
    Below it they are the closed forms of the functional equation

        ln Z(x) = -x/24 + (1/2) ln(x/2pi) + pi^2/(6x) + ln Z(4 pi^2/x)

    and its first two x-derivatives, which drop ln Z, E/kT and the
    fluctuation at y = 4 pi^2/x > 43.8.  Those are below half a unit in the
    last place of each value (the largest, the fluctuation's 1.7e-16 next
    to 3.16, just below the switch), so the closed forms are the doubles
    that the full law rounds to, and _dual_tail bounds what they drop.
    """
    x = _require_mode_x(x)
    if x >= DUAL_SWITCH:
        ln_z, e, fluct, terms, t_z, t_e, t_fl = _lambert(x)
        f, tail = -ln_z, max(t_z, t_e, t_fl)
    else:
        f, e, fluct = _closed_forms(x)
        terms, tail = 0, _dual_tail(x)
    return f, e, e - f, fluct, terms, max(_BOUND_ROUNDING * tail, _BOUND_FLOOR)


def _occupation(x: float) -> tuple[float, int, float]:
    """N at x >= _X_MIN with its terms and tail bound: Wigert's expansion
    below DUAL_SWITCH, Clausen's sum above.  Not cached, as only
    thermo_per_mode and occupation read N."""
    return _wigert(x) if x < DUAL_SWITCH else _clausen(x)


def thermo_per_mode(x: float) -> ThermoPerMode:
    """Every per-mode quantity at one x: _mode_sums' and _occupation's,
    with their terms added and their tail bounds joined."""
    f, e, s, fluct, terms, tail = _mode_sums(x)
    n_occ, n_terms, n_tail = _occupation(float(x))
    return ThermoPerMode(f, n_occ, e, s, fluct, terms + n_terms,
                         max(tail, _BOUND_ROUNDING * n_tail))


def free_energy(x: float) -> float:
    """F/kT = -sum sigma_{-1}(n) e^{-nx}  (negative for all x > 0)."""
    return _mode_sums(x)[0]


def _lowfreq(quantity: str, x: float, form) -> float:
    """form(x), a low-frequency closed form at x, or OverflowError naming x
    where that is not a finite double (below x ~ 1e-308).  Its ln(x/2pi) is
    not taken where x/(2pi) underflows to 0: its 1/x has overflowed there."""
    x = _require_x(x)
    return finite(quantity, {"x": x}, lambda: form(x) if x / _TWO_PI else math.inf)


def free_energy_lowfreq(x: float) -> float:
    """Low-frequency closed form -pi^2/(6x) - (1/2) ln(x/2pi) + x/24."""
    return _lowfreq("low-frequency F/kT", x, lambda x: _closed_forms(x)[0])


def occupation(x: float) -> float:
    """N = sum sigma_0(n) e^{-nx}."""
    return _occupation(_require_mode_x(x))[0]


def occupation_lowfreq(x: float) -> float:
    """Low-frequency closed form (-ln x + gamma)/x."""
    return _lowfreq("low-frequency N", x,
                    lambda x: (-math.log(x) + EULER_GAMMA) / x)


def internal_energy(x: float) -> float:
    """E/kT = x * sum sigma_1(n) e^{-nx}."""
    return _mode_sums(x)[1]


def internal_energy_lowfreq(x: float) -> float:
    """Low-frequency closed form pi^2/(6x) - 1/2 + x/24."""
    return _lowfreq("low-frequency E/kT", x, lambda x: _closed_forms(x)[1])


def entropy(x: float) -> float:
    """S/k = sum sigma_1(n)(x + 1/n) e^{-nx}, taken as (E - F)/kT."""
    return _mode_sums(x)[2]


def entropy_lowfreq(x: float) -> float:
    """Low-frequency closed form pi^2/(3x) + (1/2) ln(x/2pi) - 1/2."""
    return _lowfreq("low-frequency S/k", x, lambda x: math.pi ** 2 / (3.0 * x)
                    + 0.5 * math.log(x / (2.0 * math.pi)) - 0.5)


def per_mode_energy_fluctuation(x: float) -> float:
    """Energy variance per mode in (kT)^2 units: x^2 sum n sigma_1(n) e^{-nx}.

    Equals kT^2 dE/dT at fixed h*nu; the test suite checks that against a
    central finite difference.
    """
    return _mode_sums(x)[3]


class PlanckVariant(Enum):
    PLANCK = "planck"           # x/(e^x - 1)
    ZERO_POINT = "zero-point"   # x*coth(x/2)


def _bose(x: float, scale: float = 1.0) -> float:
    """scale/(e^x - 1), the conventional model's Bose factor, taken as
    scale e^{-x}/(1 - e^{-x}) and rounded in that order: it vanishes instead
    of overflowing at large x, and is 0 once e^{-x} underflows (also at
    x = inf, whatever scale).  At x = 0 it raises ZeroDivisionError."""
    e = math.exp(-x)
    return scale * e / -math.expm1(-x) if e else 0.0


def planck_factor(x: float, variant: PlanckVariant) -> float:
    """Conventional per-mode energy factors in kT units."""
    x = _require_x(x)
    if variant is PlanckVariant.PLANCK:
        return _bose(x, x)
    if variant is PlanckVariant.ZERO_POINT:
        # x coth(x/2) rounds to 2.0 below the least normal double, where
        # 0.5 * x loses bits (and is 0 at 5e-324)
        return x / math.tanh(0.5 * x) if x >= sys.float_info.min else 2.0
    raise DomainError(f"unknown Planck variant {variant!r}")


# ---------------------------------------------------------------------------
# Mellin-transform checks
# ---------------------------------------------------------------------------

class MellinKind(Enum):
    FREE_ENERGY = "free-energy"
    OCCUPATION = "occupation"
    ENERGY = "energy"


def _mellin_head(s: float, k: int, c: float) -> tuple[list[float], float]:
    """The integral over [0, c] of x^{s-1} times the closed small-x form of
    -F/kT, N or (E/kT)/x (k = -1, 0, 1) as parts to add, and a bound on what
    the form drops, at most its value at c times c^s/s: ln Z(4 pi^2/x) <=
    q/(1 - q)^2 and E(4 pi^2/x)/x <= (4 pi^2/x^2) q (1 + q)/(1 - q)^3 grow with
    x < 2 pi^2, q = e^{-4 pi^2/x}.  N's K Wigert terms leave c^s/(s + 2K)
    times their remainder bound at c, as it grows like x^{2K}, and make two
    roundings more than _mellin_integral counts for a head part."""
    c_s = c ** s
    if k == 0:
        _, terms, bound = _wigert(c)
        lead = c ** (s - 1.0)
        wigert = [w * c ** (2 * j - 1) * c_s / (2 * j - 1 + s)
                  for j, w in enumerate(_WIGERT[:terms], 1)]
        return ([lead * (EULER_GAMMA - math.log(c)) / (s - 1.0),
                 lead / (s - 1.0) ** 2, c_s / (4.0 * s)] + [-v for v in wigert],
                bound * c_s / (s + 2 * terms) + 2.0 * _U * sum(wigert))
    q = math.exp(-4.0 * math.pi ** 2 / c)
    if k == -1:
        return ([math.pi ** 2 / 6.0 * c ** (s - 1.0) / (s - 1.0),
                 0.5 * c_s * math.log(c / (2.0 * math.pi)) / s,
                 -0.5 * c_s / s / s, -c ** (s + 1.0) / (24.0 * (s + 1.0))],
                q / (1.0 - q) ** 2 * c_s / s)
    return ([math.pi ** 2 / 6.0 * c ** (s - 2.0) / (s - 2.0),
             -0.5 * c ** (s - 1.0) / (s - 1.0), c_s / (24.0 * s)],
            4.0 * math.pi ** 2 / c ** 2 * q * (1.0 + q) / (1.0 - q) ** 3 * c_s / s)


def _mellin_integral(s: float, k: int) -> tuple[float, float]:
    """The integral of x^{s-1} sum_n sigma_k(n) e^{-nx} over x > 0, for
    k = -1, 0 or 1 and s > k + 1, and a bound on its error.

    Below a = DUAL_SWITCH it is _mellin_head's, with bound R.  Above, term n
    is sigma_k(n) n^{-s} Gamma(s, na) = sigma_k(n) a^s r^n h_n, r = e^{-a},
    h_n = Gamma(s, x) x^{-s} e^x at x = na.  Below x = s + 2 it is taken as
    n^{-s} Gamma(s) - a^s r^n S, with S = sum p_j, p_j = x^j/(s (s+1) ... (s+j)),
    stopped once p_J < _U S and rho = x/(s + J + 1) <= 1/2; its rest is at
    most p_J rho/(1 - rho).  Above, Lentz's method gives h at
    s' = s - m in [1/2, 3/2] from the Stieltjes fraction
    1/(x + (1 - s')/(1 + 1/(x + (2 - s')/(1 + 2/(x + ...))))), positive after
    its second element, so h lies between successive approximants f_j and
    f_j/delta_j; m steps of h(s + 1) = (1 + s h(s))/x, which shrink every
    error, raise it to s.  h_n <= h_{n-1} bounds a term before it is taken,
    so the fraction needs fewer digits as the terms fall.

    The bound adds R, the rests of the series and fractions, and
    - the dropped terms: h_n = int_0^inf (1 + t)^{s-1} e^{-xt} dt falls with
      x and sigma_k(n) <= 2 n^g, g = max(k, 0) + 1/2, so the terms past n
      add at most 2 a^s r^n h_n sum_{m>n} m^g r^{m-n}, a geometric series of
      ratio at most 1.5^g r < 1.  The sum stops once this is below _U/4 of
      the sum so far, by n = 52, as a^s r^n h_n <= r^{n-1} a^s r h_1;
    - the rounding, to first order, part by part, with fsum's one rounding:
      a rounding is at most _U, pow, exp and log 1 ulp (2 _U), math.gamma
      10 ulps (as CPython states).  A head part makes 7 _U, and |y ln a| _U
      for the rounded exponent y <= s + 1 of its power of a; r^n (3n - 1) _U;
      sigma_k(n) n^{-s} Gamma(s) 10 ulps of Gamma(s), and 5 _U from n = 2;
      a lower-series part (3n + 6) _U and (4j + 1) _U on p_j; a fraction's
      part (15i + 3m + 3n + 7) _U after i pairs of elements of 15 roundings:
      where the elements are positive, the error a rounding leaves on the
      later deltas alternates in sign and shrinks, so it moves their product
      by at most its own size.  The rounded x = na moves h by at most
      x/(x - s + 1) _U, as h'/h >= -1/(x - s + 1).
    The total is rounded up by _BOUND_ROUNDING for the second-order terms.
    """
    a = DUAL_SWITCH
    parts, bound = _mellin_head(s, k, a)
    bound += (7.0 - math.log(a) * (s + 1.0)) * _U * sum(map(abs, parts))
    gamma_s, r, a_s = math.gamma(s), math.exp(-a), a ** s
    gamma_ulps = 10.0 * math.ulp(gamma_s)
    m = round(s) - 1
    s_low = s - m
    g = max(k, 0) + 0.5
    drop_factor = 2.0 * r / (1.0 - 1.5 ** g * r)
    sigma = [0] * 52  # sigma_k(n) for n <= 52, sigma_1(n) for k = -1
    for div in range(1, 53):
        for i in range(div - 1, 52, div):
            sigma[i] += 1 if k == 0 else div
    total, rn, h = sum(parts), 1.0, math.inf
    for n, w in enumerate(sigma, 1):
        w = w / n if k == -1 else w  # sigma_{-1}(n), rounded once
        rn *= r
        x, a_rn = n * a, a_s * rn
        if x < s + 2.0:
            p_j = partial = 1.0 / s
            series, j = [p_j], 0
            while p_j > _U * partial or s + j + 1.0 < 2.0 * x:
                j += 1
                p_j *= x / (s + j)
                series.append(p_j)
                partial += p_j
            rho = x / (s + j + 1.0)
            err = 4.0 * math.fsum(map(operator.mul, range(j + 1), series)) + partial
            full, low = gamma_s * n ** -s * w, w * a_rn * math.fsum(series)
            parts += (full, -low)
            t = full - low
            bound += (gamma_ulps * n ** -s * w
                      + (0.0 if n == 1 else 5.0) * _U * full + (3 * n + 6) * _U * low
                      + w * a_rn * (_U * err + p_j * rho / (1.0 - rho)))
        else:
            tol = max(_U, _U * total / (64.0 * w * a_rn * h))
            h = d = 1.0 / x
            c, i = math.inf, 0  # c = A_1/A_0 with A_0 = 0
            while True:
                i += 1
                e = i - s_low
                d = 1.0 / (1.0 + e * d)
                c = 1.0 + e / c
                h *= c * d
                d = 1.0 / (x + i * d)
                c = x + i / c
                delta = c * d
                h *= delta
                if abs(delta - 1.0) <= tol:
                    break
            for j in range(m):
                h = (1.0 + (s_low + j) * h) / x
            t = w * a_rn * h
            parts.append(t)
            bound += ((15 * i + 3 * (n + m) + 7 + x / (x - s + 1.0)) * _U * t
                      + abs(t - t / delta))
        total += t
        drop = t / w * (n + 1) ** g * drop_factor
        if drop <= 0.25 * _U * total:
            break
    integral = math.fsum(parts)
    return integral, _BOUND_ROUNDING * (bound + drop + _U * abs(integral))


_MELLIN_MAX_S = 171.62  # Gamma(s) overflows a double from s = 171.6243...

# Per kind: k of the divisor sums sigma_k(n) in the integrand, -ln Z, N and
# (E/kT)/x, whose Mellin transform is Gamma(s) zeta(s) zeta(s - k)
_MELLIN = {MellinKind.FREE_ENERGY: -1, MellinKind.OCCUPATION: 0, MellinKind.ENERGY: 1}


def mellin_check(s: float, kind: MellinKind) -> tuple[float, float]:
    """(integral, closed_form): _mellin_integral's Mellin integral of a
    per-mode series and its Gamma*zeta*zeta closed form, which meet only if
    the dual-scale law holds below DUAL_SWITCH.  s above 171.62 is refused
    with DomainError."""
    if not math.isfinite(s):
        raise DomainError(f"Mellin check needs finite s, got {s}")
    if kind not in _MELLIN:
        raise DomainError(f"unknown Mellin kind {kind!r}")
    k = _MELLIN[kind]
    s_min = max(1.0, k + 1.0)
    if s <= s_min:
        raise DomainError(f"{kind.value} Mellin check needs s > {s_min:g}, got {s}")
    if s > _MELLIN_MAX_S:
        raise DomainError(f"{kind.value} Mellin check needs s <= {_MELLIN_MAX_S}, "
                          f"where Gamma(s) nears the largest double; got {s}")
    closed = (math.gamma(s) * riemann_zeta(s) ** 2 if k == 0
              else math.gamma(s) * riemann_zeta(s) * riemann_zeta(s - k))
    return _mellin_integral(s, k)[0], closed


# ---------------------------------------------------------------------------
# eta and G2 on the upper half plane
# ---------------------------------------------------------------------------

# eta and G2 are summed from this Im(tau) up, where |y| <= e^{-DUAL_SWITCH},
# the domain of _pentagonal; below it _reduce runs first
_IM_DIRECT = DUAL_SWITCH / (2.0 * math.pi)


def _reduce(tau: complex) -> tuple[complex, int, list[complex]] | None:
    """While Im tau < _IM_DIRECT, write tau = n + s, |Re s| <= 1/2, and go
    on at -1/s, which multiplies Im by 1/|s|^2 > 3.69.  Returns the final
    tau, the sum of the n mod 24 and the s; None where -1/s overflows, as
    only |s| < 1e-308 can, which puts Im(-1/s) above 1e293."""
    tau = complex(tau)
    if not (cmath.isfinite(tau) and tau.imag > 0.0):
        raise DomainError(f"need finite tau with Im(tau) > 0, got {tau}")
    shift, steps = 0, []
    while tau.imag < _IM_DIRECT:
        n = round(tau.real)
        s = complex(tau.real - n, tau.imag)
        tau = -1.0 / s
        if not cmath.isfinite(tau):
            return None
        shift = (shift + n) % 24
        steps.append(s)
    return tau, shift, steps


def eta(tau: complex) -> complex:
    """eta(tau) = exp(i*pi*tau/12) * P(y), P(y) = prod (1 - y^n) with
    y = exp(2*i*pi*tau), by _pentagonal.

    Taken after _reduce with eta(s + n) = e^{i pi n/12} eta(s) and
    eta(s) = eta(-1/s)/sqrt(s/i); 0 where eta underflows a double.  Once
    |y| underflows (Im tau above about 119) P is exactly 1.
    """
    reduced = _reduce(tau)
    if reduced is None:
        return 0j  # eta at Im above 1e293 is below e^{-1e292}
    tau, shift, steps = reduced
    # eta(tau + 24) = eta(tau): reduce Re(tau) exactly, so that a huge real
    # part cannot overflow 2*pi*tau
    tau = complex(math.fmod(tau.real, 24.0), tau.imag)
    p0 = _pentagonal(cmath.exp(2j * math.pi * tau))[0]
    # 1/sqrt(s/i) in the exponent, so that eta underflows to 0 at once
    log_scale = -sum((cmath.log(s / 1j) for s in steps), 0j) / 2.0
    prefactor = cmath.exp(1j * math.pi * (tau + shift) / 12.0 + log_scale)
    return prefactor * (1.0 + p0)


class EtaTransform(Enum):
    SHIFT = "shift"          # predicts eta(tau + 1)
    INVERSION = "inversion"  # predicts eta(-1/tau)


def eta_transform(tau: complex, which: EtaTransform) -> complex:
    """Right-hand side of the degree -1/2 transformation law.

    SHIFT returns exp(i*pi/12)*eta(tau); INVERSION returns
    sqrt(tau/i)*eta(tau) with the principal square root.  Callers compare
    against direct evaluation at tau+1 or -1/tau.
    """
    base = eta(tau)  # refuses tau as _reduce does
    if which is EtaTransform.SHIFT:
        return cmath.exp(1j * math.pi / 12.0) * base
    if which is EtaTransform.INVERSION:
        return cmath.sqrt(tau / 1j) * base
    raise DomainError(f"unknown transform {which!r}")


def eisenstein_g2(tau: complex) -> complex:
    """Weight-two Eisenstein series from its Fourier expansion:

        G2(tau) = 2*zeta(2) + 2*(2*i*pi)^2 * sum sigma_1(n) y^n
                = pi^2/3 + 8*pi^2 * P_1/P,

    since sum sigma_1(n) y^n = -y P'(y)/P(y), with P and P_1 from
    _pentagonal after _reduce; unwound by G2(s) = (G2(-1/s) + 2*pi*i*s)/s^2.
    Raises DomainError where G2 overflows a double.
    """
    reduced = _reduce(tau)
    if reduced is None:  # |s| < 1e-308, so |G2| > (pi^2/3 - 2 pi |s|)/|s|^2
        raise DomainError(f"G2 at tau = {tau} overflows a double")
    top, _, steps = reduced
    # G2(tau + 1) = G2(tau): reduce Re(tau) exactly, so that a huge real
    # part cannot overflow 2*pi*tau
    top = complex(math.fmod(top.real, 1.0), top.imag)
    p0, p1, *_ = _pentagonal(cmath.exp(2j * math.pi * top))
    value = math.pi ** 2 / 3.0 + 8.0 * math.pi ** 2 * (p1 / (1.0 + p0))
    for s in reversed(steps):
        value = (value + 2j * math.pi * s) / s / s
    if not cmath.isfinite(value):
        raise DomainError(f"G2 at tau = {tau} overflows a double")
    return value
