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
terms.  Below x = 0.9, F, E and the fluctuation follow from the dual-scale
functional equation of ln Z with the pentagonal sums taken at 4 pi^2/x,
which needs one pair, and N from Wigert's expansion (the residues of
Gamma(s) zeta(s)^2 x^{-s}), which needs at most 19 terms.  Every recorded
tail bound is a true bound: geometric on the dropped pentagonal and Clausen
terms, and a contour bound on Wigert's remainder.  There is no term budget:
every finite x > 0 gives finite values, except below x ~ 3.9e-306, where N
exceeds the largest double and OverflowError is raised.

The Mellin checks integrate [0, 1e-3] in closed small-x form and the rest
by a double-precision tanh-sinh rule, the same as mpmath.fp.quad's to the
bit, and compare with Gamma(s) zeta zeta from math.gamma and an
Euler-Maclaurin zeta.  Those two, zeta(3), Euler's constant and the exact
Bernoulli numbers B_2..B_42 live here, beside their users: the Mellin
closed forms and Wigert's expansion, and phonon's Debye series and
radiation's zeta(3) factors, which import this module anyway.  The Planck
factor is written in e^{-x} form, so it vanishes instead of overflowing.

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
import sys
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError

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
    "ZETA3", "riemann_zeta", "gamma_fn", "euler_gamma",
]

LOWFREQ_SWITCH = 1e-3    # Mellin integrands are integrated in closed
                         # small-x form below this x
DUAL_SWITCH = 0.9        # below this x: the dual scale for F, E and the
                         # fluctuation, Wigert's expansion for N
TAIL_EPS = 2.0 ** -56    # the pentagonal and Clausen sums stop once their
                         # tail bounds (the p^2-weighted one for the
                         # pentagonal) are below this fraction of their first
                         # term r, Wigert's once its remainder bound is below
                         # it times the leading term
# Tail bounds are rounded up by this factor, which covers the relative error
# of evaluating them in floating point (below 1e-14 for every x)
_BOUND_ROUNDING = 1.0 + 1e-12
# and raised to at least the smallest positive double, since a bound that
# underflows to 0 does not bound the positive remainder it stands for
_BOUND_FLOOR = math.ulp(0.0)


def _exp_up(log_bound: float) -> float:
    """A double >= e^{log_bound} (or 0, where it is below _BOUND_FLOOR):
    rounded up at 2^600 times its size, scaled back and stepped up once."""
    scaled = _BOUND_ROUNDING * math.exp(log_bound + 600.0 * math.log(2.0))
    unit = math.ldexp(scaled, -600)
    return unit and math.nextafter(unit, math.inf)


def _require_x(x: float) -> float:
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"need finite x > 0, got {x}")
    return x


# ---------------------------------------------------------------------------
# Zeta, gamma and the Bernoulli numbers
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


def gamma_fn(s: float) -> float:
    """Gamma(s) for finite real s > 0 (math.gamma)."""
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(f"gamma_fn needs finite s > 0, got {s}")
    return math.gamma(s)


def euler_gamma() -> float:
    """Euler's constant gamma = 0.5772156649015329 to double precision."""
    return 0.5772156649015329


# ---------------------------------------------------------------------------
# Per-mode sums
# ---------------------------------------------------------------------------

class ThermoPerMode(NamedTuple):
    """All per-mode quantities from one evaluation, fluct in (kT)^2 units.

    s_over_k equals e_over_kT - f_over_kT exactly by construction;
    terms_used counts the pentagonal pairs and Clausen terms summed at
    x >= DUAL_SWITCH, and below it the pentagonal pairs at 4 pi^2/x and
    Wigert's terms; tail_bound bounds every dropped tail.
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


def _lambert(x: float, occupation: bool = False) -> tuple[
        float, float, float, float, int, float, float, float]:
    """The per-mode sums at x >= DUAL_SWITCH (or at the dual argument),
    r = e^{-x}: ln Z = -ln P, E/kT = -x P_1/P and
    fluct = x^2 ((P_1/P)^2 - P_2/P) from _pentagonal(r), and, if occupation,
    N from Clausen's identity

        N = sum_d r^d/(1 - r^d) = sum_{m>=1} r^{m^2} (1 + r^m)/(1 - r^m).

    Returns (ln Z, N, E/kT, fluct, terms, tail of ln Z and N, tail of E/kT,
    tail of fluct); without occupation N is 0 and terms counts only the
    pentagonal pairs.

    With the dropped P_j tails t_j = _power_tails(a - 1, r)[j] and
    P >= low = P_K - t_0 > 0, ln P moves by at most t_0/low and P_j/P by at
    most (t_j + |P_j/P| t_0)/low (du and dv for j = 1, 2), so ln Z, E and
    fluct move by at most t_0/low, x du and x^2 (du (2 |P_1/P| + du) + dv).
    After M Clausen terms every factor (1 + r^m)/(1 - r^m) is at most
    (1 + r)/(1 - r) and the gaps (m+1)^2 - m^2 grow, so the tail is at most
    (1 + r)/(1 - r) r^{(M+1)^2}/(1 - r^{2M+3}).  Clausen's sum stops, as the
    pairs do, once its tail bound is below TAIL_EPS of r, the first term of
    every sum.

    Where r is subnormal (or 0) every power past r underflows, so each sum
    is its first term and every tail is below the smallest double.  E and
    fluct, x r and x^2 r, are then taken through h = e^{-x/2}, so that they
    keep the bits a subnormal r has lost, and in an order in which x * x
    cannot overflow and turn 0 into nan.
    """
    r = math.exp(-x)
    if r < sys.float_info.min:
        h = math.exp(-0.5 * x)
        return (r, r if occupation else 0.0, x * h * h, x * (x * h) * h,
                2 if occupation else 1, 0.0, 0.0, 0.0)
    p0, p1, p2, a, k = _pentagonal(r)
    p = 1.0 + p0
    u, v = p1 / p, p2 / p
    t0, t1, t2 = _power_tails(a - 1, r)
    low = p - t0
    du = (t1 + abs(u) * t0) / low
    dv = (t2 + abs(v) * t0) / low
    t_z = t0 / low
    n_occ, m = 0.0, 0
    if occupation:
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
            t_n = ratio * head / gaps
        else:
            t_n = _exp_up(math.log(ratio) + (m + 1) ** 2 * math.log(r)
                          - math.log(gaps))
        t_z = max(t_z, t_n)
    return (-math.log1p(p0), n_occ, -x * u, x * x * (u * u - v), k + m,
            t_z, x * du, x * x * (du * (2.0 * abs(u) + du) + dv))


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
    lead = (euler_gamma() - math.log(x)) / x
    x2 = x * x
    z2 = x2 / (4.0 * math.pi ** 2) ** 2
    xp, zp, total = x, 1.0, 0.0
    for k, (c, a) in enumerate(zip(_WIGERT, _WIGERT_BOUND), 1):
        total += c * xp
        xp *= x2
        zp *= z2
        if a * zp <= TAIL_EPS * lead:
            break
    bound = a * zp
    if zp < sys.float_info.min:  # lost bits to underflow: x below 5.9e-153
        log_z = math.log(x) - math.log(4.0 * math.pi ** 2)
        bound = _exp_up(math.log(a) + 2 * k * log_z)
    return lead + 0.25 - total, k, bound


@lru_cache(maxsize=4096)
def _mode_sums(x: float) -> ThermoPerMode:
    """Every per-mode quantity at x.

    At x >= DUAL_SWITCH all come from the pentagonal and Clausen sums of
    _lambert.  Below it, F, E and the fluctuation come from the functional
    equation

        ln Z(x) = -x/24 + (1/2) ln(x/2pi) + pi^2/(6x) + ln Z(4 pi^2/x)

    and its first two x-derivatives: the low-frequency closed forms plus the
    pentagonal sums at y = 4 pi^2/x > 43, one pair each.  N has no such law
    and comes from
    Wigert's expansion.  N, of order ln(1/x)/x, is the first to exceed the
    largest double (below x ~ 3.9e-306; F, E and the fluctuation only below
    ~1.8e-308), so OverflowError is raised there, before ln(x/2pi) can
    underflow.
    """
    x = _require_x(x)
    if x >= DUAL_SWITCH:
        ln_z, n_occ, e, fluct, terms, t_z, t_e, t_fl = _lambert(x, occupation=True)
        f, tail = -ln_z, max(t_z, t_e, t_fl)
    else:
        n_occ, k, t_n = _wigert(x)
        if n_occ == math.inf:
            raise OverflowError(f"per-mode values at x={x:g} overflow a double")
        ln_zy, _, e_y, fl_y, terms, t_z, t_e, t_fl = _lambert(4.0 * math.pi ** 2 / x)
        f = free_energy_lowfreq(x) - ln_zy
        e = internal_energy_lowfreq(x) - e_y
        fluct = math.pi ** 2 / (3.0 * x) - 0.5 - 2.0 * e_y + fl_y
        terms, tail = terms + k, max(t_z, 2.0 * t_e + t_fl, t_n)
    return ThermoPerMode(f, n_occ, e, e - f, fluct, terms,
                         max(_BOUND_ROUNDING * tail, _BOUND_FLOOR))


def thermo_per_mode(x: float) -> ThermoPerMode:
    """Every per-mode quantity at one x from a single evaluation."""
    return _mode_sums(x)


def free_energy(x: float) -> float:
    """F/kT = -sum sigma_{-1}(n) e^{-nx}  (negative for all x > 0)."""
    return _mode_sums(x).f_over_kT


def free_energy_lowfreq(x: float) -> float:
    """Low-frequency closed form -pi^2/(6x) - (1/2) ln(x/2pi) + x/24."""
    x = _require_x(x)
    return -math.pi ** 2 / (6.0 * x) - 0.5 * math.log(x / (2.0 * math.pi)) + x / 24.0


def occupation(x: float) -> float:
    """N = sum sigma_0(n) e^{-nx}."""
    return _mode_sums(x).n_occ


def occupation_lowfreq(x: float) -> float:
    """Low-frequency closed form (-ln x + gamma)/x."""
    x = _require_x(x)
    return (-math.log(x) + euler_gamma()) / x


def internal_energy(x: float) -> float:
    """E/kT = x * sum sigma_1(n) e^{-nx}."""
    return _mode_sums(x).e_over_kT


def internal_energy_lowfreq(x: float) -> float:
    """Low-frequency closed form pi^2/(6x) - 1/2 + x/24."""
    x = _require_x(x)
    return math.pi ** 2 / (6.0 * x) - 0.5 + x / 24.0


def entropy(x: float) -> float:
    """S/k = sum sigma_1(n)(x + 1/n) e^{-nx}, taken as (E - F)/kT."""
    return _mode_sums(x).s_over_k


def entropy_lowfreq(x: float) -> float:
    """Low-frequency closed form pi^2/(3x) + (1/2) ln(x/2pi) - 1/2."""
    x = _require_x(x)
    return math.pi ** 2 / (3.0 * x) + 0.5 * math.log(x / (2.0 * math.pi)) - 0.5


def per_mode_energy_fluctuation(x: float) -> float:
    """Energy variance per mode in (kT)^2 units: x^2 sum n sigma_1(n) e^{-nx}.

    Equals kT^2 dE/dT at fixed h*nu; the test suite checks that against a
    central finite difference.
    """
    return _mode_sums(x).fluct


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
        return x / math.tanh(0.5 * x)
    raise DomainError(f"unknown Planck variant {variant!r}")


# ---------------------------------------------------------------------------
# Mellin-transform checks
# ---------------------------------------------------------------------------

# mpmath.fp.quad's stop: the estimated error at most eps/8
_QUAD_EPS = 2.0 ** -55


@lru_cache(maxsize=6)
def _tanh_sinh_nodes(degree: int) -> list[tuple[float, float]]:
    """The tanh-sinh nodes x = tanh(pi/2 sinh t) and weights
    w = pi/2 cosh t / cosh^2(pi/2 sinh t) on [-1, 1] that step 2^-degree
    adds: t = +-2^-degree (2k + 1), and at degree 1 also t = 0 and every
    multiple of 1/2.  e^{pi/2 sinh t} = e^{a - b}, with a = pi/4 e^t and
    b = pi/4 e^{-t} stepped by multiplication, until x rounds to 1 (by
    t ~ 3.2, long before mpmath's cap of 20 2^degree steps)."""
    t0 = math.ldexp(1.0, -degree)
    nodes = [(0.0, math.pi / 2)] if degree == 1 else []
    up = math.exp(t0 if degree == 1 else 2 * t0)
    down = 1 / up
    a, b = math.pi / 4 * math.exp(t0), math.pi / 4 / math.exp(t0)
    while True:
        c = math.exp(a - b)
        d = 1 / c
        co = (c + d) / 2
        x = (c - d) / 2 / co
        if x == 1.0:  # mpmath's |x - 1| <= 2^-63 in doubles
            break
        w = (a + b) / co ** 2
        nodes += ((x, w), (-x, w))
        a *= up
        b *= down
    return nodes


def _tanh_sinh(f, lo: float, hi: float) -> float:
    """The integral of f over [lo, hi] by tanh-sinh quadrature (Takahasi and
    Mori 1974), as mpmath.fp.quad takes it, to the bit: degrees 1 to 6, each
    halving the step and reusing the last sum, until the error extrapolated
    from the last three sums (Bailey, Borwein and Girgensohn) is at most
    _QUAD_EPS."""
    half, mid = (hi - lo) / 2, (hi + lo) / 2
    sums: list[float] = []
    for degree in range(1, 7):
        h = 2.0 ** -degree
        total = sums[-1] / (h * 2) if sums else 0.0
        total += sum([half * w * f(mid + half * x)
                      for x, w in _tanh_sinh_nodes(degree)], 0.0)
        sums.append(h * total)
        if degree == 1:
            continue
        if degree == 2:
            err = abs(sums[0] - sums[1])
        elif sums[-1] == sums[-2] == sums[-3]:
            err = 0.0
        elif sums[-1] == sums[-2] or sums[-1] == sums[-3]:
            err = _QUAD_EPS  # log of 0
        else:
            d1 = math.log(abs(sums[-1] - sums[-2]), 10)
            d2 = math.log(abs(sums[-1] - sums[-3]), 10)
            err = 10.0 ** int(min(0, max(d1 ** 2 / d2, 2 * d1, -53)))
        if err <= _QUAD_EPS:
            break
    return sums[-1]


class MellinKind(Enum):
    FREE_ENERGY = "free-energy"
    OCCUPATION = "occupation"
    ENERGY = "energy"


def _free_energy_head(s: float, c: float) -> float:
    return (math.pi ** 2 / 6.0 * c ** (s - 1.0) / (s - 1.0)
            + 0.5 * c ** s * (math.log(c / (2.0 * math.pi)) / s - 1.0 / s ** 2)
            - c ** (s + 1.0) / (24.0 * (s + 1.0)))


def _occupation_head(s: float, c: float) -> float:
    _, k_terms, _ = _wigert(c)
    return (c ** (s - 1.0) * ((euler_gamma() - math.log(c)) / (s - 1.0)
                              + 1.0 / (s - 1.0) ** 2)
            + c ** s / (4.0 * s)
            - sum(w * c ** (2 * k - 1 + s) / (2 * k - 1 + s)
                  for k, w in enumerate(_WIGERT[:k_terms], 1)))


def _energy_head(s: float, c: float) -> float:
    return (math.pi ** 2 / 6.0 * c ** (s - 2.0) / (s - 2.0)
            - 0.5 * c ** (s - 1.0) / (s - 1.0)
            + c ** s / (24.0 * s))


# The largest s a Mellin check takes: Gamma(s), and with it the closed form,
# passes the largest double at s = 171.6243...
_MELLIN_MAX_S = 171.62

# Per kind: the least s (exclusive); the series in the integrand, -ln Z, N
# and sum sigma_1(n) e^{-nx} = (E/kT)/x; its integral times x^{s-1} over
# [0, c] in closed small-x form; and the Gamma*zeta*zeta closed form.  The
# free-energy and energy heads are exact up to e^{-4 pi^2 / c}; the
# occupation head integrates Wigert's expansion termwise, with as many terms
# as it takes at x = c, so its remainder is as small.
_MELLIN = {
    MellinKind.FREE_ENERGY: (
        1.0, lambda x: -free_energy(x), _free_energy_head,
        lambda s: gamma_fn(s) * riemann_zeta(s) * riemann_zeta(s + 1.0)),
    MellinKind.OCCUPATION: (
        1.0, occupation, _occupation_head,
        lambda s: gamma_fn(s) * riemann_zeta(s) ** 2),
    MellinKind.ENERGY: (
        2.0, lambda x: internal_energy(x) / x, _energy_head,
        lambda s: gamma_fn(s) * riemann_zeta(s) * riemann_zeta(s - 1.0)),
}


def mellin_check(s: float, kind: MellinKind) -> tuple[float, float]:
    """Quadrature of the Mellin integral against its Gamma*zeta closed form.

    Returns (integral, closed_form) for the caller to compare.  The integral
    is split at x = c and x = 1: the head on [0, c] is integrated in closed
    small-x form, and [c, 1] and the tail, mapped through u = 1/x onto
    [0, 1], by _tanh_sinh.  The tail is split once more at u = 1/4, near the
    integrand's peak; in one piece the rule's rounding leaves ~1e-15
    relative error.  s above 171.62 is refused with DomainError.
    """
    if not math.isfinite(s):
        raise DomainError(f"Mellin check needs finite s, got {s}")
    if kind not in _MELLIN:
        raise DomainError(f"unknown Mellin kind {kind!r}")
    s_min, base, head, closed_form = _MELLIN[kind]
    if s <= s_min:
        raise DomainError(f"{kind.value} Mellin check needs s > {s_min:g}, got {s}")
    if s > _MELLIN_MAX_S:
        raise DomainError(f"{kind.value} Mellin check needs s <= {_MELLIN_MAX_S}, "
                          f"where Gamma(s) nears the largest double; got {s}")
    # The tail's integrand peaks near Gamma(s + 2) and the rule's sums reach
    # 64 times the integral, which passes the largest double from s ~ 170.3:
    # take the tail times 2^-e, which keeps Gamma(s) 2^-e below 2^512, and
    # scale its integral back.  e = 0 up to s ~ 100.
    e = max(0, int(math.lgamma(s) / math.log(2.0)) - 512)
    scale = 2.0 ** -e

    def fx(x: float) -> float:
        return base(x) * x ** (s - 1.0)

    def tail(u: float) -> float:
        # the integrand vanishes once e^{-1/u} underflows; stop before u^{-s-1}
        # can overflow at the rule's nodes next to u = 0
        if u * 745.0 < 1.0:
            return 0.0
        b = base(1.0 / u)
        try:
            return b * u ** (-s - 1.0) * scale
        except OverflowError:  # s above ~106: the product in logs
            if b == 0.0:
                return 0.0
            return math.copysign(math.exp(
                math.log(abs(b)) - (s + 1.0) * math.log(u) - e * math.log(2.0)), b)

    c = LOWFREQ_SWITCH
    lo = head(s, c)
    mid = _tanh_sinh(fx, c, 1.0)
    top = _tanh_sinh(tail, 0.0, 0.25) + _tanh_sinh(tail, 0.25, 1.0)
    return lo + mid + top / scale, closed_form(s)


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
