"""Per-mode thermodynamics of the equally-spaced-level boson gas.

Exact free energy, occupation number, internal energy, entropy and energy
fluctuation per mode at x = h*nu/kT, their low-frequency closed forms, the
two conventional per-mode comparators, and the Mellin-transform cross-checks

    integral (-ln Z) x^{s-1} dx      = Gamma(s) zeta(s) zeta(s+1)
    integral  N(x)   x^{s-1} dx      = Gamma(s) zeta(s)^2
    integral (E/kTx) x^{s-1} dx      = Gamma(s) zeta(s) zeta(s-1)

The divisor series are evaluated in Lambert form, sum d^k r^d/(1 - r^d)
with r = e^{-x}, which at x >= 0.9 reaches double precision in at most 53
terms.  Below x = 0.9, F, E and the fluctuation follow from the dual-scale
functional equation of ln Z with the Lambert sums taken at 4 pi^2/x, which
needs one term, and N from Wigert's expansion (the residues of
Gamma(s) zeta(s)^2 x^{-s}), which needs at most 19.  Every recorded tail
bound is a true bound: geometric on the dropped Lambert terms, and a
contour bound on Wigert's remainder.  There is no term budget: every finite
x > 0 gives finite values, except below x ~ 3.9e-306, where N exceeds the
largest double and OverflowError is raised.

The Mellin checks integrate [0, 1e-3] in closed small-x form and the rest
by mpmath's double-precision tanh-sinh rule, and compare with Gamma(s) zeta
zeta from math.gamma and mpmath.fp.zeta; only they import mpmath.  The
Planck factor is written in e^{-x} form, so it vanishes instead of
overflowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .arith import _BERNOULLI_2K, ZETA3, euler_gamma, gamma_fn, riemann_zeta
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
]

LOWFREQ_SWITCH = 1e-3    # Mellin integrands are integrated in closed
                         # small-x form below this x
DUAL_SWITCH = 0.9        # below this x: the dual scale for F, E and the
                         # fluctuation, Wigert's expansion for N
TAIL_EPS = 2.0 ** -56    # Lambert sums stop once the d^2 tail is below this
                         # fraction of the first term, Wigert's once its
                         # remainder bound is below it times the leading term
# Tail bounds are rounded up by this factor, which covers the relative error
# of evaluating them in floating point (below 1e-14 for every x)
_BOUND_ROUNDING = 1.0 + 1e-12
# and raised to at least the smallest positive double, since a bound that
# underflows to 0 does not bound the positive remainder it stands for
_BOUND_FLOOR = math.ulp(0.0)


def _require_x(x: float) -> float:
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"need finite x > 0, got {x}")
    return x


@dataclass(frozen=True)
class ThermoPerMode:
    """All four per-mode quantities from one evaluation.

    s_over_k equals e_over_kT - f_over_kT exactly by construction;
    terms_used counts the Lambert and Wigert terms summed and tail_bound
    bounds every dropped tail.
    """

    f_over_kT: float
    n_occ: float
    e_over_kT: float
    s_over_k: float
    terms_used: int
    tail_bound: float


@dataclass(frozen=True)
class _ModeSums:
    f: float          # F/kT = -ln Z
    n_occ: float      # N
    e: float          # E/kT
    fluct: float      # energy variance in (kT)^2 units
    terms: int        # Lambert and Wigert terms summed
    tail: float       # bound on every dropped tail


def _power_tail(d: int, r: float, k: int) -> float:
    """Bound on sum_{m>d} m^k r^m: its first term over one minus the largest
    ratio of successive terms, ((d+2)/(d+1))^k r."""
    return (d + 1) ** k * r ** (d + 1) / (1.0 - ((d + 2) / (d + 1)) ** k * r)


def _lambert(x: float) -> tuple[float, float, float, float, int,
                                float, float, float]:
    """Lambert forms at x >= DUAL_SWITCH (or at the dual argument), r = e^{-x}:

        ln Z = -sum ln(1 - r^d)          N     = sum r^d/(1 - r^d)
        E/kT = x sum d r^d/(1 - r^d)     fluct = x^2 sum d^2 r^d/(1 - r^d)^2

    Returns (ln Z, N, E/kT, fluct, terms, tail of ln Z and N, tail of E/kT,
    tail of fluct).  After D terms every dropped term is at most
    d^k r^d/(1 - r^{D+1}), with the denominator squared for fluct, so each
    tail is bounded by a geometric sum.  The loop stops once the d^2 tail is
    below TAIL_EPS of the first term, which every sum exceeds.  Once r
    underflows every sum is 0 after one term; that is returned before x * x
    can overflow and turn 0 into nan.
    """
    r = math.exp(-x)
    if r == 0.0:
        return 0.0, 0.0, 0.0, 0.0, 1, 0.0, 0.0, 0.0
    ln_z = n_occ = e_sum = fl_sum = 0.0
    rd = 1.0
    d = 0
    while True:
        d += 1
        rd *= r
        q = rd / (1.0 - rd)
        ln_z -= math.log1p(-rd)
        n_occ += q
        e_sum += d * q
        fl_sum += d * d * q / (1.0 - rd)
        if _power_tail(d, r, 2) <= TAIL_EPS * r:
            break
    inv = 1.0 / (1.0 - rd * r)
    return (ln_z, n_occ, x * e_sum, x * x * fl_sum, d,
            _power_tail(d, r, 0) * inv, x * _power_tail(d, r, 1) * inv,
            x * x * _power_tail(d, r, 2) * inv * inv)


# Wigert's coefficients (B_2k/2k)^2/(2k-1)! for k = 1..21, and the
# constants zeta(3)^2 (K+1) (2K)!/(2 pi) of the bound on the remainder after
# K of them
_WIGERT = tuple(float((b / (2 * k)) ** 2 / math.factorial(2 * k - 1))
                for k, b in enumerate(_BERNOULLI_2K, 1))
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
    return lead + 0.25 - total, k, a * zp


@lru_cache(maxsize=4096)
def _mode_sums(x: float) -> _ModeSums:
    """F, N, E and the fluctuation at x.

    At x >= DUAL_SWITCH all four are direct Lambert sums.  Below it, F, E
    and the fluctuation come from the functional equation

        ln Z(x) = -x/24 + (1/2) ln(x/2pi) + pi^2/(6x) + ln Z(4 pi^2/x)

    and its first two x-derivatives, with the Lambert forms evaluated at the
    dual argument y = 4 pi^2/x > 43; N has no such law and comes from
    Wigert's expansion.  N, of order ln(1/x)/x, is the first to exceed the
    largest double (below x ~ 3.9e-306; F, E and the fluctuation only below
    ~1.8e-308), so OverflowError is raised there, before ln(x/2pi) can
    underflow.
    """
    x = _require_x(x)
    if x >= DUAL_SWITCH:
        ln_z, n_occ, e, fluct, terms, t_z, t_e, t_fl = _lambert(x)
        return _ModeSums(-ln_z, n_occ, e, fluct, terms,
                         max(_BOUND_ROUNDING * max(t_z, t_e, t_fl), _BOUND_FLOOR))
    n_occ, k, t_n = _wigert(x)
    if n_occ == math.inf:
        raise OverflowError(f"per-mode values at x={x:g} overflow a double")
    ln_zy, _, e_y, fl_y, terms, t_z, t_e, t_fl = _lambert(4.0 * math.pi ** 2 / x)
    pi2_6x = math.pi ** 2 / (6.0 * x)
    f = -pi2_6x - 0.5 * math.log(x / (2.0 * math.pi)) + x / 24.0 - ln_zy
    e = pi2_6x - 0.5 + x / 24.0 - e_y
    fluct = 2.0 * pi2_6x - 0.5 - 2.0 * e_y + fl_y
    return _ModeSums(f, n_occ, e, fluct, terms + k,
                     max(_BOUND_ROUNDING * max(t_z, 2.0 * t_e + t_fl, t_n),
                         _BOUND_FLOOR))


def thermo_per_mode(x: float) -> ThermoPerMode:
    """F/kT, N, E/kT and S/k at one x from a single evaluation."""
    ms = _mode_sums(x)
    return ThermoPerMode(ms.f, ms.n_occ, ms.e, ms.e - ms.f, ms.terms, ms.tail)


def free_energy(x: float) -> float:
    """F/kT = -sum sigma_{-1}(n) e^{-nx}  (negative for all x > 0)."""
    return _mode_sums(x).f


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
    return _mode_sums(x).e


def internal_energy_lowfreq(x: float) -> float:
    """Low-frequency closed form pi^2/(6x) - 1/2 + x/24."""
    x = _require_x(x)
    return math.pi ** 2 / (6.0 * x) - 0.5 + x / 24.0


def entropy(x: float) -> float:
    """S/k = sum sigma_1(n)(x + 1/n) e^{-nx}, taken as (E - F)/kT."""
    ms = _mode_sums(x)
    return ms.e - ms.f


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


def planck_factor(x: float, variant: PlanckVariant) -> float:
    """Conventional per-mode energy factors in kT units."""
    x = _require_x(x)
    if variant is PlanckVariant.PLANCK:
        # x e^{-x}/(1 - e^{-x}): vanishes instead of overflowing at large x
        return x * math.exp(-x) / -math.expm1(-x)
    if variant is PlanckVariant.ZERO_POINT:
        return x / math.tanh(0.5 * x)
    raise DomainError(f"unknown Planck variant {variant!r}")


# ---------------------------------------------------------------------------
# Mellin-transform checks
# ---------------------------------------------------------------------------

class MellinKind(Enum):
    FREE_ENERGY = "free-energy"
    OCCUPATION = "occupation"
    ENERGY = "energy"


def _mellin_head(kind: MellinKind, s: float, c: float) -> float:
    """Closed-form integral of the small-x integrand over [0, c].

    The free-energy and energy forms are exact up to e^{-4 pi^2 / c}; the
    occupation form integrates Wigert's expansion termwise, with as many
    terms as it takes at x = c, so its remainder is as small.
    """
    pi2_6 = math.pi ** 2 / 6.0
    if kind is MellinKind.FREE_ENERGY:
        return (pi2_6 * c ** (s - 1.0) / (s - 1.0)
                + 0.5 * c ** s * (math.log(c / (2.0 * math.pi)) / s - 1.0 / s ** 2)
                - c ** (s + 1.0) / (24.0 * (s + 1.0)))
    if kind is MellinKind.OCCUPATION:
        g = euler_gamma()
        _, k_terms, _ = _wigert(c)
        return (c ** (s - 1.0) * ((g - math.log(c)) / (s - 1.0)
                                  + 1.0 / (s - 1.0) ** 2)
                + c ** s / (4.0 * s)
                - sum(w * c ** (2 * k - 1 + s) / (2 * k - 1 + s)
                      for k, w in enumerate(_WIGERT[:k_terms], 1)))
    if kind is MellinKind.ENERGY:
        return (pi2_6 * c ** (s - 2.0) / (s - 2.0)
                - 0.5 * c ** (s - 1.0) / (s - 1.0)
                + c ** s / (24.0 * s))
    raise DomainError(f"unknown Mellin kind {kind!r}")


def mellin_check(s: float, kind: MellinKind) -> tuple[float, float]:
    """Quadrature of the Mellin integral against its Gamma*zeta closed form.

    Returns (integral, closed_form) for the caller to compare.  The integral
    is split at x = c and x = 1: the head on [0, c] is integrated in closed
    small-x form, and [c, 1] and the tail, mapped through u = 1/x onto
    [0, 1], by mpmath's double-precision tanh-sinh rule (mpmath.fp.quad).
    The tail is split once more at u = 1/4, near the integrand's peak; in
    one piece the rule's rounding leaves ~1e-15 relative error.
    """
    if not math.isfinite(s):
        raise DomainError(f"Mellin check needs finite s, got {s}")
    if kind in (MellinKind.FREE_ENERGY, MellinKind.OCCUPATION):
        if s <= 1.0:
            raise DomainError(f"{kind.value} Mellin check needs s > 1, got {s}")
    elif kind is MellinKind.ENERGY:
        if s <= 2.0:
            raise DomainError(f"energy Mellin check needs s > 2, got {s}")
    else:
        raise DomainError(f"unknown Mellin kind {kind!r}")
    import mpmath

    # -ln Z, N and sum sigma_1(n) e^{-nx} = (E/kT)/x
    base = {MellinKind.FREE_ENERGY: lambda x: -free_energy(x),
            MellinKind.OCCUPATION: occupation,
            MellinKind.ENERGY: lambda x: internal_energy(x) / x}[kind]

    def fx(x: float) -> float:
        return base(x) * x ** (s - 1.0)

    def tail(u: float) -> float:
        # the integrand vanishes once e^{-1/u} underflows; stop before u^{-s-1}
        # can overflow at the rule's nodes next to u = 0
        if u * 745.0 < 1.0:
            return 0.0
        return base(1.0 / u) * u ** (-s - 1.0)

    c = LOWFREQ_SWITCH
    head = _mellin_head(kind, s, c)
    mid = mpmath.fp.quad(fx, [c, 1.0])
    top = mpmath.fp.quad(tail, [0.0, 0.25, 1.0])

    if kind is MellinKind.FREE_ENERGY:
        closed = gamma_fn(s) * riemann_zeta(s) * riemann_zeta(s + 1.0)
    elif kind is MellinKind.OCCUPATION:
        closed = gamma_fn(s) * riemann_zeta(s) ** 2
    else:
        closed = gamma_fn(s) * riemann_zeta(s) * riemann_zeta(s - 1.0)
    return head + mid + top, closed
