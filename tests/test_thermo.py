import math
import re
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulergas import modular, radiation, thermo
from eulergas.errors import DomainError
from eulergas.thermo import (DUAL_SWITCH, EULER_GAMMA, TAIL_EPS, MellinKind,
                             PlanckVariant,
                             _bose, _dual_tail, _lambert, _mellin_integral,
                             _pentagonal, _power_tails, _wigert, entropy,
                             entropy_lowfreq,
                             free_energy, free_energy_lowfreq,
                             internal_energy, internal_energy_lowfreq,
                             mellin_check, occupation, occupation_lowfreq,
                             per_mode_energy_fluctuation, planck_factor,
                             thermo_per_mode)
from oracles import (free_energy_log_form, internal_energy_bose,
                     level_sums_mp, occupation_bose, occupation_mp,
                     sigma_table, wigert_partial_mp)

X_GRID = np.geomspace(1e-3, 20.0, 50)


# ---------------------------------------------------------------------------
# dual routes and the thermodynamic identity
# ---------------------------------------------------------------------------

def test_dual_route_agreement_on_grid():
    for x in X_GRID:
        x = float(x)
        f_sigma, f_log = free_energy(x), free_energy_log_form(x)
        assert abs(f_sigma - f_log) <= 1e-12 * max(abs(f_sigma), 1e-30)
        n_sigma, n_bose = occupation(x), occupation_bose(x)
        assert abs(n_sigma - n_bose) <= 1e-12 * max(abs(n_sigma), 1e-30)
        e_sigma, e_bose = internal_energy(x), internal_energy_bose(x)
        assert abs(e_sigma - e_bose) <= 1e-12 * max(abs(e_sigma), 1e-30)


def test_identity_s_equals_e_minus_f_on_grid():
    for x in X_GRID:
        x = float(x)
        tm = thermo_per_mode(x)
        assert tm.s_over_k == tm.e_over_kT - tm.f_over_kT  # by construction
        s_series = entropy(x)
        assert abs(s_series - tm.s_over_k) <= 1e-12 * max(abs(s_series), 1.0)


def test_per_mode_fields_are_positive_where_required():
    for x in (0.01, 0.5, 3.0):
        tm = thermo_per_mode(x)
        assert tm.n_occ > 0.0 and tm.e_over_kT > 0.0
        assert tm.f_over_kT < 0.0
        assert tm.terms_used > 0 and tm.tail_bound >= 0.0


# ---------------------------------------------------------------------------
# low-frequency forms and their error envelopes
# ---------------------------------------------------------------------------

def dual_scale_f_error(x):
    # exact gap: F_exact - F_lowfreq = sum_l ln(1 - e^{-4 pi^2 l / x})
    q = math.exp(-4.0 * math.pi ** 2 / x)
    return math.fsum(math.log1p(-q ** l) for l in range(1, 40))


def dual_scale_e_error(x):
    # exact gap from x * d/dx of the free-energy error term:
    # E_exact - E_lowfreq = -(4 pi^2 / x) sum sigma_1(m) e^{-4pi^2 m/x}
    _, s1 = sigma_table(64)
    q = math.exp(-4.0 * math.pi ** 2 / x)
    return -(4.0 * math.pi ** 2 / x) * math.fsum(s1[m] * q ** m for m in range(1, 40))


def test_free_energy_lowfreq_formula_literal():
    x = 0.1
    inline = -math.pi ** 2 / 0.6 - 0.5 * math.log(0.1 / (2 * math.pi)) + 0.1 / 24
    assert free_energy_lowfreq(x) == pytest.approx(inline, rel=1e-15)


@pytest.mark.parametrize("x", [2.0, 3.0, 5.0])
def test_free_energy_gap_equals_dual_scale_error(x):
    gap = free_energy(x) - free_energy_lowfreq(x)
    assert abs(gap - dual_scale_f_error(x)) <= 1e-12 * abs(free_energy(x)) + 1e-15


def test_free_energy_gap_below_rounding_at_x_1():
    # the true gap at x = 1 is ~7e-18, unresolvable in doubles; the observed
    # difference is pure rounding noise
    assert abs(free_energy(1.0) - free_energy_lowfreq(1.0)) < 5e-15


def test_free_energy_gap_shrinks_toward_small_x():
    gaps = [abs(free_energy(x) - free_energy_lowfreq(x))
            for x in (5.0, 3.0, 2.0, 1.5)]
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]


@pytest.mark.parametrize("x", [2.0, 3.0, 5.0])
def test_internal_energy_gap_equals_dual_scale_error(x):
    gap = internal_energy(x) - internal_energy_lowfreq(x)
    want = dual_scale_e_error(x)
    assert abs(gap - want) <= 1e-10 * max(abs(want), 1e-12) + 1e-14


@pytest.mark.parametrize("x", [2.0, 3.0])
def test_entropy_gap_equals_dual_scale_error(x):
    gap = entropy(x) - entropy_lowfreq(x)
    want = dual_scale_e_error(x) - dual_scale_f_error(x)
    assert abs(gap - want) <= 1e-10 * max(abs(want), 1e-12) + 1e-13


def test_occupation_lowfreq_value_and_gap():
    # closed form at x = 0.01: (4.60517 + 0.57722)/0.01
    lf = occupation_lowfreq(0.01)
    assert lf == pytest.approx((-math.log(0.01) + 0.5772156649015329) / 0.01,
                               rel=1e-12)
    assert lf == pytest.approx(518.24, abs=0.01)
    exact = occupation(0.01)
    assert abs(exact - lf) / exact < 0.02


def test_occupation_relative_gap_shrinks_toward_small_x():
    rels = [abs(occupation(x) - occupation_lowfreq(x)) / occupation(x)
            for x in (1.0, 0.3, 0.1, 0.03, 0.01)]
    assert all(a > b for a, b in zip(rels, rels[1:]))


def test_internal_energy_value_at_one():
    # series against the closed form; the dual-scale gap there is ~3e-16
    inline = math.pi ** 2 / 6.0 - 0.5 + 1.0 / 24.0
    assert internal_energy_lowfreq(1.0) == pytest.approx(inline, rel=1e-15)
    assert inline == pytest.approx(1.1866, abs=1e-4)
    assert abs(internal_energy(1.0) - inline) <= 1e-10


def test_internal_energy_lowfreq_at_tenth():
    inline = math.pi ** 2 / 0.6 - 0.5 + 0.1 / 24.0
    assert internal_energy_lowfreq(0.1) == pytest.approx(inline, rel=1e-15)
    assert inline == pytest.approx(15.953, abs=1e-3)


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------

def test_high_frequency_single_term_limits():
    x = 30.0
    assert abs(free_energy(x) / (-math.exp(-x)) - 1.0) < 1e-11
    assert abs(occupation(x) / math.exp(-x) - 1.0) < 1e-11
    assert abs(internal_energy(x) / (x * math.exp(-x)) - 1.0) < 1e-11
    assert abs(entropy(x) / ((x + 1.0) * math.exp(-x)) - 1.0) < 1e-11
    assert abs(per_mode_energy_fluctuation(x) / (x * x * math.exp(-x)) - 1.0) < 1e-11


def test_occupation_example_at_five():
    # direct Bose summation oracle
    direct = math.fsum(1.0 / math.expm1(5.0 * n) for n in range(1, 40))
    got = occupation(5.0)
    assert abs(got - direct) <= 1e-14
    # the first term alone is 6.7379e-3; the full sum sits 9.1e-5 above it
    assert got == pytest.approx(6.7379e-3, abs=1e-4)


def test_asymptotic_balance_at_small_x():
    # E ~ -F and S ~ 2E as x -> 0, with the misfit shrinking
    for x, tol in ((0.01, 0.05), (0.001, 0.02)):
        f, e, s = free_energy(x), internal_energy(x), entropy(x)
        assert abs(e + f) / abs(e) < tol
        assert abs(s - 2.0 * e) / abs(s) < tol


def test_crossover_to_planck_at_high_frequency():
    for x in (15.0, 18.0, 20.0):
        gap = internal_energy(x) - planck_factor(x, PlanckVariant.PLANCK)
        n2 = 2.0 * x * math.exp(-2.0 * x)
        assert abs(gap - n2) <= 1e-6 * x * math.exp(-x)


# ---------------------------------------------------------------------------
# fluctuation
# ---------------------------------------------------------------------------

def test_fluctuation_matches_temperature_derivative():
    # epsilon^2/(kT)^2 = d/dT [T * e(1/T)] at T = 1/x in h*nu/k = 1 units
    for x in (0.5, 1.0, 2.0):
        t0 = 1.0 / x
        h = 1e-5 * t0

        def phi(t):
            return t * internal_energy(1.0 / t)

        fd = (phi(t0 + h) - phi(t0 - h)) / (2.0 * h)
        got = per_mode_energy_fluctuation(x)
        assert abs(got - fd) <= 1e-6 * abs(fd)


def test_fluctuation_monotone_on_sampled_grid():
    values = [per_mode_energy_fluctuation(x) for x in (0.1, 0.5, 1.0, 2.0)]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# conventional comparators
# ---------------------------------------------------------------------------

def test_planck_factor_values():
    assert abs(planck_factor(1e-9, PlanckVariant.PLANCK) - 1.0) <= 1e-9
    assert planck_factor(1.0, PlanckVariant.PLANCK) == pytest.approx(
        1.0 / (math.e - 1.0), rel=1e-14)
    want = 2.0 * math.cosh(1.0) / math.sinh(1.0)
    assert planck_factor(2.0, PlanckVariant.ZERO_POINT) == pytest.approx(
        want, rel=1e-14)


def test_zero_point_identity():
    # x*coth(x/2) = x + 2*x/(e^x - 1) exactly
    for x in (0.1, 1.0, 5.0, 20.0):
        zp = planck_factor(x, PlanckVariant.ZERO_POINT)
        assert zp == pytest.approx(x + 2.0 * planck_factor(x, PlanckVariant.PLANCK),
                                   rel=1e-13)


def test_zero_point_factor_at_subnormal_x():
    # below the least normal double 0.5 * x loses bits (and is 0 at 5e-324),
    # while x coth(x/2) rounds to 2.0; from there up the quotient is within
    # an ulp of 2
    subnormals = [k * 5e-324 for k in range(1, 2000)]
    subnormals += [2.0 ** -e for e in range(1023, 1075)]
    subnormals += [1e-310, math.nextafter(sys.float_info.min, 0.0)]
    for x in subnormals:
        assert planck_factor(x, PlanckVariant.ZERO_POINT) == 2.0, x
    x = sys.float_info.min
    for _ in range(2000):
        assert abs(planck_factor(x, PlanckVariant.ZERO_POINT) - 2.0) <= 2.0 ** -51
        x = math.nextafter(x, 1.0)


def test_planck_factor_domain():
    with pytest.raises(DomainError):
        planck_factor(0.0, PlanckVariant.PLANCK)


def test_bose_factor_edges():
    # 0 once e^{-x} underflows, even where the prefactor overflowed; at x = 0
    # the division fails, which the occupation sweep reports in its cell
    assert _bose(800.0) == 0.0
    assert _bose(math.inf, math.inf) == 0.0
    with pytest.raises(ZeroDivisionError) as exc:
        _bose(0.0)
    assert str(exc.value) == "float division by zero"


# ---------------------------------------------------------------------------
# Mellin checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s,kind", [
    (2.0, MellinKind.FREE_ENERGY),
    (2.0, MellinKind.OCCUPATION),
    (3.0, MellinKind.ENERGY),
])
def test_mellin_integral_matches_closed_form(s, kind):
    start = time.monotonic()
    integral, closed = mellin_check(s, kind)
    elapsed = time.monotonic() - start
    assert abs(integral - closed) <= 1e-6 * abs(closed)
    assert elapsed < 1.0


def test_mellin_reference_values():
    integral, closed = mellin_check(2.0, MellinKind.FREE_ENERGY)
    assert closed == pytest.approx(1.9773, abs=1e-4)
    integral, closed = mellin_check(2.0, MellinKind.OCCUPATION)
    assert closed == pytest.approx(2.7058, abs=1e-4)


def _gamma_zeta_zeta_mp(s, kind):
    # the closed form Gamma(s) zeta(s) zeta(s - k) at 40 digits
    k = thermo._MELLIN[kind]
    with mpmath.workdps(40):
        return mpmath.gamma(s) * mpmath.zeta(s) * mpmath.zeta(s - k)


@pytest.mark.parametrize("kind", list(MellinKind))
def test_mellin_integral_within_its_bound(kind):
    # 40 s from just above the least s to where Gamma(s) nears the largest
    # double, denser at small s, where the head and the cancelling lower
    # series weigh most, and two s just above s_min + 1, where Gamma(s) is
    # just above a power of 2 and its 10 ulps weigh most; the bound must
    # hold and stay below 4e-15
    k = thermo._MELLIN[kind]
    s_min = max(1.0, k + 1.0)
    grid = [s_min + 1e-3 + (171.62 - s_min - 1e-3) * (i / 39) ** 2
            for i in range(40)]
    for s in grid + [s_min + 1.0, s_min + 1.0125]:
        integral, bound = _mellin_integral(s, k)
        exact = _gamma_zeta_zeta_mp(s, kind)
        assert abs(integral - exact) <= bound <= 4e-15 * exact, s


@pytest.mark.parametrize("s,kind", [
    (29.81, MellinKind.FREE_ENERGY), (29.82, MellinKind.FREE_ENERGY),
    (127.92, MellinKind.FREE_ENERGY), (29.71, MellinKind.OCCUPATION),
    (29.91, MellinKind.OCCUPATION), (30.0, MellinKind.OCCUPATION),
    (127.95, MellinKind.OCCUPATION), (29.81, MellinKind.ENERGY),
    (127.89, MellinKind.ENERGY), (127.91, MellinKind.ENERGY),
])
def test_mellin_check_where_the_quadrature_divided_by_zero(s, kind):
    # the tanh-sinh rule's error estimate divided by log10 |S6 - S4|, which
    # is 0 where that difference is 1.0: at these s, depending on the libm,
    # it raised ZeroDivisionError
    integral, closed = mellin_check(s, kind)
    _, bound = _mellin_integral(s, thermo._MELLIN[kind])
    exact = _gamma_zeta_zeta_mp(s, kind)
    assert abs(integral - exact) <= bound <= 4e-15 * exact
    assert abs(closed - exact) <= 4e-15 * exact


@pytest.mark.parametrize("kind", list(MellinKind))
@pytest.mark.parametrize("s,tol", [(107.0, 1e-14), (130.0, 1e-11),
                                   (170.0, 1e-8)])
def test_mellin_check_where_the_tail_power_overflows(kind, s, tol):
    # u^(-s-1) overflows a double at u = 1/745 from s ~ 106.4 up, where the
    # tanh-sinh rule's tail took it in logs and left an error of up to tol;
    # the incomplete-gamma terms raise no such power and meet 1e-15
    with pytest.raises(OverflowError):
        (1.0 / 745.0) ** (-s - 1.0)
    integral, closed = mellin_check(s, kind)
    assert abs(integral - closed) <= 1e-15 * closed < tol * closed


@pytest.mark.parametrize("kind", list(MellinKind))
@pytest.mark.parametrize("s", [170.5, 171.0, 171.6])
def test_mellin_check_up_to_the_largest_double(kind, s):
    # Gamma(s) zeta zeta fits a double up to s ~ 171.62, and so does every
    # part of the integral
    integral, closed = mellin_check(s, kind)
    assert math.isfinite(closed)
    assert abs(integral - closed) <= 1e-15 * closed


@pytest.mark.parametrize("kind", list(MellinKind))
@pytest.mark.parametrize("s", [171.7, 1e308])
def test_mellin_check_past_the_largest_double_is_refused(kind, s):
    with pytest.raises(DomainError, match="s <= 171.62"):
        mellin_check(s, kind)


def test_mellin_domain_errors():
    with pytest.raises(DomainError):
        mellin_check(1.0, MellinKind.FREE_ENERGY)
    with pytest.raises(DomainError):
        mellin_check(2.0, MellinKind.ENERGY)


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def test_small_x_values_match_euler_maclaurin_sums():
    # down to x = 1e-12 every quantity agrees with level sums to 50 digits;
    # N's tail_bound covers Wigert's remainder, which at x = 1e-12 is
    # ~1e-41 next to N ~ 3e13, so 40 digits would not resolve it
    for x in (1e-12, 1e-9, 1e-7, 3e-6):
        tm = thermo_per_mode(x)
        got = (tm.f_over_kT, tm.n_occ, tm.e_over_kT, tm.s_over_k,
               per_mode_energy_fluctuation(x))
        k_terms = tm.terms_used  # below the switch every term is Wigert's
        with mpmath.workdps(50):
            want = level_sums_mp(x)
            remainder = abs(want[1] - wigert_partial_mp(x, k_terms))
            assert tm.tail_bound >= remainder, x
        for g, w in zip(got, want):
            assert abs(g - w) <= 2e-15 * abs(w), x


@pytest.mark.parametrize("x", [1e-306, 1e-310, 5e-324])
def test_overflow_below_the_double_range(x):
    # N ~ ln(1/x)/x exceeds the largest double below x ~ 3.9e-306
    with pytest.raises(OverflowError):
        thermo_per_mode(x)
    with pytest.raises(OverflowError):
        per_mode_energy_fluctuation(x)


def test_overflow_threshold_is_where_n_overflows():
    # _X_MIN is the least x at which Wigert's N is a finite double
    assert _wigert(thermo._X_MIN)[0] == 1.7976931348623157e308
    assert _wigert(math.nextafter(thermo._X_MIN, 0.0))[0] == math.inf


@pytest.mark.parametrize("x", [math.nextafter(thermo._X_MIN, 0.0), 5e-324])
def test_every_per_mode_quantity_overflows_below_the_threshold(x):
    # also those that never compute N, and before any log (ln(x/2pi)
    # underflows at 5e-324)
    for quantity in (thermo_per_mode, free_energy, occupation,
                     internal_energy, entropy, per_mode_energy_fluctuation):
        with pytest.raises(OverflowError):
            quantity(x)
    assert math.isfinite(free_energy(thermo._X_MIN))


_LOWFREQ = {
    "F/kT": (free_energy_lowfreq, lambda x: -math.pi ** 2 / (6.0 * x)
             - 0.5 * math.log(x / (2.0 * math.pi)) + x / 24.0),
    "E/kT": (internal_energy_lowfreq,
             lambda x: math.pi ** 2 / (6.0 * x) - 0.5 + x / 24.0),
    "S/k": (entropy_lowfreq, lambda x: math.pi ** 2 / (3.0 * x)
            + 0.5 * math.log(x / (2.0 * math.pi)) - 0.5),
    "N": (occupation_lowfreq, lambda x: (-math.log(x) + EULER_GAMMA) / x),
}


@pytest.mark.parametrize("name", _LOWFREQ)
@pytest.mark.parametrize("x", [5e-324, 1e-323, 1.5e-323, 1e-310])
def test_lowfreq_forms_past_the_doubles_name_x(name, x):
    # they read a bare ValueError from ln(x/2pi) at 5e-324 and 1e-323, and
    # inf or -inf at 1e-310
    with pytest.raises(OverflowError, match=(
            rf"^low-frequency {re.escape(name)} at x={x:g} exceeds the "
            r"largest double$")):
        _LOWFREQ[name][0](x)


@pytest.mark.parametrize("name", _LOWFREQ)
def test_lowfreq_forms_keep_their_bits_down_to_where_they_overflow(name):
    form, literal = _LOWFREQ[name]
    x = 1e-300
    while True:  # halve x until the form is refused: every value before that
        try:     # is the formula's double
            value = form(x)
        except OverflowError:
            break
        assert value == literal(x) and math.isfinite(value)
        x *= 0.5
    assert x < 1e-305
    try:  # and the formula's double is not finite where it is refused
        refused = literal(x)
    except ValueError:  # ln(x/2pi) of 0
        refused = math.inf
    assert not math.isfinite(refused)


@pytest.mark.parametrize("x", [1e-200, 1e-160, 1e200])
def test_finite_where_the_lambert_argument_squared_overflows(x):
    # the Lambert sums at 4 pi^2/x (small x) or at x (large x) vanish; the
    # fluctuation's x^2 factor there overflows, and must not make 0 a nan
    tm = thermo_per_mode(x)
    fields = (tm.f_over_kT, tm.n_occ, tm.e_over_kT, tm.s_over_k,
              per_mode_energy_fluctuation(x), tm.tail_bound)
    assert all(math.isfinite(v) for v in fields)
    if x < 1.0:
        assert per_mode_energy_fluctuation(x) == pytest.approx(
            math.pi ** 2 / (3.0 * x), rel=1e-15)
    else:
        assert fields[:5] == (0.0,) * 5
        assert tm.tail_bound == math.ulp(0.0)


def test_domain_errors():
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            internal_energy(bad)
        with pytest.raises(DomainError):
            free_energy_lowfreq(bad)


# ---------------------------------------------------------------------------
# Lambert and dual-scale routes against independent sums
# ---------------------------------------------------------------------------

def _fields(x):
    tm = thermo_per_mode(x)
    return (tm.f_over_kT, tm.n_occ, tm.e_over_kT, tm.s_over_k,
            per_mode_energy_fluctuation(x))


def _divisor_series(x, s0, s1):
    """F, N, E, S and the fluctuation as literal divisor series, with S taken
    termwise as sum sigma_1(n)(x + 1/n) e^{-nx}."""
    n = np.arange(1, len(s0), dtype=np.float64)
    w0 = np.asarray(s0[1:], dtype=np.float64)
    w1 = np.asarray(s1[1:], dtype=np.float64)
    ex = np.exp(-x * n)
    return (-math.fsum(w1 / n * ex), math.fsum(w0 * ex),
            x * math.fsum(w1 * ex), math.fsum(w1 * (x + 1.0 / n) * ex),
            x * x * math.fsum(n * w1 * ex))


def test_routes_match_divisor_series():
    # n x >= 60 at the last table entry, so the series tails are negligible
    s0, s1 = sigma_table(6100)
    for x in np.geomspace(1e-2, 20.0, 25):
        x = float(x)
        for got, want in zip(_fields(x), _divisor_series(x, s0, s1)):
            assert abs(got - want) <= 1e-13 * abs(want), x


def test_routes_join_at_the_split():
    # both sides of the switch (and of x = 2, the switch before Wigert's
    # route) agree with the divisor series to 1e-14, so the dual-scale and
    # Wigert routes meet the direct one without a jump
    s0, s1 = sigma_table(200)
    for x in (2.0 * (1.0 - 1e-12), 2.0 * (1.0 + 1e-12),
              math.nextafter(DUAL_SWITCH, 0.0), DUAL_SWITCH):
        for got, want in zip(_fields(x), _divisor_series(x, s0, s1)):
            assert abs(got - want) <= 1e-14 * abs(want), x


def _mp_lambert(x, d_from, d_to):
    """Sums over d_from <= d < d_to of the four Lambert terms at x, in
    mpmath: -ln(1 - r^d), r^d/(1 - r^d), d r^d/(1 - r^d), d^2 r^d/(1 - r^d)^2."""
    x = mpmath.mpf(x)
    r = mpmath.exp(-x)
    rd = r ** d_from
    ln_z = n = e = fl = mpmath.mpf(0)
    for d in range(d_from, d_to):
        q = rd / (1 - rd)
        ln_z -= mpmath.log1p(-rd)
        n += q
        e += d * q
        fl += d * d * q / (1 - rd)
        rd *= r
    return ln_z, n, e, fl


def _mp_pentagonal(x, k_from, k_to):
    """Sums over k_from <= k < k_to of the pentagonal pairs at x, in mpmath:
    (-1)^k p^j (r^{a_k} + r^{b_k}) for j = 0, 1, 2, with r = e^{-x},
    a_k = k(3k-1)/2 and b_k = a_k + k."""
    return _mp_pentagonal_at(mpmath.exp(-mpmath.mpf(x)), k_from, k_to)


def _mp_pentagonal_at(y, k_from, k_to):
    """The same sums at a real or complex y (an mpf or mpc)."""
    sums = [0 * y] * 3
    for k in range(k_from, k_to):
        a = k * (3 * k - 1) // 2
        for p in (a, a + k):
            term = (-1) ** k * y ** p
            sums = [s + p ** j * term for j, s in enumerate(sums)]
    return sums


def _mp_clausen(x, m_from, m_to):
    """Sum over m_from <= m < m_to of r^{m^2} (1 + r^m)/(1 - r^m), in mpmath."""
    r = mpmath.exp(-mpmath.mpf(x))
    return mpmath.fsum(r ** (m * m) * (1 + r ** m) / (1 - r ** m)
                       for m in range(m_from, m_to))


def _mp_dropped(x, k):
    """What the pentagonal pairs after the first k change in ln Z, E/kT and
    the fluctuation at x, in mpmath: with the kept sums s_j, P = 1 + s_0,
    the dropped ones t_j and P' = P + t_0, the changes of P_j/P are
    (t_j P - s_j t_0)/(P P'), taken so that nothing cancels."""
    x = mpmath.mpf(x)
    s0, s1, s2 = _mp_pentagonal(x, 1, k + 1)
    t0, t1, t2 = _mp_pentagonal(x, k + 1, k + 30)
    p = 1 + s0
    den = p * (p + t0)
    du, dv = (t1 * p - s1 * t0) / den, (t2 * p - s2 * t0) / den
    return (-mpmath.log1p(t0 / p), -x * du,
            x * x * (du * (2 * s1 / p + du) - dv))


def _pentagonal_bounds_mp(x, k):
    """The bounds on what the pairs after the first k change in ln Z, E/kT
    and the fluctuation at x, at the working precision: with a = a_{k+1},
    t_j = a^j r^a/(1 - ((a+1)/a)^j r), low = P - t_0, u = |P_1/P|,
    v = |P_2/P|, du = (t_1 + u t_0)/low and dv = (t_2 + v t_0)/low, they are
    t_0/low, x du and x^2 (du (2u + du) + dv)."""
    x = mpmath.mpf(x)
    r = mpmath.exp(-x)
    a = (k + 1) * (3 * k + 2) // 2
    t0, t1, t2 = (mpmath.mpf(a) ** j * r ** a
                  / (1 - (mpmath.mpf(a + 1) / a) ** j * r) for j in range(3))
    s0, s1, s2 = _mp_pentagonal(x, 1, k + 1)
    p = 1 + s0
    u, v = abs(s1 / p), abs(s2 / p)
    low = p - t0
    du, dv = (t1 + u * t0) / low, (t2 + v * t0) / low
    return t0 / low, x * du, x * x * (du * (2 * u + du) + dv)


def _dual_parts_mp(x):
    """What the closed forms drop below the switch, at the working
    precision: ln Z, E/kT and the fluctuation at y = 4 pi^2/x, from the
    Lambert sums there."""
    y = 4 * mpmath.pi ** 2 / mpmath.mpf(x)
    ln_z, _, e, fl = _mp_lambert(y, 1, 40)
    return ln_z, y * e, y * y * fl


def _dual_bounds_mp(x):
    """The bounds on _dual_parts_mp at the working precision: q/(1 - q)^2,
    y q (1 + q)/(1 - q)^3 and y^2 q (1 + 4q + q^2)/(1 - q)^4, q = e^{-y};
    _dual_tail is the last."""
    y = 4 * mpmath.pi ** 2 / mpmath.mpf(x)
    q = mpmath.exp(-y)
    return (q / (1 - q) ** 2, y * q * (1 + q) / (1 - q) ** 3,
            y * y * q * (1 + 4 * q + q * q) / (1 - q) ** 4)


@pytest.mark.parametrize("x", [0.9, 2.0 * math.pi, 30.0])
def test_pentagonal_and_clausen_identities(x):
    # Euler's pentagonal theorem, P = 1 + s_0 = prod (1 - r^d); its two
    # derivatives in ln r, read through ln P as P_1/P = -sum d r^d/(1 - r^d)
    # and P_2/P - (P_1/P)^2 = -sum d^2 r^d/(1 - r^d)^2; and Clausen's
    # identity for N: each against the 40-digit Lambert sums
    with mpmath.workdps(40):
        ln_z, n, e, fl = _mp_lambert(x, 1, int(110.0 / x) + 10)
        s0, s1, s2 = _mp_pentagonal(x, 1, 12)
        p = 1 + s0
        pairs = ((-mpmath.log1p(s0), ln_z), (s1 / p, -e),
                 (s2 / p - (s1 / p) ** 2, -fl), (_mp_clausen(x, 1, 12), n))
        for got, want in pairs:
            assert abs(got - want) <= mpmath.mpf(10) ** -36 * abs(want), x


def test_tail_bound_covers_dropped_terms():
    # direct route: K pentagonal pairs and M Clausen terms.  Each dropped
    # P_j tail (pairs k > K) is within _power_tails from the first dropped
    # exponent; the three carried into ln Z, E and the fluctuation are within
    # their bounds, which the kernel evaluates to 1e-11; and tail_bound
    # covers them and the dropped Clausen terms m > M
    for x in (DUAL_SWITCH, 3.0, 30.0):
        tm = thermo_per_mode(x)
        *_, k, t_z, t_e, t_fl = _lambert(x)
        m = tm.terms_used - k
        assert k >= 1 and m >= 1
        a = (k + 1) * (3 * k + 2) // 2
        with mpmath.workdps(40):
            tails = _mp_pentagonal(x, k + 1, k + 30)
            for j, t in enumerate(tails):
                assert _power_tails(a - 1, math.exp(-x))[j] >= abs(t) > 0
            dropped = [abs(t) for t in _mp_dropped(x, k)]
            for got, bound, t in zip((t_z, t_e, t_fl),
                                     _pentagonal_bounds_mp(x, k), dropped):
                assert bound >= t and abs(got / bound - 1) <= 1e-11, x
            dropped.append(_mp_clausen(x, m + 1, m + 30))
            assert all(tm.tail_bound >= t > 0 for t in dropped), x
    # below the switch: F, E, S and the fluctuation are closed forms, which
    # drop ln Z, E and the fluctuation at 4 pi^2/x whole; N is Wigert's
    # expansion through all terms_used terms, whose remainder is the 40-digit
    # N minus them
    x = 0.5
    tm = thermo_per_mode(x)
    assert tm.terms_used >= 1
    with mpmath.workdps(40):
        dropped = [abs(t) for t in _dual_parts_mp(x)]
        bounds = _dual_bounds_mp(x)
        assert all(bound >= t for bound, t in zip(bounds, dropped))
        assert bounds[0] < bounds[1] < bounds[2]
        assert abs(_dual_tail(x) / bounds[2] - 1) <= 1e-11
        assert all(tm.tail_bound >= t > 0 for t in dropped)
        remainder = abs(occupation_mp(x) - wigert_partial_mp(x, tm.terms_used))
        assert tm.tail_bound >= remainder > 0


# every ThermoPerMode field pinned to the bit, by repr: the closed forms and
# Wigert's expansion (1e-12, 0.5), the pairs and Clausen's sum (0.9 to 30), subnormal powers
# (700) and a subnormal r (745)
PINNED_MODES = [
    (1e-12, 'ThermoPerMode(f_over_kT=-1644934066833.492, n_occ=28208236780830.332, e_over_kT=1644934066847.7263, s_over_k=3289868133681.2183, fluct=3289868133695.9526, terms_used=1, tail_bound=5.902156259363353e-28)'),
    (0.5, 'ThermoPerMode(f_over_kT=-2.003522676878474, n_occ=2.7872520178134574, e_over_kT=2.8107014670297863, s_over_k=4.814224143908261, fluct=6.079736267392906, terms_used=8, tail_bound=1.8980015837761135e-17)'),
    (0.9, 'ThermoPerMode(f_over_kT=-0.8185857276866657, n_occ=1.0021594616993799, e_over_kT=1.3652045187202515, s_over_k=2.183790246406917, fluct=3.1554090374405033, terms_used=12, tail_bound=1.6688044227002262e-19)'),
    (1.0, 'ThermoPerMode(f_over_kT=-0.684328866976887, n_occ=0.8202595115424169, e_over_kT=1.1866007335148925, s_over_k=1.8709296004917795, fluct=2.789868133696462, terms_used=11, tail_bound=6.206233070603318e-19)'),
    (3.0, 'ThermoPerMode(f_over_kT=-0.05368089389292586, n_occ=0.05501049936453108, e_over_kT=0.173285995298587, s_over_k=0.22696688919151284, fluct=0.5969057209280618, terms_used=6, tail_bound=1.5745090122045362e-21)'),
    (30.0, 'ThermoPerMode(f_over_kT=-9.357622968841489e-14, n_occ=9.357622968841925e-14, e_over_kT=2.807286890652841e-12, s_over_k=2.9008631203412558e-12, fluct=8.421860671960887e-11, terms_used=2, tail_bound=7.667648073731103e-53)'),
    (700.0, 'ThermoPerMode(f_over_kT=-9.85967654375977e-305, n_occ=9.85967654375977e-305, e_over_kT=6.90177358063184e-302, s_over_k=6.911633257175599e-302, fluct=4.831241506442288e-299, terms_used=2, tail_bound=5e-324)'),
    (745.0, 'ThermoPerMode(f_over_kT=-5e-324, n_occ=5e-324, e_over_kT=2.105e-321, s_over_k=2.11e-321, fluct=1.566475e-318, terms_used=2, tail_bound=5e-324)'),
]


@pytest.mark.parametrize("x, want", PINNED_MODES)
def test_thermo_per_mode_is_pinned_to_the_bit(x, want):
    assert repr(thermo_per_mode(x)) == want


@pytest.mark.parametrize("turn", [i / 12 for i in range(12)] + [0.5 - 1e-9])
def test_pentagonal_at_complex_y(turn):
    # at |y| = e^{-DUAL_SWITCH}, the edge of the kernel's domain, around that
    # circle: the K pairs summed in doubles agree with the same pairs in 40
    # digits up to rounding, relative to the sums of their absolute values,
    # and each dropped P_j tail (pairs k > K) is within
    # _power_tails(a - 1, |y|)[j], as for real y
    r = math.exp(-DUAL_SWITCH)
    y = r * complex(math.cos(2 * math.pi * turn), math.sin(2 * math.pi * turn))
    *sums, a, k = _pentagonal(y)
    assert a == (k + 1) * (3 * k + 2) // 2 and 1 <= k <= 6
    with mpmath.workdps(40):
        y_mp = mpmath.mpc(y.real, y.imag)
        kept = _mp_pentagonal_at(y_mp, 1, k + 1)
        sizes = [mpmath.fsum(p ** j * abs(y_mp) ** p
                             for i in range(1, k + 1)
                             for p in (i * (3 * i - 1) // 2, i * (3 * i + 1) // 2))
                 for j in range(3)]
        for got, want, size in zip(sums, kept, sizes):
            assert abs(mpmath.mpc(got) - want) <= 1e-15 * size, turn
        tails = _mp_pentagonal_at(y_mp, k + 1, k + 30)
        for j, t in enumerate(tails):
            assert _power_tails(a - 1, abs(y))[j] >= abs(t) > 0, turn


@pytest.mark.parametrize("x", [1000.0, 1e200, 1e-200])
def test_tail_bound_is_positive_where_the_dropped_terms_underflow(x):
    # every dropped term is positive but below the smallest positive
    # double, so the bound is that double, not 0
    tm = thermo_per_mode(x)
    assert tm.tail_bound == math.ulp(0.0)
    with mpmath.workdps(40):
        if x >= DUAL_SWITCH:
            d = _lambert(x)[3]
            ln_z, n, e, fl = _mp_lambert(x, d + 1, d + 50)
            y = mpmath.mpf(x)
            dropped = [ln_z, n, y * e, y * y * fl]
        else:
            # the parts at 4 pi^2/x that the closed forms drop, and Wigert's
            # remainder after the k terms summed, by its contour bound
            # zeta(3)^2 (k+1) (2k)! (x/4pi^2)^{2k}/(2pi)
            k = tm.terms_used
            wigert = (mpmath.zeta(3) ** 2 * (k + 1) * mpmath.factorial(2 * k)
                      * (mpmath.mpf(x) / (4 * mpmath.pi ** 2)) ** (2 * k)
                      / (2 * mpmath.pi))
            dropped = [*_dual_parts_mp(x), wigert]
        assert all(0 < t < tm.tail_bound for t in dropped), dropped


def _bound_formula_mp(x, tm):
    """The bound formula tail_bound stands for, at the working precision.

    Direct route, after K pentagonal pairs and M Clausen terms with
    r = e^{-x}: the largest of the three pentagonal bounds and Clausen's
    (1 + r)/(1 - r) r^{(M+1)^2}/(1 - r^{2M+3}).  Below the switch: the
    largest of the closed forms' three bounds, of order e^{-6e155} at the x
    below, and Wigert's contour bound
    zeta(3)^2 (K+1) (2K)! (x/4pi^2)^{2K}/(2pi) after K terms.
    """
    if x >= DUAL_SWITCH:
        k = _lambert(x)[3]
        m = tm.terms_used - k
        x = mpmath.mpf(x)
        r = mpmath.exp(-x)
        clausen = ((1 + r) / (1 - r) * r ** ((m + 1) ** 2)
                   / (1 - r ** (2 * m + 3)))
        return max(*_pentagonal_bounds_mp(x, k), clausen)
    k = tm.terms_used
    wigert = (mpmath.zeta(3) ** 2 * (k + 1) * mpmath.factorial(2 * k)
              * (mpmath.mpf(x) / (4 * mpmath.pi ** 2)) ** (2 * k) / (2 * mpmath.pi))
    return max(*_dual_bounds_mp(x), wigert)


@pytest.mark.parametrize("x", [359.0, 378.6, *np.linspace(354.0, 379.0, 51),
                               *np.geomspace(9.3e-161, 6.5e-155, 25),
                               *np.linspace(141.0, 187.0, 47), 186.1, 186.2])
def test_tail_bound_holds_below_the_normal_range(x):
    # where the bound, or the powers of r or (x/4pi^2)^{2K} in it, are below
    # the smallest normal double (r^{a_{K+1}} from x = 141.7, Clausen's
    # r^{(M+1)^2} from 177.1, the whole bound from about 186.1), it is still
    # at least the exact bound formula
    x = float(x)
    tm = thermo_per_mode(x)
    with mpmath.workdps(40):
        exact = _bound_formula_mp(x, tm)
        assert tm.tail_bound >= exact, (x, tm.tail_bound, exact)
        # and not loose: within 1e-11 or a few units of the smallest double
        assert tm.tail_bound <= exact * (1 + 1e-11) + 3 * math.ulp(0.0)


def test_values_match_40_digit_sums_up_to_the_underflow_of_r():
    # the pentagonal and Clausen route on 409 log points from the switch to
    # x = 745, where e^{-x} is the smallest subnormal: each value within
    # 2e-15 of the 40-digit Lambert sums, or within two units of the
    # smallest double where the value itself is subnormal
    with mpmath.workdps(40):
        for x in np.geomspace(DUAL_SWITCH, 745.0, 409):
            x = float(x)
            ln_z, n, e, fl = _mp_lambert(x, 1, int(110.0 / x) + 10)
            xm = mpmath.mpf(x)
            want = (-ln_z, n, xm * e, xm * e + ln_z, xm * xm * fl)
            for got, w in zip(_fields(x), want):
                tol = max(2e-15 * abs(w), 2 * math.ulp(0.0))
                assert abs(got - w) <= tol, (x, got, w)


def test_at_most_12_terms_from_the_switch_up():
    # 6 pentagonal pairs and 6 Clausen terms at x = 0.9, fewer above
    assert thermo_per_mode(DUAL_SWITCH).terms_used == 12
    for x in [*np.geomspace(DUAL_SWITCH, 1e300, 200), 745.0, 746.0]:
        assert thermo_per_mode(float(x)).terms_used <= 12, x


def test_thermo_per_mode_carries_the_fluctuation():
    for x in (1e-5, 0.5, DUAL_SWITCH, 3.0):
        tm = thermo_per_mode(x)
        assert tm.fluct == per_mode_energy_fluctuation(x)
        assert tm.s_over_k == tm.e_over_kT - tm.f_over_kT


def test_values_match_high_precision_lambert_sums():
    for x in (1.5e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 6.28, 8.0, 20.0, 30.0):
        with mpmath.workdps(25):
            ln_z, n, e, fl = _mp_lambert(x, 1, int(70.0 / x) + 20)
            want = [float(v) for v in (-ln_z, n, x * e, x * e + ln_z, x * x * fl)]
        for got, w in zip(_fields(x), want):
            assert abs(got - w) <= 2e-15 * abs(w), x


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_x_is_refused(x):
    with pytest.raises(DomainError, match="finite"):
        thermo_per_mode(x)
    with pytest.raises(DomainError, match="finite"):
        free_energy_lowfreq(x)


@pytest.mark.parametrize("kind", list(MellinKind))
def test_mellin_refuses_non_finite_s(kind):
    for s in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            mellin_check(s, kind)


# ---------------------------------------------------------------------------
# Closed forms below the switch, and N apart from the rest
# ---------------------------------------------------------------------------

def _assert_closed_forms_are_the_doubles(x):
    # the closed forms drop ln Z, E and the fluctuation at 4 pi^2/x; adding
    # those 40-digit parts back rounds to the same doubles, and _dual_tail's
    # bound, rounded up and floored at the smallest double as the kernel
    # does, is at least each part
    f, e, s, fluct, terms, tail = thermo._mode_sums(x)
    assert terms == 0
    with mpmath.workdps(40):
        ln_zy, e_y, fl_y = _dual_parts_mp(x)
        exact = (mpmath.mpf(f) - ln_zy, mpmath.mpf(e) - e_y,
                 mpmath.mpf(s) - e_y + ln_zy, mpmath.mpf(fluct) - 2 * e_y + fl_y)
        assert [float(v) for v in exact] == [f, e, s, fluct], x
        # and the closed forms are the law's to rounding: within 5e-16 of
        # the sum of their terms' sizes (3.6e-16 seen), each term taken at
        # 40 digits
        xm = mpmath.mpf(x)
        a = mpmath.pi ** 2 / (6 * xm)
        b = mpmath.log(xm / (2 * mpmath.pi)) / 2
        c = xm / 24
        law = ((-a - b + c - ln_zy, a + abs(b) + c),
               (a - 0.5 + c - e_y, a + 0.5 + c),
               (2 * a + b - 0.5 + ln_zy - e_y, 2 * a + abs(b) + 0.5),
               (2 * a - 0.5 - 2 * e_y + fl_y, 2 * a + 0.5))
        for got, (want, size) in zip((f, e, s, fluct), law):
            assert abs(got - want) <= 5e-16 * size, x
        assert tail == max(thermo._BOUND_ROUNDING * _dual_tail(x), math.ulp(0.0))
        assert tail >= fl_y > e_y > ln_zy > 0, x


@pytest.mark.parametrize("x", [*np.geomspace(thermo._X_MIN, 0.8, 150),
                               *np.linspace(0.8, 0.9, 101)[:-1],
                               math.nextafter(DUAL_SWITCH, 0.0)])
def test_closed_forms_are_the_doubles_below_the_switch(x):
    _assert_closed_forms_are_the_doubles(float(x))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=thermo._X_MIN,
                 max_value=math.nextafter(DUAL_SWITCH, 0.0)))
def test_closed_forms_are_the_doubles_for_any_x_below_the_switch(x):
    _assert_closed_forms_are_the_doubles(x)


@pytest.mark.parametrize("x", [3e-3, 0.5, math.nextafter(DUAL_SWITCH, 0.0),
                               DUAL_SWITCH, 3.0])
def test_only_thermo_per_mode_and_occupation_compute_n(monkeypatch, x):
    # with Wigert's and Clausen's sums out of order, everything that does
    # not read N still answers, on both sides of the switch
    def refuse(x):
        raise RuntimeError("N was computed")

    thermo._mode_sums.cache_clear()
    monkeypatch.setattr(thermo, "_wigert", refuse)
    monkeypatch.setattr(thermo, "_clausen", refuse)
    for quantity in (free_energy, internal_energy, entropy,
                     per_mode_energy_fluctuation):
        assert math.isfinite(quantity(x))
    assert modular.partition_generating(math.exp(-x)) > 1.0
    si = radiation.PhysicalConstants.si()
    temperature = 300.0
    nu = x * si.k * temperature / si.h
    cavity = radiation.CavitySpec(volume=1.0, temperature=temperature)
    assert radiation.emissivity(nu, cavity, si,
                                radiation.EmissivityModel.GENERAL) > 0.0
    for quantity in (thermo_per_mode, occupation):
        with pytest.raises(RuntimeError, match="N was computed"):
            quantity(x)


def test_the_kernel_has_one_bounded_cache():
    caches = [name for name, value in vars(thermo).items()
              if hasattr(value, "cache_info")]
    assert caches == ["_mode_sums"]
    assert thermo._mode_sums.cache_info().maxsize is not None


# ---------------------------------------------------------------------------
# Wigert's expansion of N below the switch
# ---------------------------------------------------------------------------

WIGERT_GRID = [*np.geomspace(1e-5, 0.8, 6), math.nextafter(DUAL_SWITCH, 0.0)]


@pytest.mark.parametrize("x", WIGERT_GRID)
def test_wigert_bound_covers_remainder(x):
    # the remainder after K terms is the 40-digit N minus the 40-digit
    # partial sum; tail_bound must cover it, and the stop rule must have met
    # its target within the tabled terms
    x = float(x)
    tm = thermo_per_mode(x)
    n_occ, k_terms, bound = _wigert(x)
    assert n_occ == tm.n_occ
    assert bound <= TAIL_EPS * (0.5772156649015329 - math.log(x)) / x
    with mpmath.workdps(40):
        exact = occupation_mp(x)
        remainder = abs(exact - wigert_partial_mp(x, k_terms))
        assert tm.tail_bound >= bound >= remainder
        assert abs(tm.n_occ - exact) <= 1e-15 * exact


def test_occupation_matches_exact_bose_sum():
    # the correctly rounded sum of the Bose terms, on both routes
    for x in [*np.geomspace(1e-4, 20.0, 25), math.nextafter(DUAL_SWITCH, 0.0)]:
        x = float(x)
        want = occupation_bose(x)
        assert abs(occupation(x) - want) <= 1e-15 * want, x


@pytest.mark.parametrize("s", [1.2, 1.5, 2.0, 3.0, 4.5])
def test_occupation_mellin_head_is_exact(s):
    # the head on [0, DUAL_SWITCH] integrates Wigert's expansion termwise, so
    # the occupation check agrees to rounding, like the other two kinds
    integral, closed = mellin_check(s, MellinKind.OCCUPATION)
    assert abs(integral - closed) <= 2e-15 * abs(closed)
