import math
import time

import mpmath
import numpy as np
import pytest

from eulergas.errors import DomainError
from eulergas.thermo import (DUAL_SWITCH, TAIL_EPS, MellinKind, PlanckVariant,
                             _lambert, _wigert, entropy, entropy_lowfreq,
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


def test_planck_factor_domain():
    with pytest.raises(DomainError):
        planck_factor(0.0, PlanckVariant.PLANCK)


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
        k_terms = tm.terms_used - _lambert(4.0 * math.pi ** 2 / x)[4]
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


def test_tail_bound_covers_dropped_terms():
    # direct route: the four sums at x each drop d > terms_used
    x = 3.0
    tm = thermo_per_mode(x)
    d = tm.terms_used
    with mpmath.workdps(40):
        ln_z, n, e, fl = _mp_lambert(x, d + 1, d + 200)
        dropped = (ln_z, n, x * e, x * x * fl)
        assert all(tm.tail_bound >= t > 0 for t in dropped)
    # dual route: ln Z, E and the fluctuation are Lambert sums at
    # y = 4 pi^2/x that drop d > d_y; N is Wigert's expansion through the
    # remaining k_terms terms, whose remainder is the 40-digit N minus them
    x = 0.5
    tm = thermo_per_mode(x)
    y = 4.0 * math.pi ** 2 / x
    d_y = _lambert(y)[4]
    k_terms = tm.terms_used - d_y
    assert d_y >= 1 and k_terms >= 1
    with mpmath.workdps(40):
        ln_z, _, e, fl = _mp_lambert(y, d_y + 1, d_y + 50)
        dropped = (ln_z, y * e, 2 * y * e + y * y * fl)
        assert all(tm.tail_bound >= t > 0 for t in dropped)
        remainder = abs(occupation_mp(x) - wigert_partial_mp(x, k_terms))
        assert tm.tail_bound >= remainder > 0


@pytest.mark.parametrize("x", [1000.0, 1e200, 1e-200])
def test_tail_bound_is_positive_where_the_dropped_terms_underflow(x):
    # every dropped term is positive but below the smallest positive
    # double, so the bound is that double, not 0
    tm = thermo_per_mode(x)
    assert tm.tail_bound == math.ulp(0.0)
    y = x if x >= DUAL_SWITCH else 4.0 * math.pi ** 2 / x
    d = _lambert(y)[4]
    with mpmath.workdps(40):
        ln_z, n, e, fl = _mp_lambert(y, d + 1, d + 50)
        y = mpmath.mpf(y)
        if x >= DUAL_SWITCH:
            dropped = [ln_z, n, y * e, y * y * fl]
        else:
            # Wigert's remainder after the k terms summed, by its contour
            # bound zeta(3)^2 (k+1) (2k)! (x/4pi^2)^{2k}/(2pi)
            k = tm.terms_used - d
            wigert = (mpmath.zeta(3) ** 2 * (k + 1) * mpmath.factorial(2 * k)
                      * (mpmath.mpf(x) / (4 * mpmath.pi ** 2)) ** (2 * k)
                      / (2 * mpmath.pi))
            dropped = [ln_z, y * e, 2 * y * e + y * y * fl, wigert]
        assert all(0 < t < tm.tail_bound for t in dropped), dropped


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
    # the head on [0, 1e-3] integrates Wigert's expansion termwise, so the
    # occupation check agrees to rounding, like the other two kinds
    integral, closed = mellin_check(s, MellinKind.OCCUPATION)
    assert abs(integral - closed) <= 2e-15 * abs(closed)
