import math
import time

import mpmath
import numpy as np
import pytest

from eulergas import thermo
from eulergas.errors import DomainError
from eulergas.thermo import (DUAL_SWITCH, TAIL_EPS, MellinKind, PlanckVariant,
                             _bose, _lambert, _power_tail, _tanh_sinh,
                             _wigert, entropy,
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


@pytest.mark.parametrize("kind", list(MellinKind))
def test_mellin_integrals_equal_mpmath_quadrature_bit_for_bit(kind, monkeypatch):
    # _tanh_sinh is mpmath.fp.quad's rule and stop; with fp.quad put in its
    # place, every integral of a grid of s has the same bits
    s_min = thermo._MELLIN[kind][0]
    grid = [s_min + d for d in (1e-3, 0.05, 0.3, 0.8, 1.0, 1.7, 2.5, 4.0,
                                7.5, 15.0, 40.0)]
    ours = [mellin_check(s, kind)[0] for s in grid]
    monkeypatch.setattr(thermo, "_tanh_sinh",
                        lambda f, lo, hi: mpmath.fp.quad(f, [lo, hi]))
    assert [mellin_check(s, kind)[0] for s in grid] == ours


@pytest.mark.parametrize("f,lo,hi", [
    (math.sin, 0.0, 3.0),
    (math.sqrt, 0.0, 1.0),
    (lambda x: 1.0 / (1.0 + x * x), -1.0, 2.0),
    (lambda x: 1.0, 0.0, 1.0),       # equal sums: a zero estimated error
    (lambda x: x ** 7, -1.0, 1.0),   # every sum 0
])
def test_tanh_sinh_equals_mpmath_quadrature(f, lo, hi):
    assert _tanh_sinh(f, lo, hi) == mpmath.fp.quad(f, [lo, hi])


@pytest.mark.parametrize("kind", list(MellinKind))
@pytest.mark.parametrize("s,tol", [(107.0, 1e-14), (130.0, 1e-11),
                                   (170.0, 1e-8)])
def test_mellin_check_where_the_tail_power_overflows(kind, s, tol):
    # u^(-s-1) overflows a double at the tail's nodes near u = 1/745 from
    # s ~ 106.4 up; there the integrand is taken in logs
    with pytest.raises(OverflowError):
        (1.0 / 745.0) ** (-s - 1.0)
    integral, closed = mellin_check(s, kind)
    assert abs(integral - closed) <= tol * closed


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


def _mp_pentagonal(x, k_from, k_to):
    """Sums over k_from <= k < k_to of the pentagonal pairs at x, in mpmath:
    (-1)^k p^j (r^{a_k} + r^{b_k}) for j = 0, 1, 2, with r = e^{-x},
    a_k = k(3k-1)/2 and b_k = a_k + k."""
    r = mpmath.exp(-mpmath.mpf(x))
    sums = [mpmath.mpf(0)] * 3
    for k in range(k_from, k_to):
        a = k * (3 * k - 1) // 2
        for p in (a, a + k):
            term = (-1) ** k * r ** p
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
    # P_j tail (pairs k > K) is within _power_tail from the first dropped
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
                assert _power_tail(a - 1, math.exp(-x), j) >= abs(t) > 0
            dropped = [abs(t) for t in _mp_dropped(x, k)]
            for got, bound, t in zip((t_z, t_e, t_fl),
                                     _pentagonal_bounds_mp(x, k), dropped):
                assert bound >= t and abs(got / bound - 1) <= 1e-11, x
            dropped.append(_mp_clausen(x, m + 1, m + 30))
            assert all(tm.tail_bound >= t > 0 for t in dropped), x
    # dual route: ln Z, E and the fluctuation come from the pentagonal sums
    # at y = 4 pi^2/x, which drop the pairs k > k_y; N is Wigert's expansion
    # through the remaining k_terms terms, whose remainder is the 40-digit N
    # minus them
    x = 0.5
    tm = thermo_per_mode(x)
    y = 4.0 * math.pi ** 2 / x
    *_, k_y, t_z, t_e, t_fl = _lambert(y)
    k_terms = tm.terms_used - k_y
    assert k_y >= 1 and k_terms >= 1
    with mpmath.workdps(40):
        ln_z, e, fl = (abs(t) for t in _mp_dropped(y, k_y))
        for got, bound, t in zip((t_z, t_e, t_fl),
                                 _pentagonal_bounds_mp(y, k_y), (ln_z, e, fl)):
            assert bound >= t and abs(got / bound - 1) <= 1e-11
        dropped = (ln_z, e, 2 * e + fl)
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


def _bound_formula_mp(x, tm):
    """The bound formula tail_bound stands for, at the working precision.

    Direct route, after K pentagonal pairs and M Clausen terms with
    r = e^{-x}: the largest of the three pentagonal bounds and Clausen's
    (1 + r)/(1 - r) r^{(M+1)^2}/(1 - r^{2M+3}).  Dual route at the x below:
    Wigert's contour bound zeta(3)^2 (K+1) (2K)! (x/4pi^2)^{2K}/(2pi) after
    K terms; the pentagonal tails at 4 pi^2/x > 6e155 are of order
    e^{-3e156}.
    """
    x = mpmath.mpf(x)
    if x >= DUAL_SWITCH:
        k = _lambert(float(x))[4]
        m = tm.terms_used - k
        r = mpmath.exp(-x)
        clausen = ((1 + r) / (1 - r) * r ** ((m + 1) ** 2)
                   / (1 - r ** (2 * m + 3)))
        return max(*_pentagonal_bounds_mp(x, k), clausen)
    k = tm.terms_used - _lambert(4.0 * math.pi ** 2 / float(x))[4]
    return (mpmath.zeta(3) ** 2 * (k + 1) * mpmath.factorial(2 * k)
            * (x / (4 * mpmath.pi ** 2)) ** (2 * k) / (2 * mpmath.pi))


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
