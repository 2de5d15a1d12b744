import cmath
import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulergas import modular
from eulergas.arith import (DedekindConvention, dedekind_sum,
                            farey_sequence, partition_count_oracle)
from eulergas.errors import DomainError
from eulergas.modular import (asymptotic_p, leading_term_p,
                              partition_generating, rademacher_p)
from eulergas.thermo import EtaTransform, eisenstein_g2, eta, eta_transform
from oracles import (eta_mp, functional_equation_rhs, g2_mp, level_sums_mp,
                     log_partition_series, rademacher_paper_literal,
                     rademacher_partial_sum)

EPS = 2.0 ** -53


# ---------------------------------------------------------------------------
# generating product
# ---------------------------------------------------------------------------

def test_generating_at_zero_is_one():
    assert partition_generating(0.0) == 1.0


def test_generating_matches_power_series_oracle():
    # sum p(n) y^n with exact coefficients from the counting table
    y = 0.1
    series = math.fsum(partition_count_oracle(n) * y ** n for n in range(60))
    got = partition_generating(y)
    assert got > 1.0
    assert abs(got - series) <= 1e-12 * series


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.55),
       st.floats(min_value=0.0, max_value=2 * math.pi))
def test_generating_matches_series_complex(r, phase):
    y = r * cmath.exp(1j * phase)
    series = sum(partition_count_oracle(n) * y ** n for n in range(120))
    got = partition_generating(y)
    assert abs(got - series) <= 1e-11 * abs(series)


def test_generating_log_bracket_at_e_inverse():
    # (1/(1-y)) sum y^m/m^2 < ln Z(y) < (1/(1-y)) sum y/m^2
    y = math.exp(-1.0)
    lower = math.fsum(y ** m / m ** 2 for m in range(1, 400)) / (1.0 - y)
    upper = (math.pi ** 2 / 6.0) * y / (1.0 - y)
    ln_z = math.log(partition_generating(y))
    assert lower < ln_z < upper


def test_generating_guard_band():
    # |y| >= 1 is outside the domain, and next to 1 on the real segment Z
    # overflows a double
    for y in (0.8 + 0.7j, 0.6 + 0.8j, 1.0, -1.0, 1.5):
        with pytest.raises(DomainError, match=r"need \|y\| < 1"):
            partition_generating(y)
    with pytest.raises(DomainError, match="overflows"):
        partition_generating(1.0 - 1e-10)


def test_generating_on_the_negative_segment_is_real():
    # off the positive segment Z is e^{i pi tau/12}/eta(tau), tau = ln y/2 pi i
    for y in (-0.5, -0.95):
        got = partition_generating(y)
        assert isinstance(got, float)
        inside = partition_generating(complex(y, 1e-300))
        assert abs(got - inside) <= 1e-15 * abs(got)
    series = math.fsum(partition_count_oracle(n) * (-0.5) ** n
                       for n in range(120))
    assert partition_generating(-0.5) == pytest.approx(series, rel=1e-13)


def test_generating_rejects_nan():
    with pytest.raises(DomainError):
        partition_generating(math.nan)


# ---------------------------------------------------------------------------
# eta and its transforms
# ---------------------------------------------------------------------------

def test_eta_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        eta(0.5 - 0.1j)
    with pytest.raises(DomainError):
        eta(0.5 + 0.0j)


@pytest.mark.parametrize("tau", [complex(math.nan, 1.0), complex(0.0, math.inf),
                                 complex(math.inf, 1.0), complex(0.5, math.nan)])
def test_eta_rejects_non_finite_tau(tau):
    with pytest.raises(DomainError, match="finite"):
        eta(tau)


def test_eta_product_is_one_once_y_underflows():
    # |y| = e^{-400 pi} underflows to 0, leaving the prefactor exactly
    tau = 0.25 + 200j
    assert eta(tau) == cmath.exp(1j * math.pi * tau / 12.0)
    assert partition_generating(cmath.exp(2j * math.pi * tau)) == 1.0


@pytest.mark.parametrize("im", [1e-300, 5e-324, 1e-11])
def test_eta_refuses_y_on_the_unit_circle(im):
    # where |y| rounds to 1 eta is taken at -1/tau, where it underflows:
    # eta(i t) = t^{-1/2} eta(i/t), below e^{-pi/(12 t)}
    assert eta(complex(0.0, im)) == 0.0


def test_eta_period_24_in_the_real_part():
    # eta(tau + 24) = eta(tau); a huge real part is reduced exactly instead
    # of overflowing 2*pi*tau
    assert eta(48.25 + 0.8j) == eta(0.25 + 0.8j)
    huge = eta(complex(1e308, 1.0))
    assert huge == eta(complex(math.fmod(1e308, 24.0), 1.0))
    assert abs(huge) == pytest.approx(abs(eta(1j)), rel=1e-14)


def test_eta_inversion_fixed_point_at_i():
    tau = 1j
    predicted = eta_transform(tau, EtaTransform.INVERSION)
    direct = eta(-1.0 / tau)
    assert abs(direct - predicted) <= 1e-13 * abs(direct)
    # sqrt(tau/i) = 1 there, so the prediction is eta(i) itself
    assert abs(predicted - eta(tau)) <= 1e-13 * abs(predicted)


def test_eta_definitional_identity_at_i():
    tau = 1j
    y = cmath.exp(2j * math.pi * tau)
    lhs = partition_generating(y) * eta(tau)
    rhs = cmath.exp(1j * math.pi * tau / 12.0)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_eta_shift_dual_evaluation():
    tau = 0.3 + 0.8j
    direct = eta(tau + 1.0)
    predicted = eta_transform(tau, EtaTransform.SHIFT)
    assert abs(direct - predicted) <= 1e-12 * abs(eta(tau))
    ratio = eta(tau + 1.0) / eta(tau)
    assert abs(ratio - cmath.exp(1j * math.pi / 12.0)) <= 1e-12


def test_eta_inversion_dual_evaluation():
    tau = 2j
    direct = eta(-1.0 / tau)
    predicted = eta_transform(tau, EtaTransform.INVERSION)
    assert abs(direct - predicted) <= 1e-12 * abs(eta(tau))


def test_eta_definitional_identity_random_tau():
    rng = random.Random(20240817)
    for _ in range(20):
        tau = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.05, 3.0))
        y = cmath.exp(2j * math.pi * tau)
        lhs = partition_generating(y) * eta(tau)
        rhs = cmath.exp(1j * math.pi * tau / 12.0)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


# ---------------------------------------------------------------------------
# dual-scale functional equation
# ---------------------------------------------------------------------------

# Below x = 0.9 partition_generating applies the dual-scale law itself, so
# both sides are checked against sum p(n) e^{-nx} with exact p(n) rather
# than against each other

@pytest.mark.parametrize("x", [0.5, 1.0])
def test_functional_equation_examples(x):
    want = math.exp(log_partition_series(x))
    assert abs(partition_generating(math.exp(-x)) - want) <= 1e-10 * want
    assert abs(functional_equation_rhs(x) - want) <= 1e-10 * want


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.3, max_value=12.0))
def test_functional_equation_random_x(x):
    want = math.exp(log_partition_series(x))
    assert abs(partition_generating(math.exp(-x)) - want) <= 1e-9 * want
    assert abs(functional_equation_rhs(x) - want) <= 1e-9 * want


def test_overflow_is_a_domain_error_naming_the_threshold():
    # Z(e^-x) exceeds the largest double for x below about 2.3047e-3
    with pytest.raises(DomainError, match="0.0023047"):
        partition_generating(math.exp(-0.002))
    assert math.isfinite(partition_generating(math.exp(-2.5e-3)))


# the acceptance points of the functional equation, and a log grid from the
# overflow threshold to 20
Z_ORACLE_X = [0.25, 0.5, 1.0, 2.0, 4.0 * math.pi ** 2,
              *(2.5e-3 * 8000.0 ** (i / 24) for i in range(25))]


@pytest.mark.parametrize("x", Z_ORACLE_X)
def test_z_matches_level_sums(x):
    # Z(e^-x) = exp(-F/kT) with F/kT summed over the levels at 50 digits, an
    # oracle independent of both sides of the functional equation, which
    # below x = 0.9 share thermo's dual law; the bound allows for rounding
    # in exp's argument, of size pi^2/(6x)
    tol = 1e-15 * (1.0 + math.pi ** 2 / (6.0 * x))
    y = math.exp(-x)
    with mpmath.workdps(50):
        want_y = mpmath.exp(-level_sums_mp(-mpmath.log(y))[0])
        want_x = mpmath.exp(-level_sums_mp(x)[0])
        assert abs(partition_generating(y) - want_y) <= tol * want_y
        assert abs(functional_equation_rhs(x) - want_x) <= tol * want_x


# ---------------------------------------------------------------------------
# Eisenstein series
# ---------------------------------------------------------------------------

def test_g2_limit_high_in_imaginary_direction():
    value = eisenstein_g2(0.0 + 50j)
    assert abs(value - math.pi ** 2 / 3.0) <= 1e-12


@pytest.mark.parametrize("tau", [1j / (2 * math.pi), 0.1 + 0.5j])
def test_g2_matches_log_derivative_of_eta(tau):
    h = 1e-6
    fd = -4j * math.pi * (cmath.log(eta(tau + h)) - cmath.log(eta(tau - h))) / (2 * h)
    value = eisenstein_g2(tau)
    assert abs(value - fd) <= 1e-8 * abs(value)


def test_g2_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        eisenstein_g2(1.0 - 2j)


def test_g2_reduces_a_huge_real_part_exactly():
    # G2(tau + 1) = G2(tau), and 1e308 is an integer; G2(i) = pi
    assert eisenstein_g2(complex(1e308, 1.0)) == eisenstein_g2(1j)
    assert eisenstein_g2(1j) == pytest.approx(math.pi, rel=1e-13)
    assert eisenstein_g2(complex(-7.25, 0.5)) == eisenstein_g2(-0.25 + 0.5j)
    assert eisenstein_g2(-0.25 + 0.5j) == pytest.approx(
        eisenstein_g2(0.75 + 0.5j), rel=1e-13)


def _g2_on_the_imaginary_axis(t):
    # G2(-1/tau) = tau^2 G2(tau) - 2 pi i tau, and G2(i/t) = pi^2/3 to far
    # below a double once 1/t > 6
    return (math.pi ** 2 / 3.0 - 2.0 * math.pi * t) / -(t * t)


@pytest.mark.parametrize("im", [3.2e-10, 1e-8])
def test_g2_refuses_at_once_where_its_series_exceeds_the_budget(im):
    # the series would need over 1e8 terms at tau; at -1/tau it needs one,
    # so G2 answers at once
    start = time.perf_counter()
    value = eisenstein_g2(complex(0.0, im))
    assert time.perf_counter() - start < 0.05
    assert value == pytest.approx(_g2_on_the_imaginary_axis(im), rel=1e-10)


def test_g2_still_answers_next_to_the_refusal():
    t = 1e-4
    assert eisenstein_g2(complex(0.0, t)) == pytest.approx(
        _g2_on_the_imaginary_axis(t), rel=1e-10)


@pytest.mark.parametrize("im", [1e-300, 1e-12])
def test_g2_refuses_the_guard_band_like_eta(im):
    # G2(i t) is about -pi^2/(3 t^2): a double at t = 1e-12, and refused as
    # an overflow at 1e-300, where eta underflows
    if im > 1e-100:
        assert eisenstein_g2(complex(0.0, im)) == pytest.approx(
            _g2_on_the_imaginary_axis(im), rel=1e-10)
    else:
        with pytest.raises(DomainError, match="overflows"):
            eisenstein_g2(complex(0.0, im))


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(finite, st.floats(min_value=0.0, exclude_min=True,
                         allow_infinity=False))
def test_eta_and_g2_are_typed_at_every_finite_tau(re, im):
    # eta is a finite value, 0 where it underflows; G2 is a finite value
    # or a DomainError where it overflows
    tau = complex(re, im)
    assert cmath.isfinite(eta(tau))
    try:
        value = eisenstein_g2(tau)
    except DomainError as exc:
        assert "overflows" in str(exc)
    else:
        assert cmath.isfinite(value)


def _unimodular(rng, c_max):
    # (a b; c d) in SL2(Z) with 1 <= c <= c_max and |d| <= 3c
    c = rng.randint(1, c_max)
    d = rng.randint(-3 * c, 3 * c)
    while math.gcd(c, d) != 1:
        d = rng.randint(-3 * c, 3 * c)
    a = pow(d, -1, c) if c > 1 else 1
    b = (a * d - 1) // c
    return a, b, c, d


def test_eta_and_g2_follow_the_dedekind_multiplier():
    # Apostol, Modular Functions and Dirichlet Series, Thm 3.4: for c > 0
    #   eta(g tau0) = exp(pi i [(a+d)/(12c) - s(d, c)]) sqrt(-i(c tau0 + d))
    #                 * eta(tau0),
    #   G2(g tau0)  = (c tau0 + d)^2 G2(tau0) - 2 pi i c (c tau0 + d),
    # with the right-hand sides summed directly at Im tau0 in [0.8, 1.5].
    # g tau0 is rounded to a double, off by eps |tau| in tau; eta carries
    # that as eps |tau| |G2(tau)|/(4 pi) relative (eta'/eta = i G2/(4 pi)),
    # G2 as eps |tau| 2c|c tau0 + d| (the derivative of ln (c tau0 + d)^2)
    rng = random.Random(20261019)
    for _ in range(200):
        a, b, c, d = _unimodular(rng, 3000)
        tau0 = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.5))
        j = c * tau0 + d
        tau = (a * tau0 + b) / j
        s = dedekind_sum(d % c, c, DedekindConvention.CLASSICAL_SAWTOOTH)
        phase = (Fraction(a + d, 12 * c) - s.value) % 2
        want_eta = (cmath.exp(1j * math.pi * float(phase))
                    * cmath.sqrt(-1j * j) * eta(tau0))
        want_g2 = j * j * eisenstein_g2(tau0) - 2j * math.pi * c * j
        tol_eta = 1e-12 + 8 * EPS * abs(tau) * abs(want_g2) / (4 * math.pi)
        tol_g2 = 1e-12 + 16 * EPS * abs(tau) * 2 * c * abs(j)
        assert abs(eta(tau) - want_eta) <= tol_eta * abs(want_eta), (a, b, c, d)
        assert abs(eisenstein_g2(tau) - want_g2) <= tol_g2 * abs(want_g2), \
            (a, b, c, d)


def test_eta_below_the_switch_matches_the_oracle():
    # 50-digit eta at Im tau in [1e-9, 0.05), log-uniform; the error allowed
    # is the truncation target plus the rounding of -1/s carried at
    # eps |tau| |G2(tau)|/(4 pi) relative
    rng = random.Random(13)
    checked = 0
    for _ in range(200):
        tau = complex(rng.uniform(-3.0, 3.0),
                      math.exp(rng.uniform(math.log(1e-9), math.log(0.05))))
        want = complex(eta_mp(tau))
        got = eta(tau)
        if abs(want) < 2.3e-308:  # below the normal doubles
            assert abs(got) < 2.3e-308
            continue
        g2 = abs(eisenstein_g2(tau))
        tol = 1e-12 + 8 * EPS * abs(tau) * g2 / (4 * math.pi)
        assert abs(got - want) <= tol * abs(want), tau
        checked += 1
    assert checked >= 150


def test_eta_and_g2_match_50_digit_values():
    # the pentagonal sums at y = e^{2 pi i tau} against 50-digit eta and
    # Lambert-series G2 at Im tau from 0.02 to 4, log-uniform.  Where
    # _reduce ran, -1/s is rounded, off by eps |tau| in tau: eta carries that
    # as eps |tau| |G2|/(4 pi) relative (eta'/eta = i G2/(4 pi)), and G2's
    # bound carries the same term
    from eulergas.thermo import _IM_DIRECT
    rng = random.Random(2026)
    reduced = 0
    for _ in range(400):
        tau = complex(rng.uniform(-1.0, 1.0),
                      math.exp(rng.uniform(math.log(0.02), math.log(4.0))))
        want_eta, want_g2 = complex(eta_mp(tau)), complex(g2_mp(tau))
        cond = 0.0
        if tau.imag < _IM_DIRECT:
            cond = EPS * abs(tau) * abs(want_g2) / (4 * math.pi)
            reduced += 1
        assert abs(eta(tau) - want_eta) <= (5e-15 + cond) * abs(want_eta), tau
        assert (abs(eisenstein_g2(tau) - want_g2)
                <= (2e-14 + cond) * abs(want_g2)), tau
    assert 100 <= reduced <= 300


# ---------------------------------------------------------------------------
# coefficient recovery through the circle integral
# ---------------------------------------------------------------------------

def test_cauchy_quadrature_recovers_coefficients():
    # 64-node discrete circle integral at radius 0.5; aliasing is p(n+64)/2^64
    nodes = 64
    radius = 0.5
    for n in range(11):
        total = 0j
        for j in range(nodes):
            y = radius * cmath.exp(2j * math.pi * j / nodes)
            total += partition_generating(y) * y ** -n
        approx = (total / nodes).real
        assert abs(approx - partition_count_oracle(n)) < 1e-6


# ---------------------------------------------------------------------------
# exact series for p(n)
# ---------------------------------------------------------------------------

def test_rademacher_base_cases():
    assert rademacher_p(0).value == 1
    assert rademacher_p(1).value == 1
    assert rademacher_p(4).value == 5
    with pytest.raises(DomainError):
        rademacher_p(-1)


def test_rademacher_n100():
    # the residual is the distance of the N-term sum from p(100), so it
    # matches the 200-bit partial sum, and it stays within the certificate
    res = rademacher_p(100)
    assert res.value == 190569292
    with mpmath.workprec(200):
        partial = rademacher_partial_sum(
            100, res.terms_used, DedekindConvention.CLASSICAL_SAWTOOTH).real
        want = float(abs(partial - 190569292))
    assert abs(res.residual - want) < 1e-9
    assert res.residual <= res.error_bound < 0.25


def test_rademacher_matches_oracle_sample():
    for n in list(range(1, 61)) + [123, 250, 381]:
        res = rademacher_p(n)
        assert res.value == partition_count_oracle(n)
        assert res.residual < 0.25


def test_rademacher_term_count_scales_like_sqrt_n():
    for n in (50, 100, 200, 400):
        res = rademacher_p(n)
        assert res.terms_used <= 4.0 * math.sqrt(n) + 16


def test_rademacher_paper_convention_fails_integer_test():
    # the literal convention shifts every A_q phase by (q-1)/4, destroying
    # the integer rounding for most n; that decides the validated convention
    misses = 0
    for n in range(1, 31):
        try:
            if rademacher_paper_literal(n) != partition_count_oracle(n):
                misses += 1
        except Exception:
            misses += 1
    assert misses >= 5


# ---------------------------------------------------------------------------
# closed-form estimates
# ---------------------------------------------------------------------------

def test_leading_term_examples():
    assert round(leading_term_p(4)) == 5
    p100 = partition_count_oracle(100)
    assert abs(leading_term_p(100) - p100) <= 5e-4 * p100


def test_leading_term_approaches_asymptotic():
    gaps = [abs(leading_term_p(n) / asymptotic_p(n) - 1.0)
            for n in (100, 1000, 10000)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.01


def test_asymptotic_value_at_4():
    inline = math.exp(math.pi * math.sqrt(8.0 / 3.0)) / (16.0 * math.sqrt(3.0))
    assert asymptotic_p(4) == pytest.approx(inline, rel=1e-15)
    assert asymptotic_p(4) == pytest.approx(6.1, abs=0.05)


def test_asymptotic_ratio_sweep_is_monotone():
    # the estimate approaches the exact count from above; the distance to 1
    # shrinks monotonically and is inside 10% by n = 1000
    ratios = [asymptotic_p(n) / partition_count_oracle(n) for n in (100, 500, 1000)]
    gaps = [abs(r - 1.0) for r in ratios]
    assert gaps[0] > gaps[1] > gaps[2]
    assert ratios[2] > 0.9
    assert gaps[2] < 0.1


@pytest.mark.slow
def test_asymptotic_trend_continues_at_ten_thousand():
    r_atK = asymptotic_p(1000) / partition_count_oracle(1000)
    r_at10K = asymptotic_p(10000) / partition_count_oracle(10000)
    assert abs(r_at10K - 1.0) < abs(r_atK - 1.0)


def _estimates_mp(n):
    """The leading term and the crude estimate of p(n) in 30 digits."""
    with mpmath.workdps(30):
        k = mpmath.pi * mpmath.sqrt(mpmath.mpf(2) / 3)
        lam = mpmath.sqrt(n - mpmath.mpf(1) / 24)
        leading = (mpmath.exp(k * lam) * (k * lam - 1)
                   / (4 * mpmath.pi * mpmath.sqrt(2) * lam ** 3))
        crude = (mpmath.exp(mpmath.pi * mpmath.sqrt(mpmath.mpf(2) * n / 3))
                 / (4 * n * mpmath.sqrt(3)))
    return {leading_term_p: leading, asymptotic_p: crude}


@pytest.mark.parametrize("estimate", [leading_term_p, asymptotic_p])
def test_estimates_answer_while_they_fit_a_double(estimate):
    # the leading term read inf from n = 75 160 and both raised a bare
    # OverflowError from 76 568; they fit a double up to n = 79 445, and
    # past it are refused naming it
    assert modular.ESTIMATE_MAX_N == 79_445
    for n in (1000, 75_159, 75_160, 76_567, 76_568, 79_445):
        want = _estimates_mp(n)[estimate]
        assert abs(estimate(n) - want) <= 1e-12 * want, n
    assert estimate(79_445) > 1e308
    for n in (79_446, 10 ** 6, 10 ** 400):
        with pytest.raises(DomainError, match="fits only for n <= 79445"):
            estimate(n)


def test_estimates_keep_their_bits_where_e_to_the_k_lam_fits():
    for n in (4, 100, 1000, 10 ** 4, 70_000, 75_159):
        k = math.pi * math.sqrt(2.0 / 3.0)
        lam = math.sqrt(n - 1.0 / 24.0)
        leading = (math.exp(k * lam) * (k * lam - 1.0)
                   / (4.0 * math.pi * math.sqrt(2.0) * lam ** 3))
        crude = (math.exp(math.pi * math.sqrt(2.0 * n / 3.0))
                 / (4.0 * n * math.sqrt(3.0)))
        assert (leading_term_p(n), asymptotic_p(n)) == (leading, crude)


@pytest.mark.parametrize("n", [5.0, 2.5, math.nan, math.inf, -math.inf, "7",
                               Fraction(7, 1), None])
@pytest.mark.parametrize("func", [rademacher_p, partition_count_oracle,
                                  leading_term_p, asymptotic_p])
def test_non_integer_n_is_a_domain_error(func, n):
    with pytest.raises(DomainError, match="must be an integer"):
        func(n)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("func", [rademacher_p, partition_count_oracle,
                                  leading_term_p, asymptotic_p,
                                  farey_sequence])
def test_integers_past_the_int_to_str_limit_are_a_domain_error(func, sign):
    # the message gives 10^5000's bit length, as such an int has no str
    with pytest.raises(DomainError, match="integer of 16610 bits"):
        func(sign * 10 ** 5000)


def test_integer_types_are_taken_as_n():
    assert rademacher_p(np.int64(100)).value == 190569292
    assert partition_count_oracle(np.int32(100)) == 190569292
    assert leading_term_p(np.int64(100)) == leading_term_p(100)
    assert rademacher_p(True).value == 1
