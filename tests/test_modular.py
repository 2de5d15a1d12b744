import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulergas.arith import partition_count_oracle
from eulergas.errors import DomainError, PrecisionError
from eulergas.modular import (EtaTransform, asymptotic_p, eisenstein_g2, eta,
                              eta_transform, functional_equation_rhs,
                              leading_term_p, partition_generating,
                              rademacher_p)
from oracles import rademacher_paper_literal


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
    with pytest.raises(PrecisionError):
        partition_generating(1.0 - 1e-10)
    with pytest.raises(PrecisionError):
        partition_generating(0.8 + 0.7j)  # |y| > 1


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
    # |y| rounds to within the guard band of 1
    with pytest.raises(PrecisionError, match="unit circle"):
        eta(complex(0.0, im))


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

@pytest.mark.parametrize("x", [0.5, 1.0])
def test_functional_equation_examples(x):
    lhs = partition_generating(math.exp(-x))
    rhs = functional_equation_rhs(x)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.3, max_value=12.0))
def test_functional_equation_random_x(x):
    lhs = partition_generating(math.exp(-x))
    rhs = functional_equation_rhs(x)
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_functional_equation_domain():
    with pytest.raises(DomainError):
        functional_equation_rhs(0.0)


def test_overflow_is_a_domain_error_naming_the_threshold():
    # Z(e^-x) exceeds the largest double for x below about 2.3047e-3
    with pytest.raises(DomainError, match="0.0023047"):
        functional_equation_rhs(0.002)
    with pytest.raises(DomainError, match="0.0023047"):
        partition_generating(math.exp(-0.002))
    lhs = partition_generating(math.exp(-2.5e-3))
    rhs = functional_equation_rhs(2.5e-3)
    assert math.isfinite(lhs) and math.isfinite(rhs)
    assert abs(lhs - rhs) <= 1e-9 * lhs


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


@pytest.mark.parametrize("im", [1e-300, 1e-12])
def test_g2_refuses_the_guard_band_like_eta(im):
    # |y| rounds to 1 at 1e-300 and lies within 1e-9 of it at 1e-12
    with pytest.raises(PrecisionError, match="unit circle"):
        eisenstein_g2(complex(0.0, im))


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
    res = rademacher_p(100)
    assert res.value == 190569292
    assert res.residual < 1e-3


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
