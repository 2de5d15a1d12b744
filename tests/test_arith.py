import cmath
import hashlib
import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulergas import arith
from eulergas.arith import (DedekindConvention, dedekind_sum, divisor_sigma,
                            divisors, farey_sequence, ford_circle,
                            ford_tangency, partition_count_oracle,
                            reduced_fraction)
from eulergas.errors import DomainError
from eulergas.phonon import _DEBYE_TAYLOR
from eulergas.thermo import (_BERNOULLI_2K, _WIGERT, _ZETA_EM, EULER_GAMMA,
                             ZETA3, riemann_zeta)
from oracles import kloosterman_A, kloosterman_phases, sigma_table

CLASSICAL = DedekindConvention.CLASSICAL_SAWTOOTH
PAPER = DedekindConvention.PAPER_LITERAL


# ---------------------------------------------------------------------------
# divisor sums
# ---------------------------------------------------------------------------

def brute_sigma(k, n):
    return sum(Fraction(d) ** k for d in range(1, n + 1) if n % d == 0)


def test_divisor_sigma_examples():
    assert divisor_sigma(1, 1) == 1
    assert divisor_sigma(0, 6) == 4          # divisors 1, 2, 3, 6
    assert divisor_sigma(1, 4) == 7          # 1 + 2 + 4
    assert divisor_sigma(-1, 4) == Fraction(7, 4)


def test_divisor_sigma_matches_enumeration():
    for n in range(1, 120):
        for k in (-2, -1, 0, 1, 2):
            assert divisor_sigma(k, n) == brute_sigma(k, n)


def test_sigma_minus_one_is_sigma_one_over_n():
    for n in range(1, 200):
        assert divisor_sigma(-1, n) == Fraction(divisor_sigma(1, n), n)


def test_divisor_sigma_rejects_zero():
    with pytest.raises(DomainError):
        divisor_sigma(1, 0)
    with pytest.raises(DomainError):
        divisors(0)
    # an int past the int-to-str limit is named by its bit length
    with pytest.raises(DomainError, match="negative integer of 16610 bits"):
        divisor_sigma(1, -10 ** 5000)
    with pytest.raises(DomainError, match="negative integer of 16610 bits"):
        divisors(-10 ** 5000)


def test_divisors_answer_up_to_their_limit():
    # 10^12 = 2^12 5^12 has 13^2 divisors
    assert len(divisors(10 ** 12)) == 169
    assert divisor_sigma(0, 10 ** 12) == 169
    assert divisor_sigma(1, 10 ** 12) == (2 ** 13 - 1) * (5 ** 13 - 1) // 4


@pytest.mark.parametrize("n", [10 ** 12 + 1, 10 ** 20, 10 ** 5000],
                         ids=["1e12+1", "1e20", "1e5000"])
def test_divisors_past_their_limit_are_refused_at_once(n):
    # trial division to sqrt(10^20) would run for hours
    for call in (divisors, lambda n: divisor_sigma(1, n)):
        start = time.monotonic()
        with pytest.raises(DomainError, match=r"takes n <= 10\*\*12"):
            call(n)
        assert time.monotonic() - start < 0.05


@pytest.mark.parametrize("call,match", [
    (lambda: divisors(math.nan), "n must be an integer, got nan"),
    (lambda: divisors(6.0), "n must be an integer, got 6.0"),
    (lambda: divisor_sigma(0, 6.5), "n must be an integer, got 6.5"),
    (lambda: divisor_sigma(1.5, 6), "k must be an integer, got 1.5"),
], ids=["divisors-nan", "divisors-6.0", "sigma-n-6.5", "sigma-k-1.5"])
def test_divisors_refuse_non_integers(call, match):
    # a nan passes both range checks, and a float n or k would give a
    # float or wrong answer
    with pytest.raises(DomainError, match=match):
        call()


def test_sigma_multiplicative_for_coprime_pairs():
    for m in range(1, 51):
        for n in range(1, 51):
            if math.gcd(m, n) == 1:
                for k in (-1, 0, 1):
                    assert (divisor_sigma(k, m * n)
                            == divisor_sigma(k, m) * divisor_sigma(k, n))


def test_sigma_table_matches_divisor_sigma():
    s0, s1 = sigma_table(500)
    for n in range(1, 501):
        assert s0[n] == divisor_sigma(0, n)
        assert s1[n] == divisor_sigma(1, n)


@pytest.mark.parametrize("s,k,tail_bound", [
    # tails bounded by integral comparison: sigma_{-1}(n) <= 1 + ln n,
    # sigma_0(n) <= 2 sqrt(n), sigma_1(n)/n <= 1 + ln n
    (3, -1, (1 + math.log(1e5)) / (2e10) + 1 / (4e10)),
    (3, 0, (4.0 / 3.0) * 1e5 ** -1.5),
    (4, 1, (1 + math.log(1e5)) / (2e10) + 1 / (4e10)),
])
def test_dirichlet_series_identity(s, k, tail_bound):
    n_max = 100_000
    s0, s1 = sigma_table(n_max)
    total = 0.0
    for n in range(n_max, 0, -1):  # small terms first
        sig = s1[n] / n if k == -1 else (s0[n] if k == 0 else s1[n])
        total += sig / n ** s
    target = riemann_zeta(float(s)) * riemann_zeta(float(s - k))
    assert abs(total - target) <= 1.1 * tail_bound + 1e-12


# ---------------------------------------------------------------------------
# partition oracle
# ---------------------------------------------------------------------------

def test_partition_oracle_examples():
    assert partition_count_oracle(0) == 1
    assert partition_count_oracle(4) == 5
    assert partition_count_oracle(10) == 42
    assert partition_count_oracle(100) == 190569292
    with pytest.raises(DomainError):
        partition_count_oracle(-1)


def test_partition_oracle_refuses_past_its_cap():
    # refused up front: the table does not grow towards n
    size = len(arith._partition_cache)
    for n in (10 ** 5 + 1, 10 ** 9, 10 ** 30):
        start = time.monotonic()
        with pytest.raises(DomainError, match="n <= 100000"):
            partition_count_oracle(n)
        assert time.monotonic() - start < 0.1
    assert len(arith._partition_cache) == size


def test_partition_oracle_grown_in_steps_equals_a_cold_fill(monkeypatch):
    # the table grows in place from its length: growing it to 10, then to
    # 2000, then a lookup at 500 leave the same table as one fill to 2000;
    # up to n = 5000 its digits hash to a pinned value
    monkeypatch.setattr(arith, "_partition_cache", [1])
    for n in (10, 2000, 500):
        partition_count_oracle(n)
    stepped = arith._partition_cache
    monkeypatch.setattr(arith, "_partition_cache", [1])
    partition_count_oracle(2000)
    assert stepped == arith._partition_cache
    partition_count_oracle(5000)
    text = ",".join(map(str, arith._partition_cache))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0e219abe7556635f0ac5a6896a13b1034377b2cdf11ff64d61902bc16d4e1239")


def test_partition_oracle_matches_product_coefficients():
    # literal coefficient extraction of prod (1 - y^k)^{-1} up to y^30
    n_max = 30
    coeffs = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        geom = [0] * (n_max + 1)
        for j in range(0, n_max + 1, k):
            geom[j] = 1
        out = [0] * (n_max + 1)
        for i, a in enumerate(coeffs):
            if a:
                for j in range(0, n_max + 1 - i, k):
                    out[i + j] += a * geom[j]
        coeffs = out
    for n in range(n_max + 1):
        assert partition_count_oracle(n) == coeffs[n]


# ---------------------------------------------------------------------------
# Farey sequences
# ---------------------------------------------------------------------------

def brute_farey(order):
    vals = {Fraction(p, q) for q in range(1, order + 1)
            for p in range(0, q + 1)}
    return sorted(vals)


def test_farey_examples():
    assert farey_sequence(1) == [Fraction(0), Fraction(1)]
    assert farey_sequence(3) == [Fraction(0), Fraction(1, 3), Fraction(1, 2),
                                 Fraction(2, 3), Fraction(1)]
    assert len(farey_sequence(5)) == 11
    with pytest.raises(DomainError):
        farey_sequence(0)


def test_farey_order_is_capped():
    # order 10^5 would build ~3e9 Fractions; the cap refuses it at once
    assert len(farey_sequence(1000)) == 304193
    start = time.monotonic()
    for order in (1001, 100_000):
        with pytest.raises(DomainError, match="<= 1000"):
            farey_sequence(order)
    assert time.monotonic() - start < 1.0


def test_farey_refuses_a_non_integer_order():
    with pytest.raises(DomainError, match="farey order must be an integer, "
                       "got 3.5"):
        farey_sequence(3.5)


def test_farey_matches_brute_force():
    for order in range(1, 31):
        assert farey_sequence(order) == brute_farey(order)


def test_farey_unimodular_and_mediant_up_to_50():
    for order in range(1, 51):
        seq = farey_sequence(order)
        for a, b in zip(seq, seq[1:]):
            assert b.numerator * a.denominator - a.numerator * b.denominator == 1
        for a, m, b in zip(seq, seq[1:], seq[2:]):
            assert m == Fraction(a.numerator + b.numerator,
                                 a.denominator + b.denominator)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=120))
def test_farey_unimodular_random_order(order):
    seq = farey_sequence(order)
    assert all(b.numerator * a.denominator - a.numerator * b.denominator == 1
               for a, b in zip(seq, seq[1:]))


# ---------------------------------------------------------------------------
# Ford circles
# ---------------------------------------------------------------------------

def test_ford_circle_examples():
    c = ford_circle(Fraction(0, 1))
    assert (c.center_x, c.center_y, c.radius) == (0, Fraction(1, 2), Fraction(1, 2))
    c = ford_circle(Fraction(1, 2))
    assert (c.center_x, c.center_y, c.radius) == (Fraction(1, 2), Fraction(1, 8),
                                                  Fraction(1, 8))
    assert ford_circle(Fraction(1, 3)).radius == Fraction(1, 18)


def test_reduced_fraction_rejects_unreduced():
    with pytest.raises(DomainError):
        reduced_fraction(2, 4)
    with pytest.raises(DomainError):
        reduced_fraction(1, 0)
    for num, den in ((2 * 10 ** 5000, 4), (1, -10 ** 5000)):
        with pytest.raises(DomainError, match="integer of 1661[01] bits"):
            reduced_fraction(num, den)
    assert reduced_fraction(3, 7) == Fraction(3, 7)


def on_circle(point, circle):
    dx = point.re - circle.center_x
    dy = point.im - circle.center_y
    return dx * dx + dy * dy == circle.radius * circle.radius


def test_ford_tangency_worked_triple():
    tau_l, tau_r = ford_tangency(Fraction(0), Fraction(1, 2), Fraction(1))
    # zeta_L = -1/10 + i/5 and zeta_R = +1/10 + i/5 about p/q = 1/2
    assert tau_l.re == Fraction(1, 2) - Fraction(1, 10)
    assert tau_r.re == Fraction(1, 2) + Fraction(1, 10)
    assert tau_l.im == tau_r.im == Fraction(1, 5)


def test_ford_tangency_second_triple():
    _, tau_r = ford_tangency(Fraction(0), Fraction(1, 3), Fraction(1, 2))
    assert tau_r.re - Fraction(1, 3) == Fraction(2, 39)
    assert tau_r.im == Fraction(1, 13)


def test_ford_tangency_points_lie_on_both_circles():
    for order in (5, 8, 13):
        seq = farey_sequence(order)
        for left, mid, right in zip(seq, seq[1:], seq[2:]):
            tau_l, tau_r = ford_tangency(left, mid, right)
            c_mid = ford_circle(mid)
            assert on_circle(tau_l, c_mid) and on_circle(tau_r, c_mid)
            assert on_circle(tau_l, ford_circle(left))
            assert on_circle(tau_r, ford_circle(right))


def test_ford_tangency_rejects_non_adjacent():
    with pytest.raises(DomainError):
        ford_tangency(Fraction(0), Fraction(1, 3), Fraction(1))
    with pytest.raises(DomainError):
        ford_tangency(Fraction(1, 2), Fraction(1, 3), Fraction(1))


def test_ford_circles_never_intersect_order_25():
    # squared center distance >= (r1+r2)^2, equality iff Farey-adjacent;
    # exact rational comparison throughout
    seq = farey_sequence(25)
    circles = [ford_circle(f) for f in seq]
    for i, a in enumerate(circles):
        for b in circles[i + 1:]:
            dx = a.center_x - b.center_x
            dy = a.center_y - b.center_y
            dist_sq = dx * dx + dy * dy
            touch_sq = (a.radius + b.radius) ** 2
            det = abs(a.fraction.numerator * b.fraction.denominator
                      - b.fraction.numerator * a.fraction.denominator)
            assert dist_sq >= touch_sq
            assert (dist_sq == touch_sq) == (det == 1)


# ---------------------------------------------------------------------------
# Dedekind sums
# ---------------------------------------------------------------------------

def sawtooth(x: Fraction) -> Fraction:
    return Fraction(0) if x.denominator == 1 else x - math.floor(x) - Fraction(1, 2)


def brute_classical(p, q):
    return sum(sawtooth(Fraction(l, q)) * sawtooth(Fraction(p * l, q))
               for l in range(1, q))


def brute_paper(p, q):
    return sum(Fraction(l, q) * (Fraction(p * l, q) - math.floor(Fraction(p * l, q)))
               for l in range(1, q + 1))


def test_dedekind_examples():
    assert dedekind_sum(0, 1, PAPER).value == 0
    assert dedekind_sum(0, 1, CLASSICAL).value == 0
    assert dedekind_sum(1, 2, PAPER).value == Fraction(1, 4)
    assert dedekind_sum(1, 2, CLASSICAL).value == 0


def test_dedekind_matches_brute_force():
    for q in range(1, 25):
        for p in range(q):
            if math.gcd(p, q) == 1 and (p > 0 or q == 1):
                assert dedekind_sum(p, q, CLASSICAL).value == brute_classical(p, q)
                assert dedekind_sum(p, q, PAPER).value == brute_paper(p, q)


def test_dedekind_at_large_q():
    # closed forms s(1, q) = (q-1)(q-2)/(12q) and, q odd, s(2, q) =
    # (q-1)(q-5)/(24q), at q far past what a sum over l = 1..q-1 can reach
    for q in (10 ** 12 + 1, 2 ** 61 - 1):
        assert dedekind_sum(1, q, CLASSICAL).value == Fraction((q - 1) * (q - 2), 12 * q)
        assert dedekind_sum(2, q, CLASSICAL).value == Fraction((q - 1) * (q - 5), 24 * q)
        assert (dedekind_sum(2, q, PAPER).value
                == dedekind_sum(2, q, CLASSICAL).value + Fraction(q - 1, 4))


def test_dedekind_rejects_bad_input():
    with pytest.raises(DomainError):
        dedekind_sum(2, 4, CLASSICAL)
    with pytest.raises(DomainError):
        dedekind_sum(3, 2, CLASSICAL)
    with pytest.raises(DomainError):
        dedekind_sum(0, 2, CLASSICAL)
    big = 10 ** 5000
    for p, q in ((1, -big), (-big, 3), (2 * big, 4 * big + 2)):
        with pytest.raises(DomainError, match="integer of 166"):
            dedekind_sum(p, q, CLASSICAL)


def test_classical_reciprocity():
    # s(p,q) + s(q,p) = -1/4 + (p/q + q/p + 1/(pq))/12, exact
    for q in range(2, 31):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                lhs = (dedekind_sum(p, q, CLASSICAL).value
                       + dedekind_sum(q % p if p > 1 else 0,
                                      p, CLASSICAL).value)
                rhs = (Fraction(-1, 4)
                       + (Fraction(p, q) + Fraction(q, p)
                          + Fraction(1, p * q)) / 12)
                assert lhs == rhs


def test_paper_value_denominator_divides_q_squared():
    for q in range(1, 31):
        for p in range(q):
            if math.gcd(p, q) == 1 and (p > 0 or q == 1):
                val = dedekind_sum(p, q, PAPER).value
                assert (q * q) % val.denominator == 0


# ---------------------------------------------------------------------------
# A_q(n)
# ---------------------------------------------------------------------------

def brute_a_q(q, n, convention):
    if q == 1:
        return 1 + 0j
    total = 0 + 0j
    for p in range(1, q):
        if math.gcd(p, q) == 1:
            s = float(dedekind_sum(p, q, convention).value)
            total += cmath.exp(1j * math.pi * s) * cmath.exp(-2j * math.pi * n * p / q)
    return total


def test_kloosterman_q1_is_one():
    for n in (0, 1, 5, 100):
        assert kloosterman_A(1, n, CLASSICAL) == 1 + 0j


def test_kloosterman_small_q_values():
    # q=2: single residue p=1 with s(1,2)=0, so A_2(n) = exp(-i pi n) = (-1)^n
    assert abs(kloosterman_A(2, 0, CLASSICAL) - 1) < 1e-14
    assert abs(kloosterman_A(2, 1, CLASSICAL) - (-1)) < 1e-14


def test_kloosterman_matches_direct_summation():
    for q in range(1, 13):
        for n in (0, 1, 2, 7):
            for conv in (CLASSICAL, PAPER):
                got = kloosterman_A(q, n, conv)
                want = brute_a_q(q, n, conv)
                assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_kloosterman_classical_is_real():
    for q in range(1, 13):
        for n in range(q):
            assert abs(kloosterman_A(q, n, CLASSICAL).imag) < 1e-12


def test_kloosterman_phase_periodicity():
    assert kloosterman_phases(7, 3, CLASSICAL) == kloosterman_phases(7, 10, CLASSICAL)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def test_zeta_forced_values():
    assert abs(riemann_zeta(2.0) - math.pi ** 2 / 6) < 1e-12
    assert abs(riemann_zeta(4.0) - math.pi ** 4 / 90) < 1e-12
    assert abs(riemann_zeta(3.0) - 1.2020569031595943) < 1e-13


@pytest.mark.parametrize("s", [1.5, 2.5, 6.0, 11.0])
def test_zeta_inside_partial_sum_bracket(s):
    n = 2000
    partial = math.fsum(k ** -s for k in range(1, n + 1))
    slack = 1e-14 * partial  # rounding of the bracket endpoints themselves
    lower = partial + (n + 1) ** (1 - s) / (s - 1) - slack
    upper = partial + n ** (1 - s) / (s - 1) + slack
    assert lower <= riemann_zeta(s) <= upper


@pytest.mark.parametrize("s", [1.5, 2.37, 3.0, 4.5, 11.0,
                               1.0 + 1e-9, 1.001, 40.0, 100.0])
def test_zeta_against_40_digit_mpmath(s):
    with mpmath.workdps(40):
        ref = mpmath.zeta(s)
    assert abs(riemann_zeta(s) - ref) <= 5e-16 * ref


def test_zeta3_constant_is_correctly_rounded():
    assert ZETA3 == mpmath.fp.zeta(3.0)
    with mpmath.workdps(50):
        assert ZETA3 == float(mpmath.zeta(3))


def test_zeta_domain():
    with pytest.raises(DomainError):
        riemann_zeta(1.0)
    with pytest.raises(DomainError):
        riemann_zeta(0.5)


def test_gamma_forced_values():
    # math.gamma, which the Mellin checks' Gamma(s) zeta zeta reads
    assert abs(math.gamma(1.0) - 1.0) < 1e-14
    assert abs(math.gamma(0.5) - math.sqrt(math.pi)) < 1e-13
    for n in range(2, 15):
        want = math.factorial(n - 1)
        assert abs(math.gamma(float(n)) - want) < 5e-14 * want


def test_gamma_against_lgamma():
    for s in (0.1, 0.3, 0.7, 1.3, 2.5, 4.2, 7.7, 12.5, 20.0):
        want = math.exp(math.lgamma(s))
        assert abs(math.gamma(s) - want) < 1e-12 * want


def test_bernoulli_table_is_exact():
    # reduced (numerator, denominator) int pairs, denominators positive
    for k, b in enumerate(_BERNOULLI_2K, start=1):
        assert b == mpmath.bernfrac(2 * k)
        assert all(type(v) is int for v in b)


def test_bernoulli_float_tables_are_correctly_rounded():
    # each table divides ints, which rounds as float() of the exact rational
    bern = [Fraction(*b) for b in _BERNOULLI_2K]
    want = {
        "zeta": [b / math.factorial(2 * k) for k, b in enumerate(bern[:11], 1)],
        "wigert": [(b / (2 * k)) ** 2 / math.factorial(2 * k - 1)
                   for k, b in enumerate(bern, 1)],
        "debye": [3 * b / (math.factorial(2 * k) * (2 * k + 3))
                  for k, b in enumerate(bern, 1)],
    }
    got = {"zeta": _ZETA_EM, "wigert": _WIGERT, "debye": _DEBYE_TAYLOR}
    for name, exact in want.items():
        assert [v.hex() for v in got[name]] == [float(v).hex() for v in exact], name


def test_euler_gamma_value():
    assert abs(EULER_GAMMA - 0.5772156649015329) < 1e-13
    assert EULER_GAMMA == float(mpmath.euler)  # correctly rounded


def test_zeta_refuses_non_finite_s():
    for s in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            riemann_zeta(s)
