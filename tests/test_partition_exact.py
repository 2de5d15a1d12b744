"""Exact p(n): the certified Rademacher series against independent routes.

The pentagonal-recurrence oracle checks every n up to 3000; the factored
A_q(n) is checked against Selberg's formula and the Dedekind-phase sums,
and Selberg's against the Dedekind-phase sums; Rademacher's remainder
bound against 200-bit partial sums; and p(n) beyond the oracle's reach
against the recurrence mod 2^64 and Ramanujan's congruences.  Past
EXACT_MAX_N the series is refused at once, and a sum that misses its
certificate raises ConvergenceError.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout

import mpmath as mp
import numpy as np
import pytest

from eulergas import arith, cli, modular
from eulergas.arith import (DedekindConvention, factored_a,
                            partition_count_oracle)
from eulergas.errors import ConvergenceError, DomainError
from eulergas.modular import _remainder_bound, rademacher_p
from oracles import kloosterman_A, rademacher_partial_sum, selberg_A

CLASSICAL = DedekindConvention.CLASSICAL_SAWTOOTH


def coin_counting(n_max):
    """p(0..n_max) by the O(n^2) coin-counting table over parts 1..n_max."""
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for amount in range(part, n_max + 1):
            table[amount] += table[amount - part]
    return table


def pentagonal_mod_2_64(n_max):
    """p(0..n_max) mod 2^64 by the pentagonal recurrence in wrapping int64."""
    k = np.arange(1, math.isqrt(n_max) + 2, dtype=np.int64)
    pent = np.empty(2 * len(k), dtype=np.int64)
    pent[0::2] = k * (3 * k - 1) // 2
    pent[1::2] = k * (3 * k + 1) // 2
    sign = np.where(np.arange(len(pent)) & 2, -1, 1).astype(np.int64)
    p = np.zeros(n_max + 1, dtype=np.int64)
    p[0] = 1
    for m in range(1, n_max + 1):
        j = np.searchsorted(pent, m, side="right")
        p[m] = np.dot(sign[:j], p[m - pent[:j]])
    return p


def test_oracle_matches_coin_counting():
    table = coin_counting(600)
    assert [partition_count_oracle(n) for n in range(601)] == table


def test_series_matches_oracle_and_is_certified_to_3000():
    for n in range(3001):
        res = rademacher_p(n)
        assert res.value == partition_count_oracle(n), f"mismatch at n={n}"
        assert res.error_bound < 0.5
        assert res.residual + res.error_bound < 0.5


def test_selberg_matches_dedekind_phase_sums():
    for q in range(1, 61):
        for n in range(q):
            want = kloosterman_A(q, n, CLASSICAL)
            assert abs(selberg_A(q, n) - want.real) < 1e-12


def selberg_terms(q, l):
    """(-1)^l cos((6l + 1) pi/(6q)) at the residues l: Selberg's formula
    sums these, times sqrt(q/3), over the l that serve n."""
    return np.where(l % 2, -1.0, 1.0) * np.cos(np.pi * (6 * l + 1) / (6 * q))


def test_factored_a_matches_selberg_for_every_residue_to_1000():
    # Selberg's formula for every n mod q at once: each l mod 2q lands in
    # the bucket of the one n it serves, -(3l^2 + l)/2 mod q
    for q in range(1, 1001):
        l = np.arange(2 * q, dtype=np.int64)
        buckets = (math.sqrt(q / 3.0) * np.bincount(
            -(l * (3 * l + 1) // 2) % q, weights=selberg_terms(q, l),
            minlength=q)).tolist()
        for n in range(q):
            assert abs(float(factored_a(q, n)) - buckets[n]) < 1e-12 * q, (q, n)


def test_factored_a_matches_selberg_at_random_large_q():
    # one scan of the 2q residues per draw; A_q(n) has period q in n, so n
    # itself may be large
    rng = random.Random(20120525)
    for _ in range(2000):
        q, n = rng.randint(1, 20000), rng.randint(0, 10 ** 12)
        l = np.arange(2 * q, dtype=np.int64)
        hit = l[(l * (3 * l + 1) // 2 + n % q) % q == 0]
        want = math.sqrt(q / 3.0) * math.fsum(selberg_terms(q, hit))
        assert abs(float(factored_a(q, n)) - want) < 1e-12 * q, (q, n)


def test_factored_a_matches_dedekind_phase_sums():
    for q in range(1, 61):
        for n in range(q):
            want = kloosterman_A(q, n, CLASSICAL)
            assert abs(float(factored_a(q, n)) - want.real) < 1e-12


def test_factored_a_shape():
    # A_1 = 1 and A_2(n) = (-1)^n need no cosine; the rest has one per
    # prime power, with its argument reduced to [0, pi]; a sign of 0 marks
    # A_q(n) = 0 exactly
    assert factored_a(1, 7) == (1, 1, 1, ())
    assert factored_a(2, 0) == (1, 1, 1, ())
    assert factored_a(2, 1) == (-1, 1, 1, ())
    assert factored_a(25, 4) == (0, 0, 1, ())  # 5 | 1 - 24n, 25 | q
    assert factored_a(5, 1) == (0, 0, 1, ())   # -23 is no square mod 5
    for q in range(3, 200):
        for n in range(q):
            a = factored_a(q, n)
            if a.sign:
                # sqrt(q), sqrt(q/3) or, with A_2 = +-1, sqrt(q/2)
                assert a.num == (q // 2 if q % 4 == 2 else q)
                assert a.den == (3 if q % 3 == 0 else 1)
                assert all(0 <= r <= s for r, s in a.cospi)
    with pytest.raises(DomainError):
        factored_a(0, 1)


def test_factored_a_depends_on_n_mod_q_alone():
    # what the cache keyed by (q, n mod q) rests on: the uncached
    # factorisation of n equals that of n mod q, for small n and large
    uncached = arith._factored_a.__wrapped__
    for q in range(1, 301):
        residues = [uncached(q, n) for n in range(q)]
        for n in range(q, 3 * q):
            assert uncached(q, n) == residues[n % q], (q, n)
    rng = random.Random(1205)
    for _ in range(500):
        q, n = rng.randint(1, 20000), 10 ** 12 + rng.randint(0, 10 ** 6)
        assert uncached(q, n) == uncached(q, n % q) == factored_a(q, n), (q, n)


def test_a_cache_is_bounded_and_serves_runs_of_n():
    info = arith._factored_a.cache_info
    assert info().maxsize == arith._A_CACHE_SIZE == 4096
    arith._factored_a.cache_clear()
    for n in range(5001):
        assert rademacher_p(n).value == partition_count_oracle(n), n
    assert info().currsize <= info().maxsize
    # consecutive n share residues: p(0..5000) has N <= 64 terms, so it
    # needs at most 2080 distinct (q, n mod q) of its 266 241 lookups
    assert info().hits > 10 * info().misses
    # 5050 pairs (q, n mod q), q <= 100, fill it without growing it
    for q in range(1, 101):
        for n in range(q):
            factored_a(q, n)
    assert info().currsize == info().maxsize


# (n, terms_used, residual, error_bound) as the fixed-point evaluation gives
# them: every high-precision term is an int built from the same truncations
# in the same order, so every bit must agree
@pytest.mark.parametrize("n,terms,residual,error_bound", [
    (2, 45, 0.0008148512802919061, 0.19818187670145362),
    (200, 42, 0.0016515140371831344, 0.19848217660056802),
    (1189, 48, 0.0003859420679214096, 0.1974838573496157),
    (2392, 53, 0.00011705276554153621, 0.1996850563727164),
    (4780, 63, 0.0003560392061154927, 0.1969563212756122),
    (10 ** 6, 472, 7.142083849317474e-06, 0.19876767541510257),
])
def test_results_are_pinned_to_the_bit(n, terms, residual, error_bound):
    res = rademacher_p(n)
    assert (res.n, res.terms_used) == (n, terms)
    assert repr(res.residual) == repr(residual)
    assert repr(res.error_bound) == repr(error_bound)
    if n <= 10 ** 5:
        assert res.value == partition_count_oracle(n)
    else:
        # p(10^6) has 1108 digits: 1471684986...15630003467104673818
        digits = cli._int_str(res.value)
        assert len(digits) == 1108
        assert digits.startswith("147168498635822339863100476060")
        assert digits.endswith("15630003467104673818")


def _fixed_point_terms(monkeypatch, n):
    """rademacher_p(n) and its fixed-point terms as (q, A_q(n), bits, int)."""
    terms = []
    term = modular._term

    def recording(q, a, bits, scale):
        value = term(q, a, bits, scale)
        terms.append((q, a, bits, value))
        return value

    monkeypatch.setattr(modular, "_term", recording)
    return rademacher_p(n), terms


def _check_counted_units(monkeypatch, n):
    # each fixed-point term against the series term in mpmath at twice its
    # bits, from the original form: within its counted units of 2^-bits
    res, terms = _fixed_point_terms(monkeypatch, n)
    assert terms and terms[0][0] == 1
    for q, a, bits, value in terms:
        with mp.workprec(2 * bits):
            lam = mp.sqrt(n - mp.mpf(1) / 24)
            kq = mp.pi * mp.sqrt(mp.mpf(2) / 3) / q
            e = mp.exp(kq * lam)
            deriv = ((kq - 1 / lam) * e + (kq + 1 / lam) / e) / (4 * lam ** 2)
            a_bound = abs(a.sign) * mp.sqrt(mp.mpf(a.num) / a.den)
            a_q = mp.sign(a.sign) * a_bound
            for r, s in a.cospi:
                a_q *= mp.cospi(mp.mpf(r) / s)
            exact = mp.sqrt(q) * a_q * deriv / (mp.pi * mp.sqrt(2))
            # |deriv| <= (kq + 1/lam) * 2e / (4 lam^2)
            size = (mp.sqrt(q) * a_bound * (kq + 1 / lam) * e
                    / (2 * lam ** 2 * mp.pi * mp.sqrt(2)))
            log2_size = float(mp.log(size, 2))
            units = mp.mpf(2) ** (log2_size + modular._fixed_units(
                log2_size, len(a.cospi)))
            assert abs(value - exact * 2 ** bits) <= units, (n, q, bits)
    assert res.residual <= res.error_bound
    return res


@pytest.mark.parametrize("n", [200, 4780, 10 ** 5])
def test_fixed_point_terms_are_within_their_counted_units(monkeypatch, n):
    res = _check_counted_units(monkeypatch, n)
    # the sum is off from p(n) by its residual, as it rounds to p(n)
    assert res.value == partition_count_oracle(n)


@pytest.mark.slow
def test_fixed_point_terms_are_within_their_counted_units_at_ten_to_the_6(
        monkeypatch):
    res = _check_counted_units(monkeypatch, 10 ** 6)
    digits = cli._int_str(res.value)
    assert len(digits) == 1108
    assert digits.startswith("147168498635822339863100476060")
    assert digits.endswith("15630003467104673818")


def _least_terms_by_scan(n):
    """The least N from 32 up whose remainder bound is below the target,
    counted one by one."""
    terms = math.ceil((modular._REM_A / modular._REM_TARGET) ** 2)
    while _remainder_bound(n, terms) >= modular._REM_TARGET:
        terms += 1
    return terms


@pytest.mark.parametrize("n,terms", [
    (2, 45), (200, 42), (4780, 63), (10 ** 6, 472), (10 ** 7, 1306),
    (10 ** 8, 3710), (10 ** 9, 10_706), (10 ** 10, 31_220)])
def test_term_count_search_matches_the_scan(n, terms):
    assert modular._term_count(n) == _least_terms_by_scan(n) == terms


def test_term_count_search_is_logarithmic(monkeypatch):
    # N is the least count whose bound is below the target, found with at
    # most two bound evaluations per doubling of the count
    bound = modular._remainder_bound
    rng = random.Random(71)
    for n in [2, 3, 466_735_713_430_801] + [
            int(10 ** rng.uniform(0.5, 14.6)) for _ in range(200)]:
        calls = []
        monkeypatch.setattr(modular, "_remainder_bound",
                            lambda m, c: calls.append(c) or bound(m, c))
        terms = modular._term_count(n)
        assert bound(n, terms) < modular._REM_TARGET
        if terms > 32:
            assert bound(n, terms - 1) >= modular._REM_TARGET
        assert len(calls) <= 2 * terms.bit_length(), (n, len(calls))


@pytest.mark.parametrize("n,terms", [(2, 1), (2, 6), (30, 4), (100, 10),
                                     (100, 41), (1000, 15), (1000, 47),
                                     (2000, 30)])
def test_remainder_bound_dominates_the_tail(n, terms):
    bound = _remainder_bound(n, terms)
    assert math.isfinite(bound)
    with mp.workprec(200):
        tail = abs(partition_count_oracle(n)
                   - rademacher_partial_sum(n, terms, CLASSICAL))
    assert tail < bound


@pytest.mark.slow
def test_p_of_ten_to_the_fifth_mod_2_64():
    n = 10 ** 5
    res = rademacher_p(n)
    assert res.residual + res.error_bound < 0.5
    assert res.value % 2 ** 64 == int(pentagonal_mod_2_64(n)[n]) % 2 ** 64


def test_ramanujan_congruence_far_beyond_the_oracle():
    # p(5k + 4) = 0 (mod 5)
    for n in (99_999, 10 ** 6 - 1):
        start = time.monotonic()
        res = rademacher_p(n)
        assert time.monotonic() - start < 5.0
        assert res.residual + res.error_bound < 0.5
        assert res.value % 5 == 0


@pytest.mark.parametrize("base", [10 ** 6, 10 ** 7])
@pytest.mark.parametrize("mod,res", [(5, 4), (7, 5), (11, 6)])
def test_ramanujan_congruences_near_powers_of_ten(base, mod, res):
    # p(5k + 4) = 0 (mod 5), p(7k + 5) = 0 (mod 7), p(11k + 6) = 0 (mod 11)
    n = base + (res - base) % mod
    result = rademacher_p(n)
    assert result.residual + result.error_bound < 0.5
    assert result.value % mod == 0


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _one_json_error(err):
    lines = err.splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])["error"]


@pytest.mark.parametrize("n", [2, 100, 10 ** 6, 10 ** 14])
def test_remainder_bound_falls_with_the_term_count(n):
    # the premise of the bisection for N: sqrt(N) sinh(K sqrt(n)/N) falls
    # strictly as N grows (where it overflows the bound reads inf)
    counts = [1, 2, 3, 5, 10, 31, 100, 10 ** 3, 10 ** 4, 10 ** 5,
              10 ** 6, 5 * 10 ** 6, 10 ** 7]
    bounds = [_remainder_bound(n, c) for c in counts]
    assert math.isfinite(bounds[-1])
    assert all(a > b for a, b in zip(bounds, bounds[1:]) if a < math.inf), bounds


def test_series_past_the_term_budget_is_refused_at_once():
    # EXACT_MAX_N is the largest n whose bound at 5e6 terms is < 1/5
    last = 466_735_713_430_801
    assert modular.EXACT_MAX_N == last
    assert (_remainder_bound(last, 5_000_000) < 1 / 5
            <= _remainder_bound(last + 1, 5_000_000))
    # 10^400 is past the range of a double
    for n in (last + 1, 10 ** 16, 10 ** 30, 10 ** 400):
        start = time.monotonic()
        with pytest.raises(DomainError, match=f"n <= {last}, got"):
            rademacher_p(n)
        assert time.monotonic() - start < 1.0


def test_cli_refuses_past_the_term_budget_at_once():
    start = time.monotonic()
    code, out, err = _run_cli(["partition", "--n", str(10 ** 30)])
    assert time.monotonic() - start < 1.0
    assert code == 2 and out == ""
    assert err == ("error: exact p(n) takes n <= 466735713430801, "
                   f"got {10 ** 30}\n")


def test_uncertified_sum_raises_convergence_error(monkeypatch):
    # With the target at 0.6 and every remainder bound 0.55, the search
    # stops at its first N, ceil((_REM_A/0.6)^2) = 4, and residual +
    # error_bound cannot fall below 1/2
    monkeypatch.setattr(modular, "_REM_TARGET", 0.6)
    monkeypatch.setattr(modular, "_remainder_bound", lambda n, terms: 0.55)
    with pytest.raises(ConvergenceError, match="not certified") as info:
        rademacher_p(100)
    exc = info.value
    assert exc.terms_used == 4
    with mp.workprec(200):
        partial = rademacher_partial_sum(100, 4, CLASSICAL).real
        want = float(abs(partial - mp.nint(partial)))
    assert 0.0 <= exc.residual <= 0.5
    assert abs(exc.residual - want) < 1e-9

    code, out, err = _run_cli(["partition", "--n", "100"])
    assert code == 1 and out == ""
    assert _one_json_error(err) == {
        "type": "ConvergenceError", "message": str(exc), "terms_used": 4,
        "residual": exc.residual}
