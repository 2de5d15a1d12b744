"""Exact p(n): the certified Rademacher series against independent routes.

The pentagonal-recurrence oracle checks every n up to 3000; the factored
A_q(n) is checked against Selberg's formula and the Dedekind-phase sums,
and Selberg's against the Dedekind-phase sums; the remainder bound, and
each of its parts, against 200-bit partial sums and exact sums; and p(n)
beyond the oracle's reach against the recurrence mod 2^64, Ramanujan's
congruences and sympy's partition.  Rademacher's bound, which the series was truncated by
before, replays that truncation to the bit, and the sharper bound never
takes more terms.  Past EXACT_MAX_N the series is refused at once, and a
sum that misses its certificate raises ConvergenceError.
"""

import hashlib
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
from oracles import (kloosterman_A, rademacher_lehmer_bound,
                     rademacher_partial_sum, selberg_A)

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


def selberg_every_residue(q):
    """A_q(n) for n = 0..q-1 by Selberg's formula, all at once: each l mod
    2q lands in the bucket of the one n it serves, -(3l^2 + l)/2 mod q."""
    l = np.arange(2 * q, dtype=np.int64)
    return math.sqrt(q / 3.0) * np.bincount(
        -(l * (3 * l + 1) // 2) % q, weights=selberg_terms(q, l), minlength=q)


def test_factored_a_matches_selberg_for_every_residue_to_1000():
    for q in range(1, 1001):
        buckets = selberg_every_residue(q).tolist()
        for n in range(q):
            assert abs(float(factored_a(q, n)) - buckets[n]) < 1e-12 * q, (q, n)


def odd_prime_count(q):
    """w(q): the number of distinct odd primes dividing q."""
    q >>= (q & -q).bit_length() - 1
    count, p = 0, 3
    while q > 1:
        if p * p > q:
            return count + 1
        if q % p == 0:
            count += 1
            while q % p == 0:
                q //= p
        p += 2
    return count


def test_factored_a_is_within_two_to_the_w_root_q_to_300():
    # the premise of the remainder bound, factor by factor: |sign| *
    # sqrt(num/den) <= 2^w sqrt(q), with each cosine at most 1, and the
    # same for Selberg's A_q(n), an independent route
    for q in range(1, 301):
        w = odd_prime_count(q)
        limit = 2.0 ** w * math.sqrt(q)
        assert np.all(np.abs(selberg_every_residue(q)) <= limit * (1 + 1e-12))
        for n in range(q):
            a = factored_a(q, n)
            assert a.sign ** 2 * a.num <= 4 ** w * q * a.den, (q, n)


@pytest.mark.slow
def test_selberg_a_is_within_two_to_the_w_root_q_to_2000():
    for q in range(1, 2001):
        limit = 2.0 ** odd_prime_count(q) * math.sqrt(q) * (1 + 1e-12)
        assert np.all(np.abs(selberg_every_residue(q)) <= limit), q


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


@pytest.mark.parametrize("q,n,match", [
    (0, 1, "needs q >= 1, got 0"),
    (-10 ** 5000, 1, "needs q >= 1, got a negative integer of 16610 bits"),
    (10 ** 12 + 1, 1, r"takes q <= 10\*\*12, got 1000000000001"),
    (10 ** 14 + 31, 1, r"takes q <= 10\*\*12"),
    (10 ** 5000, 1, r"takes q <= 10\*\*12, got an integer of 16610 bits"),
    (5.0, 1, "q must be an integer, got 5.0"),
    (5, 1.0, "n must be an integer, got 1.0"),
    (5, math.nan, "n must be an integer, got nan"),
], ids=["0", "-1e5000", "1e12+1", "1e14+31", "1e5000", "q-float", "n-float",
        "n-nan"])
def test_factored_a_refuses_bad_input_at_once(q, n, match):
    # trial division to sqrt(10^14) would take most of a second
    start = time.monotonic()
    with pytest.raises(DomainError, match=match):
        factored_a(q, n)
    assert time.monotonic() - start < 0.05


def test_factored_a_answers_up_to_its_limit():
    # 10^12 = 2^12 5^12: 5 divides 1 - 24n for n = 4, and 25 divides q
    assert factored_a(10 ** 12, 4) == (0, 0, 1, ())
    a = factored_a(10 ** 12, 10 ** 30)
    assert a == factored_a(10 ** 12, 0)
    assert (a.num, a.den, len(a.cospi)) == (10 ** 12, 1, 2)


def test_factored_a_depends_on_n_mod_q_alone():
    # what the cache keyed by (q, n mod q) rests on: the uncached
    # factorisation of n equals that of n mod q, for small n and large
    uncached = arith._factored_a
    for q in range(1, 301):
        residues = [uncached(q, n) for n in range(q)]
        for n in range(q, 3 * q):
            assert uncached(q, n) == residues[n % q], (q, n)
    rng = random.Random(1205)
    for _ in range(500):
        q, n = rng.randint(1, 20000), 10 ** 12 + rng.randint(0, 10 ** 6)
        assert uncached(q, n) == uncached(q, n % q) == factored_a(q, n), (q, n)


def test_a_cache_is_bounded_and_serves_runs_of_n():
    info = modular._a_record.cache_info
    assert info().maxsize == modular._A_CACHE_SIZE == 4096
    modular._a_record.cache_clear()
    for n in range(5001):
        assert rademacher_p(n).value == partition_count_oracle(n), n
    assert info().currsize <= info().maxsize
    # consecutive n share residues: p(0..5000) has N <= 42 terms, so it
    # needs at most 903 distinct (q, n mod q) of its 155 387 lookups
    assert info().hits > 10 * info().misses
    # 5050 pairs (q, n mod q), q <= 100, fill it without growing it
    for q in range(1, 101):
        for n in range(q):
            modular._a_record(q, n)
    assert info().currsize == info().maxsize


def test_a_records_hold_the_doubles_of_factored_a():
    for q in range(1, 200):
        for n in range(q):
            a = factored_a(q, n)
            record = modular._a_record(q, n)
            if not a.sign:
                assert record is None
                continue
            assert record.a == a and record.n_cos == len(a.cospi)
            assert record.a_q == float(a)
            assert record.kq == modular._K / q
            assert record.root_q == math.sqrt(q)
            assert record.lead == (math.sqrt(q) * abs(a.sign)
                                   * math.sqrt(a.num / a.den))


_DIGEST_NS = [*range(3001), 4780, 10 ** 4, 79_445, 10 ** 5, 10 ** 6]


def _results_digest(fields):
    digest = hashlib.sha256()
    for n in _DIGEST_NS:
        res = rademacher_p(n)
        digest.update((" ".join(repr(getattr(res, f)) for f in fields)
                       + "\n").encode())
    return digest.hexdigest()


_ALL_FIELDS = ("n", "value", "terms_used", "residual", "error_bound")

# SHA-256 of "n value terms_used residual error_bound\n", each field its
# repr, for n = 0..3000, 4780, 10^4, 79 445, 10^5 and 10^6, as the loop that
# rebuilt every term's doubles from A_q(n) on each call gave them with the
# series truncated where Rademacher's remainder bound falls below 1/5
_RESULTS_SHA256 = ("d2bc58f1534befb982f2e2b85cebcc49"
                   "de8ef5a003b13bf6d3f6b4066797bf6a")
# the same at the production target, just under 1/4, still truncated by
# Rademacher's bound
_RESULTS_AT_TARGET_SHA256 = ("aed8ae203ccc2a9cc3becc41724f9999"
                             "168bb88ff4b43c6dee7e19dbdd2388a9")
# the same with the production bound and target
_RESULTS_SHARPER_SHA256 = ("05b6fe3900bd9a3682b6bdb647f7c98c"
                           "4c59743ae905ac1024b4165598ab8377")
# SHA-256 of "n value\n" over the same n, as the 1/5 target gave them: the
# value of p(n) does not depend on where a certified sum stops
_VALUES_SHA256 = ("3339badabf1693c06cad615074ff1138"
                  "a8aeb839a671fe717d9dd4ce70d174a0")


def _rademacher_lehmer(monkeypatch, target=modular._REM_TARGET):
    """Truncate as before the sharper bound: by Rademacher's bound, where
    it falls below `target`."""
    monkeypatch.setattr(modular, "_remainder_bound", rademacher_lehmer_bound)
    monkeypatch.setattr(modular, "_REM_TARGET", target)


def test_results_match_their_digest_to_the_bit(monkeypatch):
    # at the 1/5 target of Rademacher's bound every term is routed,
    # evaluated and bounded as when each doubles term was routed by its
    # log-domain size
    _rademacher_lehmer(monkeypatch, 0.2)
    assert _results_digest(_ALL_FIELDS) == _RESULTS_SHA256


def test_results_at_the_target_match_their_digest_to_the_bit(monkeypatch):
    _rademacher_lehmer(monkeypatch)
    assert _results_digest(_ALL_FIELDS) == _RESULTS_AT_TARGET_SHA256


def test_results_with_the_sharper_bound_match_their_digest_to_the_bit():
    assert _results_digest(_ALL_FIELDS) == _RESULTS_SHARPER_SHA256


def test_values_match_their_digest():
    assert _results_digest(("n", "value")) == _VALUES_SHA256


def _check_pinned(n, terms, residual, error_bound):
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


# (n, terms_used, residual, error_bound) as the fixed-point evaluation gives
# them at the 1/5 target of Rademacher's bound: every high-precision term is
# an int built from the same truncations in the same order, so every bit
# must agree
@pytest.mark.parametrize("n,terms,residual,error_bound", [
    (2, 45, 0.0008148512802919061, 0.19818187670145362),
    (200, 42, 0.0016515140371831344, 0.19848217660056802),
    (1189, 48, 0.0003859420679214096, 0.1974838573496157),
    (2392, 53, 0.00011705276554153621, 0.1996850563727164),
    (4780, 63, 0.0003560392061154927, 0.1969563212756122),
    (10 ** 6, 472, 7.142083849317474e-06, 0.19876767541510257),
])
def test_results_are_pinned_to_the_bit(monkeypatch, n, terms, residual,
                                       error_bound):
    _rademacher_lehmer(monkeypatch, 0.2)
    _check_pinned(n, terms, residual, error_bound)


# the same at the production target, still truncated by Rademacher's bound
@pytest.mark.parametrize("n,terms,residual,error_bound", [
    (2, 29, 0.0004175551485610107, 0.2469325505012846),
    (200, 28, 0.00028873236352984456, 0.2481318762358574),
    (1189, 36, 0.0012762232199895565, 0.2454433597942918),
    (2392, 42, 0.002894033521239414, 0.24957505415624287),
    (4780, 52, 0.00032486239882189677, 0.24797899739920956),
    (10 ** 6, 446, 8.939898917913136e-05, 0.24955950813754482),
])
def test_results_at_the_target_are_pinned_to_the_bit(monkeypatch, n, terms,
                                                     residual, error_bound):
    _rademacher_lehmer(monkeypatch)
    _check_pinned(n, terms, residual, error_bound)


# the same with the production bound and target
@pytest.mark.parametrize("n,terms,residual,error_bound", [
    (2, 8, 0.0022089902062745193, 0.23877932518724268),
    (200, 14, 0.005610751345326505, 0.24869911723895796),
    (1189, 25, 0.005489659598008964, 0.24078061364627057),
    (2392, 32, 0.0026314109057023025, 0.24199282220230156),
    (4780, 41, 0.0018831935805729884, 0.24930348427697968),
    (10 ** 6, 363, 0.00039683034715255804, 0.24703025216830143),
])
def test_results_with_the_sharper_bound_are_pinned_to_the_bit(
        n, terms, residual, error_bound):
    _check_pinned(n, terms, residual, error_bound)


def test_certificate_holds_below_a_quarter():
    # the evaluation error is under 2^-23, so error_bound < 1/4 and a
    # correct sum is within it of p(n), for every n, small and large
    ladder = [int(10 ** (k / 4)) for k in range(15, 33)]
    for n in [*range(2, 5001), *ladder]:
        res = rademacher_p(n)
        assert res.error_bound < 0.25, n
        assert res.residual <= res.error_bound, n
        if n <= 5000:
            assert res.value == partition_count_oracle(n), n


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
    """The least N whose remainder bound (modular's, which a test may
    replace) is below the target, counted one by one from 1."""
    terms = 1
    while modular._remainder_bound(n, terms) >= modular._REM_TARGET:
        terms += 1
    return terms


def _least_terms_by_doubling(n):
    """N by a plain search: double the count from 1 until the bound is
    below the target, then bisect."""
    lo, hi = 0, 1
    while _remainder_bound(n, hi) >= modular._REM_TARGET:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _remainder_bound(n, mid) < modular._REM_TARGET:
            hi = mid
        else:
            lo = mid
    return hi


def test_term_count_matches_the_doubling_search():
    # the search starts near N and steps out from there; it must land on
    # the same N for every n up to 10^5 and along a ladder to EXACT_MAX_N
    ladder = [int(10 ** (k / 40)) for k in range(200, 587)]
    for n in [*range(2, 10 ** 5 + 1), *ladder, modular.EXACT_MAX_N]:
        assert modular._term_count(n) == _least_terms_by_doubling(n), n


@pytest.mark.parametrize("n,terms", [
    (2, 45), (200, 42), (4780, 63), (10 ** 6, 472), (10 ** 7, 1306),
    (10 ** 8, 3710), (10 ** 9, 10_706), (10 ** 10, 31_220)])
def test_term_count_search_matches_the_scan(monkeypatch, n, terms):
    # Rademacher's bound at 1/5, the pair that defines EXACT_MAX_N
    _rademacher_lehmer(monkeypatch, 0.2)
    assert modular._term_count(n) == _least_terms_by_scan(n) == terms


@pytest.mark.parametrize("n,terms", [
    (2, 29), (100, 27), (200, 28), (4780, 52), (22_283, 90), (22_284, 91),
    (10 ** 6, 446), (10 ** 7, 1250), (10 ** 8, 3576), (10 ** 9, 10_364),
    (10 ** 10, 30_320)])
def test_term_count_search_matches_the_scan_at_the_target(monkeypatch, n,
                                                          terms):
    # Rademacher's bound at the production target
    _rademacher_lehmer(monkeypatch)
    assert modular._term_count(n) == _least_terms_by_scan(n) == terms


@pytest.mark.parametrize("n,terms", [
    (2, 8), (100, 12), (200, 14), (4780, 41), (35_495, 90), (35_496, 91),
    (10 ** 6, 363), (10 ** 7, 983), (10 ** 8, 2722), (10 ** 9, 7658),
    (10 ** 10, 21_818)])
def test_term_count_search_matches_the_scan_with_the_sharper_bound(n, terms):
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


@pytest.mark.parametrize("n", [2, 3, 10, 47, 100, 163, 269, 500, 1000, 1499,
                               2000])
def test_remainder_bound_dominates_the_tail_a_term_short_of_n(n):
    # one term short of N the tail is largest against the target
    terms = rademacher_p(n).terms_used - 1
    bound = _remainder_bound(n, terms)
    assert modular._REM_TARGET <= bound < 1.0
    with mp.workprec(200):
        tail = abs(partition_count_oracle(n)
                   - rademacher_partial_sum(n, terms, CLASSICAL))
    assert tail < bound


def test_term_shape_matches_40_digits():
    # f(u) = 3(u cosh u - sinh u)/u^3, from its series below u = 1 and from
    # e^u above, to within a few units of 2^-52 from 1e-8 to 700
    us = [*np.geomspace(1e-8, 700.0, 400), 0.999999, 1.0, 1.000001]
    with mp.workdps(40):
        for u in us:
            x = mp.mpf(float(u))
            want = 3 * (x * mp.cosh(x) - mp.sinh(x)) / x ** 3
            got = modular._term_shape(float(u))
            assert abs(got - want) <= 1e-15 * want, u
    with pytest.raises(OverflowError):
        modular._term_shape(710.0)


def test_odd_divisor_tail_bounds_the_exact_sums_to_2000():
    # sum_{q>N} d_o(q)/q^2 is sum_{N<q<=Q} plus a remainder past Q below
    # 2(ln Q + 2)/Q: d_o(q) <= d(q), sum_{q<=x} d(q) <= x(ln x + 1), and
    # partial summation.  sum_{q<=Q} d_o(q)/q^2 is sum_{c odd} c^-2
    # sum_{b<=Q/c} b^-2, from a prefix sum of b^-2; the d_o(q) for q <= 2000
    # are sieved.
    big_q = 2_000_000
    inv_square = 1.0 / np.arange(1, big_q + 1, dtype=np.float64) ** 2
    prefix = np.concatenate([[0.0], np.cumsum(inv_square)])
    odd = np.arange(1, big_q + 1, 2)
    total = float(np.sum(prefix[big_q // odd] * inv_square[odd - 1]))
    remainder = 2.0 * (math.log(big_q) + 2.0) / big_q
    n_max = 2000
    d_odd = np.zeros(n_max + 1)
    for c in range(1, n_max + 1, 2):
        d_odd[c::c] += 1
    head = np.cumsum(d_odd[1:] * inv_square[:n_max])
    tails = [modular._odd_divisor_tail(n) for n in range(1, n_max + 1)]
    for n, tail in enumerate(tails, 1):
        # at least 6% above, as _odd_divisor_tail's docstring says
        assert tail >= 1.06 * (total - head[n - 1] + remainder), n
    assert all(a > b for a, b in zip(tails, tails[1:]))


def test_term_count_never_exceeds_rademacher_lehmer(monkeypatch):
    # the sharper bound takes no more terms than Rademacher's at the same
    # target, for every n up to 5000 and along a ladder to EXACT_MAX_N
    ladder = [int(10 ** (k / 40)) for k in range(200, 587)]
    ns = [*range(2, 5001), *ladder, modular.EXACT_MAX_N]
    sharp = [modular._term_count(n) for n in ns]
    monkeypatch.setattr(modular, "_remainder_bound", rademacher_lehmer_bound)
    for n, terms in zip(ns, sharp):
        assert terms <= modular._term_count(n), n


@pytest.mark.slow
@pytest.mark.parametrize("mod,res", [(5, 4), (7, 5)])
def test_ramanujan_congruences_at_ten_to_the_9(mod, res):
    # p(10^9 + 4) = 0 (mod 5) and p(10^9 + 6) = 0 (mod 7), far past the
    # reach of Rademacher's bound at these term counts
    n = 10 ** 9 + (res - 10 ** 9) % mod
    result = rademacher_p(n)
    assert result.residual + result.error_bound < 0.5
    assert result.value % mod == 0


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


# Two n per decade from 10^5 to 10^8 and one from 10^8 to 10^9, each
# log-uniform in its decade: past the pentagonal oracle's reach
_SYMPY_RNG = random.Random(2003)
_SYMPY_LADDER = sorted(int(10 ** _SYMPY_RNG.uniform(k, k + 1))
                       for k, count in ((5, 2), (6, 2), (7, 2), (8, 1))
                       for _ in range(count))


@pytest.mark.parametrize("n", [
    pytest.param(n, marks=pytest.mark.slow) if n > 10 ** 8 else n
    for n in _SYMPY_LADDER])
def test_exact_p_matches_sympy(n):
    # sympy's partition is a separate implementation of the same series;
    # its exponentials and cosines also come from mpmath's libmp
    from sympy.functions.combinatorial.numbers import partition
    assert rademacher_p(n).value == int(partition(n))


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
    # the premise of the bisection for N: f(K lam/(N + 1)) T(N) falls
    # strictly as N grows (where e^u overflows the bound reads inf), also
    # where u is near 4e-7 and f is 1 to within 2e-14
    counts = [1, 2, 3, 5, 10, 31, 100, 10 ** 3, 10 ** 4, 10 ** 5,
              10 ** 6, 5 * 10 ** 6, 10 ** 7]
    bounds = [_remainder_bound(n, c) for c in counts]
    assert math.isfinite(bounds[-1])
    assert all(a > b for a, b in zip(bounds, bounds[1:]) if a < math.inf), bounds


def test_series_past_the_term_budget_is_refused_at_once():
    # EXACT_MAX_N is the largest n whose Rademacher bound at 5e6 terms is
    # < 1/5
    last = 466_735_713_430_801
    assert modular.EXACT_MAX_N == last
    assert (rademacher_lehmer_bound(last, 5_000_000) < 1 / 5
            <= rademacher_lehmer_bound(last + 1, 5_000_000))
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
    # stops at 2, one past its floor: C*c0/N, below the bound for every N,
    # meets 0.6 up to N = 1.  residual + error_bound cannot fall below 1/2
    monkeypatch.setattr(modular, "_REM_TARGET", 0.6)
    monkeypatch.setattr(modular, "_remainder_bound", lambda n, terms: 0.55)
    with pytest.raises(ConvergenceError, match="not certified") as info:
        rademacher_p(100)
    exc = info.value
    assert exc.terms_used == 2
    with mp.workprec(200):
        partial = rademacher_partial_sum(100, 2, CLASSICAL).real
        want = float(abs(partial - mp.nint(partial)))
    assert 0.0 <= exc.residual <= 0.5
    assert abs(exc.residual - want) < 1e-9

    code, out, err = _run_cli(["partition", "--n", "100"])
    assert code == 1 and out == ""
    assert _one_json_error(err) == {
        "type": "ConvergenceError", "message": str(exc), "terms_used": 2,
        "residual": exc.residual}
