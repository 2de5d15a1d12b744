"""Exact p(n): the certified Rademacher series against independent routes.

The pentagonal-recurrence oracle checks every n up to 3000; Selberg's
A_q(n) is checked against the Dedekind-phase sums; Rademacher's remainder
bound against 200-bit partial sums; and p(n) beyond the oracle's reach
against the recurrence mod 2^64 and Ramanujan's congruences.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from eulergas.arith import (DedekindConvention, kloosterman_A,
                            kloosterman_phases, partition_count_oracle,
                            selberg_A)
from eulergas.modular import _remainder_bound, rademacher_p

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


def partial_sum_200_bits(n, terms):
    """First `terms` terms of the series at 200 bits, with A_q(n) from the
    exact Dedekind-sum phases."""
    with mp.workprec(200):
        lam = mp.sqrt(mp.mpf(24 * n - 1) / 24)
        total = mp.mpf(0)
        for q in range(1, terms + 1):
            kq = mp.pi * mp.sqrt(mp.mpf(2) / 3) / q
            deriv = (kq * mp.cosh(kq * lam) - mp.sinh(kq * lam) / lam) \
                / (2 * lam * lam)
            a_q = mp.fsum(mp.cospi(mp.mpf(t.numerator) / t.denominator)
                          for t in kloosterman_phases(q, n, CLASSICAL))
            total += mp.sqrt(q) * a_q * deriv / (mp.pi * mp.sqrt(2))
        return total


@pytest.mark.parametrize("n,terms", [(2, 1), (2, 6), (30, 4), (100, 10),
                                     (100, 41), (1000, 15), (1000, 47),
                                     (2000, 30)])
def test_remainder_bound_dominates_the_tail(n, terms):
    bound = _remainder_bound(n, terms)
    assert math.isfinite(bound)
    with mp.workprec(200):
        tail = abs(partition_count_oracle(n) - partial_sum_200_bits(n, terms))
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
