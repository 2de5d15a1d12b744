"""Independent routes for the per-mode quantities, used only by the tests.

The production routes in ``eulergas.thermo`` are Lambert sums, the
dual-scale law and Wigert's expansion.  These sum over the levels
n = 1, 2, ... instead: in doubles with numpy, or at high precision with
mpmath.
"""

import math

import mpmath
import numpy as np


def _levels(x):
    """n = 1 .. int(47/x) + 8: each dropped tail is below e^{-47}/x."""
    return np.arange(1, int(47.0 / x) + 9, dtype=np.float64)


def free_energy_log_form(x):
    """F/kT = sum ln(1 - e^{-nx})."""
    return float(np.sum(np.log1p(-np.exp(-x * _levels(x)))))


def occupation_bose(x):
    """N = sum 1/(e^{nx} - 1), its terms added exactly by math.fsum."""
    return math.fsum(1.0 / np.expm1(x * _levels(x)))


def internal_energy_bose(x):
    """E/kT = x sum n/(e^{nx} - 1)."""
    ns = _levels(x)
    return x * float(np.sum(ns / np.expm1(x * ns)))


def occupation_mp(x):
    """N = sum 1/(e^{nx} - 1) at the working precision: the first terms
    directly, the rest by Euler-Maclaurin summation (mpmath.sumem).

    mpmath.nsum's default extrapolation is not used: at 30 digits it misses
    N by 0.7% at x = 1e-4 and by 24% at x = 1e-6.
    """
    x = mpmath.mpf(x)
    head = mpmath.fsum(1 / mpmath.expm1(n * x) for n in range(1, 60))
    return head + mpmath.sumem(lambda t: 1 / mpmath.expm1(t * x), [60, mpmath.inf])


def wigert_partial_mp(x, k_terms):
    """Wigert's expansion of N through k_terms terms at the working precision:
    (gamma - ln x)/x + 1/4 - sum_k (B_2k/2k)^2 x^{2k-1}/(2k-1)!."""
    x = mpmath.mpf(x)
    return ((mpmath.euler - mpmath.log(x)) / x + mpmath.mpf(1) / 4
            - mpmath.fsum((mpmath.bernoulli(2 * k) / (2 * k)) ** 2
                          * x ** (2 * k - 1) / mpmath.factorial(2 * k - 1)
                          for k in range(1, k_terms + 1)))
