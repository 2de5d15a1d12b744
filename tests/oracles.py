"""Independent routes for the per-mode quantities, used only by the tests.

The production routes in ``eulergas.thermo`` are Lambert sums, the
dual-scale law and Wigert's expansion.  These sum over the levels
n = 1, 2, ... instead: in doubles with numpy, or at high precision with
mpmath.  sigma_table sieves the divisor sums that literal series need.
"""

import math

import mpmath
import numpy as np


def sigma_table(n_max):
    """Sieved (sigma_0, sigma_1) lists for 0..n_max; index 0 is unused."""
    s0 = [0] * (n_max + 1)
    s1 = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        for m in range(d, n_max + 1, d):
            s0[m] += 1
            s1[m] += d
    return s0, s1


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


def _bose_derivatives(u, order):
    """g(u), g'(u), ..., g^(order)(u) for g = 1/(e^u - 1).  Since
    g' = -g - g^2, each derivative is a polynomial in g with integer
    coefficients, and the chain rule gives the next one exactly."""
    g = 1 / mpmath.expm1(u)
    poly = [0, 1]  # coefficients of g^0, g^1, ...
    out = []
    for _ in range(order + 1):
        out.append(mpmath.fsum(c * g ** i for i, c in enumerate(poly) if c))
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly[1:], 1):
            nxt[i] -= i * c
            nxt[i + 1] -= i * c
        poly = nxt
    return out


def level_sums_mp(x, head=60, order=60):
    """(F/kT, N, E/kT, S/k, fluctuation) per mode as sums over the levels n
    at the working precision: n < head directly, the rest by Euler-Maclaurin
    summation (mpmath.sumem) with the tail integrals in closed form and
    exact derivatives at n = head, so no step is numerical.

    With u = n x and g = 1/(e^u - 1) the summands are -ln(1 - e^{-u})
    (ln Z), g (N), u g/x (E/kT over x) and u^2 (g + g^2) (the
    fluctuation).
    """
    x = mpmath.mpf(x)
    b = head * x
    g = _bose_derivatives(b, order + 1)
    h = [-d for d in g[1:]]  # derivatives of g + g^2 = -g'
    li2 = mpmath.polylog(2, mpmath.exp(-b))
    l1 = -mpmath.log(-mpmath.expm1(-b))  # -ln(1 - e^{-b}), no cancellation
    i1 = b * l1 + li2                     # integral of u g over [b, inf)
    # u-derivatives of orders 0..order of each summand at u = b
    du = {
        "ln_z": [l1] + [-g[j - 1] for j in range(1, order + 1)],
        "n": g[:order + 1],
        "e": [(b * g[j] + (j * g[j - 1] if j else 0)) / x
              for j in range(order + 1)],
        "fl": [b * b * h[j] + (2 * j * b * h[j - 1] if j else 0)
               + (j * (j - 1) * h[j - 2] if j > 1 else 0)
               for j in range(order + 1)],
    }
    integrals = {"ln_z": li2 / x, "n": l1 / x, "e": i1 / x ** 2,
                 "fl": (b * b * g[0] + 2 * i1) / x}
    summands = {
        "ln_z": lambda t: -mpmath.log1p(-mpmath.exp(-t * x)),
        "n": lambda t: 1 / mpmath.expm1(t * x),
        "e": lambda t: t / mpmath.expm1(t * x),
        "fl": lambda t: ((t * x) ** 2 * mpmath.exp(t * x)
                         / mpmath.expm1(t * x) ** 2),
    }
    sums = {}
    for key, f in summands.items():
        adiffs = [d * x ** j for j, d in enumerate(du[key])]
        sums[key] = (mpmath.fsum(f(n) for n in range(1, head))
                     + mpmath.sumem(f, [head, mpmath.inf], adiffs=adiffs,
                                    integral=integrals[key]))
    e = x * sums["e"]
    return -sums["ln_z"], sums["n"], e, e + sums["ln_z"], sums["fl"]
