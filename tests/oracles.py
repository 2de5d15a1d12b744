"""Independent routes, used only by the tests.

The production routes in ``eulergas.thermo`` are Lambert sums, the
dual-scale law and Wigert's expansion.  These sum over the levels
n = 1, 2, ... instead: in doubles with numpy, or at high precision with
mpmath.  sigma_table sieves the divisor sums that literal series need.

The production exact p(n) takes A_q(n) from its factorisation over the
prime powers of q.  Here A_q(n) comes from Selberg's formula, a scan over
the residues mod 2q, and from the exact Dedekind-sum phases in either
convention, and the series is summed at a fixed precision; with the
paper-literal phases it is the negative control that selects the
classical convention.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np

from eulergas.arith import DedekindConvention, dedekind_sum
from eulergas.modular import _remainder_bound, rademacher_p


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


def kloosterman_phases(q, n, convention):
    """Exact phases t (mod 2) such that A_q(n) = sum exp(i*pi*t).

    One entry per residue p mod q with gcd(p, q) = 1; for q = 1 the single
    residue is taken as p = 0 with unit weight, so A_1(n) = 1 and the q = 1
    term of the exact series reproduces the dominant closed form.
    """
    if q == 1:
        return (Fraction(0),)
    return tuple((dedekind_sum(p, q, convention).value
                  - Fraction(2 * (n % q) * p, q)) % 2
                 for p in range(1, q) if math.gcd(p, q) == 1)


def kloosterman_A(q, n, convention):
    """A_q(n) = sum over coprime residues of exp(i*pi*s(p,q) - 2*i*pi*n*p/q),
    in doubles; in the classical convention the imaginary part vanishes to
    rounding."""
    re = im = 0.0
    for t in kloosterman_phases(q, n, convention):
        ft = float(t)
        re += math.cos(math.pi * ft)
        im += math.sin(math.pi * ft)
    return complex(re, im)


def selberg_residues(q, n):
    """The residues l mod 2q with (3l^2 + l)/2 = -n (mod q), ascending: the
    terms of Selberg's formula, found by scanning all 2q of them."""
    return [l for l in range(2 * q) if (l * (3 * l + 1) // 2 + n) % q == 0]


def selberg_A(q, n):
    """A_q(n) in the classical convention by Selberg's formula, in doubles:
    sqrt(q/3) * sum (-1)^l cos((6l + 1) pi / (6q)) over selberg_residues."""
    return math.sqrt(q / 3.0) * sum(
        (-1) ** l * math.cos(math.pi * (6 * l + 1) / (6 * q))
        for l in selberg_residues(q, n))


def rademacher_partial_sum(n, terms, convention, bits=200):
    """The first `terms` terms of the exact series for p(n), n >= 1, at
    `bits` bits, with A_q(n) from the exact Dedekind-sum phases: an mpc,
    real in the classical convention."""
    with mpmath.workprec(bits):
        lam = mpmath.sqrt(mpmath.mpf(24 * n - 1) / 24)
        total = mpmath.mpc(0)
        for q in range(1, terms + 1):
            kq = mpmath.pi * mpmath.sqrt(mpmath.mpf(2) / 3) / q
            deriv = (kq * mpmath.cosh(kq * lam)
                     - mpmath.sinh(kq * lam) / lam) / (2 * lam * lam)
            a_q = mpmath.fsum(
                mpmath.expjpi(mpmath.mpf(t.numerator) / t.denominator)
                for t in kloosterman_phases(q, n, convention))
            total += mpmath.sqrt(q) * a_q * deriv / (mpmath.pi * mpmath.sqrt(2))
        return total


def rademacher_paper_literal(n):
    """p(n) as the paper-literal convention reads it, under the production
    certificate: the series at 200 bits with the production's number of
    terms N, and the integer m nearest its real part, returned only when
    |sum - m| plus Rademacher's remainder bound after N terms is below 1/2;
    None otherwise.  p(0) = p(1) = 1."""
    if n <= 1:
        return 1
    terms = rademacher_p(n).terms_used
    total = rademacher_partial_sum(n, terms, DedekindConvention.PAPER_LITERAL)
    m = mpmath.nint(total.real)
    if abs(total - m) + _remainder_bound(n, terms) < 0.5:
        return int(m)
    return None
