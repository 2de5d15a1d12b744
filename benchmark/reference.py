"""Independent references and the checks of the program's outputs.

Nothing here imports eulergas.  References are computed in the benchmark's
own process, before the timed region:

- p(n) by Euler's pentagonal recurrence, plus Ramanujan's congruences;
- F/kT, N, E/kT and the energy fluctuation by direct numpy sums over the
  levels m (Bose and log forms), each with an explicit bound on the dropped
  tail; S/k = E/kT - F/kT;
- the dual-scale law -F(x) = -x/24 + ln(x/2pi)/2 + pi^2/(6x) - F(4pi^2/x);
- Gamma(s) zeta zeta, the Debye function and the closed forms of the
  radiation, phonon and quartz quantities in mpmath at 30 digits;
- Farey sequences by brute force, Ford tangency from the circles
  themselves and Dedekind sums from the sawtooth definition, in Fractions.

A check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

# SI defining constants (2019), exact.
H = 6.62607015e-34
K = 1.380649e-23
C = 299792458.0

# Tolerances, relative unless stated.  REL sits far above the program's
# 1e-12 target and the ~2e-15 of a dual-scale evaluation, and far below
# the 1e-9 perturbation the self-test must see rejected.
REL = 1e-10
MELLIN_REL = 1e-6      # quadrature against Gamma*zeta*zeta, as in the tests
GRID_REL = 1e-12       # sweep grid points against a geometric grid
ETA_RESIDUAL = 1e-10   # |eta(-1/tau) - sqrt(tau/i) eta(tau)| / |eta(-1/tau)|
TAIL_REL = 1e-15       # largest dropped tail allowed in a level sum

CONGRUENCES = ((5, 4), (7, 5), (11, 6))   # p(mk + r) = 0 mod m

# The packaged p5-5mhz resonator preset (README: c_ph 3.5 km/s, Q 2e6,
# V 1 cm^3, T 300 K, carrier 5 MHz) and its comparison values.
QUARTZ_PRESET = {"c_ph": 3500.0, "q_factor": 2e6, "carrier": 5e6,
                 "active_volume": 1e-6, "temperature": 300.0,
                 "reference_a_ph": 5e-4, "reference_h_minus_1": 6e-24}

mp.mp.dps = 30


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def partitions_upto(n_max: int) -> list[int]:
    """p(0..n_max) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total, k = 0, 1
        while True:
            g = k * (3 * k - 1) // 2
            if g > n:
                break
            term = p[n - g]
            if g + k <= n:
                term += p[n - g - k]
            total += term if k % 2 else -term
            k += 1
        p[n] = total
    return p


def level_sums(x: float) -> dict[str, float]:
    """F/kT, N, E/kT and the energy fluctuation at x from sums over levels:

        F/kT = sum ln(1 - e^{-mx}),       N = sum 1/(e^{mx} - 1),
        E/kT = x sum m/(e^{mx} - 1),  fluct = x^2 sum m^2 e^{mx}/(e^{mx} - 1)^2.

    The tail past M terms is bounded by the geometric series
    (M+1)^p q^{M+1}/(1 - rho), rho = ((M+2)/(M+1))^p q, q = e^{-x}, over
    (1 - q^{M+1}) for each Bose factor.
    """
    m_max = int(math.ceil(60.0 / x)) + 16
    m = np.arange(1, m_max + 1, dtype=np.float64)
    q_m = np.exp(-x * m)
    one_minus = -np.expm1(-x * m)
    out = {"f": float(np.sum(np.log1p(-q_m))),
           "n": float(np.sum(q_m / one_minus)),
           "e": x * float(np.sum(m * q_m / one_minus)),
           "fluct": x * x * float(np.sum(m * m * q_m / one_minus ** 2))}
    q_next = math.exp(-x * (m_max + 1))
    bose = 1.0 / (1.0 - q_next)
    for key, power, scale in (("f", 0, bose), ("n", 0, bose),
                              ("e", 1, x * bose), ("fluct", 2, x * x * bose * bose)):
        rho = ((m_max + 2) / (m_max + 1)) ** power * math.exp(-x)
        tail = scale * (m_max + 1) ** power * q_next / (1.0 - rho)
        if not tail <= TAIL_REL * abs(out[key]):
            raise ArithmeticError(f"level sum {key} at x={x!r}: tail {tail}")
    out["s"] = out["e"] - out["f"]
    return out


def dual_scale_neg_f(x: float) -> float:
    """-F(x) predicted by the modular law from F at the dual point 4pi^2/x."""
    dual = level_sums(4.0 * math.pi ** 2 / x)["f"]
    return (-x / 24.0 + 0.5 * math.log(x / (2.0 * math.pi))
            + math.pi ** 2 / (6.0 * x) - dual)


def mellin_closed(kind: str, s: float) -> float:
    s = mp.mpf(s)
    z = mp.zeta(s)
    other = {"free-energy": mp.zeta(s + 1), "occupation": z,
             "energy": mp.zeta(s - 1)}[kind]
    return float(mp.gamma(s) * z * other)


def debye_function(x_m) -> mp.mpf:
    """D(x_m) = 3/x_m^3 * integral_0^x_m t^3/(e^t - 1) dt."""
    x_m = mp.mpf(x_m)
    cuts = [mp.mpf(0)] + [mp.mpf(c) for c in (2, 6, 15, 40) if c < x_m] + [x_m]
    integral = mp.quad(lambda t: t ** 3 / mp.expm1(t) if t else mp.mpf(0), cuts)
    return 3 * integral / x_m ** 3


def debye_solid(n_atoms: float, volume: float, temperature: float,
                c_ph: float) -> dict[str, float]:
    n, v, t, c = (mp.mpf(a) for a in (n_atoms, volume, temperature, c_ph))
    nu_m = mp.cbrt(3 * n * c ** 3 / (4 * mp.pi * v))
    theta = mp.mpf(H) * nu_m / mp.mpf(K)
    x_m = theta / t
    d = debye_function(x_m)
    cv = 3 * n * mp.mpf(K) * (4 * d - 3 * x_m / mp.expm1(x_m))
    return {"nu_m": float(nu_m), "theta_d": float(theta), "x_m": float(x_m),
            "debye_function": float(d), "cv_conventional": float(cv),
            "cv_general": float(cv * mp.zeta(3)),
            "cv_over_dulong_petit": float(cv / (3 * n * mp.mpf(K))),
            "epsilon_sq": float(mp.mpf(K) * t ** 2 * cv),
            "relative_fluctuation": float(mp.sqrt(2 / (3 * n)))}


def general_emissivity(nu: float, temperature: float) -> float:
    """(2 pi h / c^2) nu^3 sum sigma_1(n) e^{-nx} = ... * (E/kT)/x."""
    x = H * nu / (K * temperature)
    return 2.0 * math.pi * H / C ** 2 * nu ** 3 * level_sums(x)["e"] / x


def blackbody(nu: float, temperature: float, volume: float) -> dict[str, float]:
    x = H * nu / (K * temperature)
    nu_, t, v = mp.mpf(nu), mp.mpf(temperature), mp.mpf(volume)
    h, k, c = mp.mpf(H), mp.mpf(K), mp.mpf(C)
    bose = 1 / mp.expm1(mp.mpf(x))
    e_general = general_emissivity(nu, temperature)
    u_conv = 8 * mp.pi * h * v / c ** 3 * nu_ ** 3 * bose
    return {"x": x,
            "u_conventional": float(u_conv),
            "u_general": float(4 * v / c * mp.mpf(e_general)),
            "e_b_planck": float(2 * mp.pi * h / c ** 2 * nu_ ** 3 * bose),
            "e_b_rayleigh_jeans": float(2 * mp.pi * k / c ** 2 * nu_ ** 2 * t),
            "e_b_general": e_general,
            "e_b_general_lf": float(mp.pi ** 3 / 3 * k ** 2 / (c ** 2 * h)
                                    * nu_ * t ** 2),
            "frac_noise_rj": float(c ** 3 / (8 * mp.pi * v * nu_ ** 2)),
            "frac_noise_general_lf": float(mp.mpf(3) / 2 * h * c ** 3
                                           / (mp.pi ** 3 * v * k * t * nu_)),
            "frac_noise_einstein": float(h * nu_ / u_conv
                                         + c ** 3 / (8 * mp.pi * nu_ ** 2 * v))}


def quartz(preset: dict[str, float]) -> dict[str, float]:
    c, t = mp.mpf(preset["c_ph"]), mp.mpf(preset["temperature"])
    a_ph = 9 * mp.mpf(H) * c ** 3 / (4 * mp.pi ** 3 * mp.mpf(K) * t)
    h_m1 = a_ph / (4 * mp.mpf(preset["q_factor"]) ** 4
                   * mp.mpf(preset["active_volume"]))
    return {"a_ph": float(a_ph), "h_minus_1": float(h_m1),
            "a_ph_over_reference": float(a_ph / mp.mpf(preset["reference_a_ph"])),
            "h_minus_1_over_reference":
                float(h_m1 / mp.mpf(preset["reference_h_minus_1"]))}


def farey(order: int) -> list[Fraction]:
    return sorted({Fraction(p, q) for q in range(1, order + 1)
                   for p in range(q + 1)})


def ford_touch(mid: Fraction, other: Fraction) -> tuple[Fraction, Fraction]:
    """Point where the Ford circles at mid and other touch, from the two
    centres and radii; asserts that the circles are tangent."""
    r1 = Fraction(1, 2 * mid.denominator ** 2)
    r2 = Fraction(1, 2 * other.denominator ** 2)
    dx, dy = other - mid, r2 - r1
    if dx * dx + dy * dy != (r1 + r2) ** 2:
        raise ArithmeticError(f"Ford circles at {mid} and {other} not tangent")
    w = r1 / (r1 + r2)
    return mid + w * dx, r1 + w * dy


def _saw(v: Fraction) -> Fraction:
    return Fraction(0) if v.denominator == 1 else v - math.floor(v) - Fraction(1, 2)


def dedekind(p: int, q: int) -> dict[str, Fraction]:
    classical = sum((_saw(Fraction(l, q)) * _saw(Fraction(p * l, q))
                     for l in range(1, q)), Fraction(0))
    paper = sum((Fraction(l, q) * (Fraction(p * l, q) % 1)
                 for l in range(1, q + 1)), Fraction(0))
    return {"classical": classical, "paper": paper}


def eta(tau: tuple[float, float]) -> complex:
    return complex(mp.eta(mp.mpc(*tau)))


def sweep_grid(start: float, stop: float, points: int) -> list[float]:
    ratio = (stop / start) ** (1.0 / (points - 1))
    return [start * ratio ** i for i in range(points)]


# ---------------------------------------------------------------------------
# Expected values per operation
# ---------------------------------------------------------------------------

def expected(workload: str, ops: list) -> list:
    """Reference data for each op of one round, in op order."""
    if workload == "partition-exact":
        table = partitions_upto(max(op[1] for op in ops))
        return [table[op[1]] for op in ops]
    if workload == "thermo-sweep":
        out = []
        for op in ops:
            if op[0] == "mode":
                ref = level_sums(op[1])
                if op[1] < 2.0 * math.pi:
                    ref["dual"] = dual_scale_neg_f(op[1])
                out.append(ref)
            elif op[0] == "mellin":
                out.append(mellin_closed(op[1], op[2]))
            elif op[0] == "emissivity":
                out.append(general_emissivity(op[1], op[2]))
            else:
                ref = debye_solid(op[3], op[4], op[1], op[5])
                out.append(ref["cv_" + op[2]])
        return out
    return [_expected_cli(op) for op in ops]


def _expected_cli(op: dict):
    kind, prm = op["kind"], op["params"]
    if kind == "farey":
        return farey(prm["order"])
    if kind == "ford":
        left, mid, right = (Fraction(t) for t in prm["triple"])
        return {"left": ford_touch(mid, left), "right": ford_touch(mid, right)}
    if kind == "dedekind":
        return dedekind(prm["p"], prm["q"])
    if kind == "eta":
        return eta(prm["tau"])
    if kind == "thermo":
        return level_sums(prm["x"])
    if kind == "partition":
        return partitions_upto(prm["n"])[prm["n"]]
    if kind == "blackbody":
        return blackbody(prm["nu"], prm["temperature"], prm["volume"])
    if kind == "phonon":
        return debye_solid(prm["n_atoms"], prm["volume"], prm["temperature"],
                           prm["c_ph"])
    if kind == "quartz":
        return quartz(QUARTZ_PRESET)
    if kind == "mellin":
        return mellin_closed(prm["kind"], prm["s"])
    if kind == "sweep-energy":
        grid = sweep_grid(prm["start"], prm["stop"], prm["points"])
        return {"grid": grid, "e": [level_sums(x)["e"] for x in grid]}
    if kind == "sweep-occupation":
        grid = [prm["start"] + (prm["stop"] - prm["start"]) * i / (prm["points"] - 1)
                for i in range(prm["points"])]
        return {"grid": grid, "n": [level_sums(x)["n"] if x > 0 else None
                                    for x in grid]}
    raise ValueError(f"unknown CLI op {kind!r}")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _close(problems: list[str], what: str, got, want: float, rel: float) -> None:
    ok = (isinstance(got, (int, float)) and not isinstance(got, bool)
          and math.isfinite(got) and abs(got - want) <= rel * abs(want))
    if not ok:
        problems.append(f"{what}: got {got!r}, want {want!r} (rel {rel:g})")


def _equal(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def check_api(op: list, out, ref) -> list[str]:
    """Problems with one in-process op's output."""
    problems: list[str] = []
    kind = op[0]
    if kind in ("p", "oracle"):
        value = out[0] if kind == "p" else out
        _equal(problems, f"p({op[1]})", value, ref)
        for mod, res in CONGRUENCES:
            if op[1] % mod == res and (not isinstance(value, int) or value % mod):
                problems.append(f"p({op[1]}) = {value!r} is not 0 mod {mod}")
    elif kind == "mode":
        x = op[1]
        f, n, e, s_over_k, s_series, fluct, z = out
        for what, got, key in (("F/kT", f, "f"), ("N", n, "n"), ("E/kT", e, "e"),
                               ("S/k", s_over_k, "s"), ("entropy", s_series, "s"),
                               ("fluctuation", fluct, "fluct")):
            _close(problems, f"{what} at x={x!r}", got, ref[key], REL)
        if "dual" in ref and isinstance(f, float):
            _close(problems, f"dual-scale law at x={x!r}", -f, ref["dual"], REL)
        if op[2]:
            log_z = math.log(z) if isinstance(z, float) and z > 0 else z
            if not (isinstance(log_z, float) and math.isfinite(log_z)
                    and abs(log_z + ref["f"]) <= REL):
                problems.append(f"ln Z at x={x!r}: got {log_z!r}, "
                                f"want {-ref['f']!r} (abs {REL:g})")
    elif kind == "mellin":
        integral, closed = out
        _close(problems, f"{op[1]} closed form at s={op[2]!r}", closed, ref, REL)
        _close(problems, f"{op[1]} Mellin integral at s={op[2]!r}", integral,
               ref, MELLIN_REL)
    elif kind in ("emissivity", "cv"):
        _close(problems, f"{kind} at {op[1]!r}", out, ref, REL)
    else:
        problems.append(f"unknown op {op!r}")
    return problems


def cli_failed(op: dict, code, stdout: str, ref) -> bool:
    """True when a CLI op failed outright: nonzero exit or no JSON document.
    The occupation sweep also counts as failed until every cell at x = 0 is
    an annotated null and every other row is right."""
    if code != 0:
        return True
    try:
        json.loads(stdout)
    except (TypeError, ValueError):
        return True
    if op["kind"] == "sweep-occupation":
        return bool(check_cli(op, stdout, ref))
    return False


def check_cli(op: dict, stdout: str, ref) -> list[str]:
    """Problems with one CLI op's JSON document."""
    problems: list[str] = []
    doc = json.loads(stdout)
    kind, prm = op["kind"], op["params"]
    command = "mellin-check" if kind == "mellin" else op["argv"][0]
    if doc.get("schema") != 1 or doc.get("command") != command:
        return [f"{kind}: bad header {doc.get('schema')!r} {doc.get('command')!r}"]
    rows = doc.get("rows") or []
    if not rows or not all(isinstance(r, dict) for r in rows):
        return [f"{kind}: no rows"]
    row = rows[0]
    if kind == "farey":
        got = [(r.get("numerator"), r.get("denominator")) for r in rows]
        _equal(problems, "farey", got, [(f.numerator, f.denominator) for f in ref])
        for r, f in zip(rows, ref):
            _equal(problems, f"farey value {f}", r.get("value"),
                   f.numerator / f.denominator)
    elif kind == "ford":
        by_point = {r.get("point"): r for r in rows}
        for side in ("left", "right"):
            r, (re, im) = by_point.get(side, {}), ref[side]
            _equal(problems, f"ford {side}", (r.get("re"), r.get("im")),
                   (_frac(re), _frac(im)))
            _equal(problems, f"ford {side} floats",
                   (r.get("re_float"), r.get("im_float")), (float(re), float(im)))
    elif kind == "dedekind":
        got = {r.get("convention"): r for r in rows}
        for conv, want in ref.items():
            r = got.get(conv, {})
            _equal(problems, f"dedekind {conv}", r.get("value"), _frac(want))
            _equal(problems, f"dedekind {conv} float", r.get("value_float"),
                   float(want))
    elif kind == "eta":
        got = complex(row.get("eta_re", math.nan), row.get("eta_im", math.nan))
        if not abs(got - ref) <= REL * abs(ref):
            problems.append(f"eta: got {got!r}, want {ref!r}")
        res = row.get("check_residual")
        if not (isinstance(res, float) and 0.0 <= res <= ETA_RESIDUAL):
            problems.append(f"eta inversion residual {res!r}")
    elif kind == "thermo":
        for key, want in (("f_over_kT", "f"), ("n_occ", "n"), ("e_over_kT", "e"),
                          ("s_over_k", "s")):
            _close(problems, f"thermo {key}", row.get(key), ref[want], REL)
    elif kind == "partition":
        _equal(problems, "partition value", row.get("value"), ref)
        _equal(problems, "partition oracle", row.get("oracle"), ref)
        _equal(problems, "partition match", row.get("match"), True)
    elif kind in ("blackbody", "phonon", "quartz"):
        for key, want in ref.items():
            _close(problems, f"{kind} {key}", row.get(key), want, REL)
        if kind == "quartz":
            for key in ("c_ph", "q_factor", "carrier", "active_volume",
                        "temperature", "reference_a_ph", "reference_h_minus_1"):
                _equal(problems, f"quartz {key}", row.get(key), QUARTZ_PRESET[key])
    elif kind == "mellin":
        _close(problems, "mellin closed_form", row.get("closed_form"), ref, REL)
        _close(problems, "mellin integral", row.get("integral"), ref, MELLIN_REL)
    elif kind == "sweep-energy":
        _equal(problems, "sweep rows", len(rows), len(ref["grid"]))
        for r, x, e in zip(rows, ref["grid"], ref["e"]):
            xs = r.get("x")
            _close(problems, "sweep x", xs, x, GRID_REL)
            if not isinstance(xs, float):
                continue
            _close(problems, f"sweep exact at {xs!r}", r.get("exact"), e, REL)
            _close(problems, f"sweep lowfreq at {xs!r}", r.get("lowfreq"),
                   math.pi ** 2 / (6.0 * xs) - 0.5 + xs / 24.0, REL)
            _close(problems, f"sweep planck at {xs!r}", r.get("planck"),
                   xs / math.expm1(xs), REL)
            _close(problems, f"sweep zeropoint at {xs!r}", r.get("zeropoint"),
                   xs / math.tanh(0.5 * xs), REL)
    elif kind == "sweep-occupation":
        _equal(problems, "sweep rows", len(rows), len(ref["grid"]))
        for r, x, n in zip(rows, ref["grid"], ref["n"]):
            if x:
                _close(problems, "sweep x", r.get("x"), x, GRID_REL)
            else:
                _equal(problems, "sweep x", r.get("x"), 0.0)
            if n is None:
                cells = [r.get(m) for m in ("exact", "lowfreq", "conventional")]
                if cells != [None] * 3 or not r.get("errors"):
                    problems.append(f"sweep at x=0: {r!r} is not annotated nulls")
                continue
            _close(problems, f"sweep exact at {x!r}", r.get("exact"), n, REL)
            _close(problems, f"sweep lowfreq at {x!r}", r.get("lowfreq"),
                   (float(mp.euler) - math.log(x)) / x, REL)
            _close(problems, f"sweep conventional at {x!r}",
                   r.get("conventional"), 1.0 / math.expm1(x), REL)
    else:
        problems.append(f"unknown CLI op {kind!r}")
    return problems
