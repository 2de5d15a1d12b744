"""Seeded inputs of the three benchmark workloads.

Everything the program receives is generated here from the workload seed:
CLI argument values drawn from narrow bands, the start of the small-n range
and the ladder n of the exact-partition workload, and the jitter on the x,
nu and T grids of the thermodynamics sweep.  The bands are narrow so that
the amount of work, and hence the timings, hardly depend on the seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("cli-session", "partition-exact", "thermo-sweep")

# Fails today with a ZeroDivisionError traceback in the `conventional`
# column; counted as a failed operation until it succeeds.  Independent of
# the seed on purpose.
FAILING_ARGV = ["sweep", "--quantity", "occupation", "--start", "0",
                "--stop", "1", "--points", "11", "--format", "json"]

# Debye solid of the thermo sweep and of `phonon` in the CLI session.
N_ATOMS = 6e23
SOLID_VOLUME = 1e-5
SOLID_C_PH = 3500.0
CAVITY_TEMPERATURE = 300.0
CAVITY_VOLUME = 1.0


def _num(v: float) -> str:
    """Short decimal text; the program and the references both parse it."""
    return format(v, ".6g")


def _band(rng: random.Random, lo: float, hi: float) -> float:
    return float(_num(rng.uniform(lo, hi)))


def _in_class(rng: random.Random, lo: int, hi: int, mod: int, res: int) -> int:
    return rng.choice([n for n in range(lo, hi + 1) if n % mod == res])


def cli_ops(seed: int) -> list[dict]:
    """One pass of the CLI session: all eleven subcommands, then the
    failing sweep.  Each op is {"kind", "argv", "params"}."""
    rng = random.Random(f"cli-session/{seed}")
    ops: list[dict] = []

    def add(op_kind: str, argv: list[str], **params) -> None:
        ops.append({"kind": op_kind, "argv": argv + ["--format", "json"],
                    "params": params})

    order = rng.randint(3, 5)
    add("farey", ["farey", "--order", str(order)], order=order)

    ford_order = rng.randint(2, 4)
    seq = sorted({Fraction(p, q) for q in range(1, ford_order + 1)
                  for p in range(q + 1)})
    i = rng.randrange(1, len(seq) - 1)
    triple = [f"{f.numerator}/{f.denominator}" for f in seq[i - 1:i + 2]]
    add("ford", ["ford", "--triple", ",".join(triple)], triple=triple)

    q = rng.randint(10, 14)
    p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
    add("dedekind", ["dedekind", "--p", str(p), "--q", str(q)], p=p, q=q)

    tau = (_band(rng, 0.25, 0.35), _band(rng, 0.75, 0.85))
    add("eta", ["eta", "--tau", f"{_num(tau[0])},{_num(tau[1])}",
                "--check", "inversion"], tau=tau)

    x = _band(rng, 0.8, 1.25)
    add("thermo", ["thermo", "--x", _num(x)], x=x)

    n = rng.randint(980, 1020)
    add("partition", ["partition", "--n", str(n), "--oracle-check"], n=n)

    nu = _band(rng, 0.8e12, 1.25e12)
    temp = _band(rng, 280.0, 320.0)
    add("blackbody", ["blackbody", "--nu", _num(nu), "--temperature",
                      _num(temp)], nu=nu, temperature=temp, volume=1.0)

    temp = _band(rng, 70.0, 85.0)
    c_ph = _band(rng, 3300.0, 3700.0)
    add("phonon", ["phonon", "--n-atoms", _num(N_ATOMS), "--volume",
                   _num(SOLID_VOLUME), "--temperature", _num(temp),
                   "--c-ph", _num(c_ph)],
        n_atoms=N_ATOMS, volume=SOLID_VOLUME, temperature=temp, c_ph=c_ph)

    add("quartz", ["quartz", "--preset", "p5-5mhz"])

    s = _band(rng, 1.8, 2.5)
    add("mellin", ["mellin-check", "--s", _num(s), "--kind", "free-energy"],
        s=s, kind="free-energy")

    start = _band(rng, 0.8e-3, 1.25e-3)
    stop = _band(rng, 18.0, 22.0)
    add("sweep-energy", ["sweep", "--quantity", "energy", "--start",
                         _num(start), "--stop", _num(stop), "--points", "50",
                         "--scale", "log"], start=start, stop=stop, points=50)

    ops.append({"kind": "sweep-occupation", "argv": list(FAILING_ARGV),
                "params": {"start": 0.0, "stop": 1.0, "points": 11}})
    return ops


def partition_ops(seed: int) -> list[list]:
    """rademacher_p over 150 contiguous small n, a ladder of three large n
    (one in each of Ramanujan's congruence classes mod 5, 7 and 11, up to
    about 5e3), then the coin-counting oracle at one n of a few thousand."""
    rng = random.Random(f"partition-exact/{seed}")
    n0 = rng.randint(100, 119)
    ops: list[list] = [["p", n] for n in range(n0, n0 + 150)]
    for lo, hi, mod, res in ((1150, 1250, 5, 4), (2350, 2450, 7, 5),
                             (4750, 4850, 11, 6)):
        ops.append(["p", _in_class(rng, lo, hi, mod, res)])
    ops.append(["oracle", rng.randint(2500, 2600)])
    return ops


def _jittered_log_grid(rng: random.Random, lo: float, hi: float, points: int,
                       jitter: float) -> list[float]:
    """Ascending log grid with each point moved by up to `jitter` of a step;
    the first point moves by at most 0.3% so the cold fill hardly varies."""
    step = math.log(hi / lo) / (points - 1)
    out = []
    for i in range(points):
        j = 0.003 if i == 0 else jitter * step
        out.append(lo * math.exp(i * step + rng.uniform(-j, j)))
    return out


# Z(e^-x) overflows a double for x below about 2.35e-3.
GENERATING_X_MIN = 2.5e-3


def thermo_ops(seed: int) -> list[list]:
    """Per-mode thermodynamics on an ascending log grid of x from 1e-4 to
    about 20, the three Mellin checks at a few s, the general emissivity on
    a frequency grid at 300 K, and the Debye specific heat in both models on
    a temperature grid."""
    rng = random.Random(f"thermo-sweep/{seed}")
    ops: list[list] = []
    for x in _jittered_log_grid(rng, 1e-4, 20.0, 96, 0.25):
        ops.append(["mode", x, x >= GENERATING_X_MIN])
    for kind, centres in (("free-energy", (2.0, 3.0, 4.5)),
                          ("occupation", (2.0, 3.0, 4.5)),
                          ("energy", (3.0, 4.0, 5.5))):
        for c in centres:
            ops.append(["mellin", kind, c + rng.uniform(-0.05, 0.05)])
    for nu in _jittered_log_grid(rng, 1e10, 1e14, 20, 0.25):
        ops.append(["emissivity", nu, CAVITY_TEMPERATURE, CAVITY_VOLUME])
    for temp in _jittered_log_grid(rng, 5.0, 500.0, 20, 0.25):
        for model in ("conventional", "general"):
            ops.append(["cv", temp, model, N_ATOMS, SOLID_VOLUME, SOLID_C_PH])
    return ops
