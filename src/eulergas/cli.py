"""Command-line front end.

One subcommand per subsystem plus a generic sweep.  Data goes to stdout in
table, CSV or JSON form (JSON carries ``schema: 1`` and floats with 17
significant digits and always a "." or an exponent, so parsing the output
recovers every value bit for bit and as a float); diagnostics go to
stderr.  Exit codes: 0 success, 2 usage error (an input past a size limit
included), 1 a computation that failed: a sum that misses its certificate,
a non-finite float (overflow, or an undefined value; never an `inf` or
`nan` in the output) or a dependency that cannot be imported (mpmath, for
exact p(n)).  A failed computation's fields go to stderr as JSON.

Only `errors` is imported up front; each handler imports the subsystem it
calls, so a call loads no module its subcommand does not use: `arith`, and
with it `fractions`, only for partition counts, Farey sequences, Ford
circles and Dedekind sums.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import NamedTuple

from .errors import ConvergenceError, DomainError


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def _int_str(v: int) -> str:
    """Decimal digits of v, lifting Python's int-to-str digit limit (4300 by
    default, passed by p(n) near n = 1.5e7) for this conversion only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(v)
    finally:
        sys.set_int_max_str_digits(limit)


def _check_finite(key: str, v):
    """v itself, or ArithmeticError if v is an inf or nan float."""
    if isinstance(v, float) and not math.isfinite(v):
        raise ArithmeticError(f"{key} is not finite ({v})")
    return v


def _fmt_num(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return _int_str(v)
    text = format(float(v), ".17g")
    # an integral float gains ".0", so that JSON reads it back as a float
    return text + ".0" if text.lstrip("-").isdigit() else text


def _json_escape(s: str) -> str:
    out = []
    for ch in s:
        if ch in '"\\':
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def _json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return _fmt_num(v)
    if isinstance(v, str):
        return _json_escape(v)
    if isinstance(v, dict):
        inner = ", ".join(f"{_json_escape(k)}: {_json_value(x)}" for k, x in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    raise TypeError(f"unserializable value {v!r}")


def _emit(doc: dict, fmt: str) -> None:
    rows = doc["rows"]
    if fmt == "json":
        payload = {"schema": 1, "command": doc["command"],
                   "params": doc["params"], "rows": rows}
        sys.stdout.write(_json_value(payload) + "\n")
        return
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    if fmt == "csv":
        import csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            cells = [row.get(key) for key in columns]
            writer.writerow(["" if v is None else v if isinstance(v, str)
                             else _fmt_num(v) for v in cells])
        return
    # table
    def cell(v) -> str:
        if v is None:
            return "-"
        if isinstance(v, str):
            return v
        if isinstance(v, bool) or isinstance(v, int):
            return _fmt_num(v)
        return format(float(v), ".10g")

    text = [[cell(row.get(k)) for k in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in text)) if text else len(c)
              for i, c in enumerate(columns)]
    sys.stdout.write("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n")
    for r in text:
        sys.stdout.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------

def _parse_fraction(text: str):
    """The reduced fraction P/Q that text spells, as a Fraction."""
    from . import arith
    parts = text.split("/")
    if len(parts) != 2:
        raise DomainError(f"expected P/Q, got {text!r}")
    try:
        num, den = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise DomainError(f"expected integers in P/Q, got {text!r}") from exc
    return arith.reduced_fraction(num, den)


def _constants_from(args):
    """PhysicalConstants from --constants, or the SI values."""
    from .radiation import PhysicalConstants
    if args.constants:
        return PhysicalConstants.from_file(args.constants)
    return PhysicalConstants.si()


def _refuse_flags(args, flags, caller: str) -> None:
    """DomainError naming the first of the --flags that was given."""
    for flag in flags:
        if getattr(args, flag.replace("-", "_")) is not None:
            raise DomainError(f"{caller} takes no --{flag}")


def _frac_str(f) -> str:
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the document dict)
# ---------------------------------------------------------------------------

def _cmd_partition(args) -> dict:
    from . import arith
    row: dict = {"n": args.n, "method": args.method}
    # the oracle first, so that an n past its cap is refused before the
    # series is summed; a negative n is left to the method's own check
    oracle = (arith.partition_count_oracle(args.n)
              if args.oracle_check and args.n >= 0 else None)
    if args.method == "oracle":
        row["value"] = arith.partition_count_oracle(args.n)
    else:  # modular, and with it mpmath, only for the methods that use it
        from . import modular
        if args.method == "rademacher":
            res = modular.rademacher_p(args.n)
            row.update(value=res.value, terms_used=res.terms_used,
                       residual=res.residual, error_bound=res.error_bound)
        elif args.method == "leading":
            row["value"] = modular.leading_term_p(args.n)
        else:  # asymptotic
            row["value"] = modular.asymptotic_p(args.n)
    if args.oracle_check:
        row["oracle"] = oracle
        exact = row["value"] if isinstance(row["value"], int) else round(row["value"])
        row["match"] = exact == oracle
    return {"command": "partition", "params": {"n": args.n, "method": args.method},
            "rows": [row]}


def _cmd_farey(args) -> dict:
    from . import arith
    seq = arith.farey_sequence(args.order)
    rows = [{"index": i, "numerator": f.numerator, "denominator": f.denominator,
             "value": f.numerator / f.denominator} for i, f in enumerate(seq)]
    return {"command": "farey", "params": {"order": args.order}, "rows": rows}


def _cmd_ford(args) -> dict:
    from . import arith
    if (args.fraction is None) == (args.triple is None):
        raise DomainError("give exactly one of --fraction or --triple")
    if args.fraction is not None:
        f = _parse_fraction(args.fraction)
        c = arith.ford_circle(f)
        rows = [{"fraction": _frac_str(f), "center_x": _frac_str(c.center_x),
                 "center_y": _frac_str(c.center_y), "radius": _frac_str(c.radius),
                 "radius_float": float(c.radius)}]
        params = {"fraction": args.fraction}
    else:
        parts = args.triple.split(",")
        if len(parts) != 3:
            raise DomainError(f"expected L,M,R fractions, got {args.triple!r}")
        left, mid, right = (_parse_fraction(p) for p in parts)
        tau_l, tau_r = arith.ford_tangency(left, mid, right)
        rows = [
            {"point": "left", "re": _frac_str(tau_l.re), "im": _frac_str(tau_l.im),
             "re_float": float(tau_l.re), "im_float": float(tau_l.im)},
            {"point": "right", "re": _frac_str(tau_r.re), "im": _frac_str(tau_r.im),
             "re_float": float(tau_r.re), "im_float": float(tau_r.im)},
        ]
        params = {"triple": args.triple}
    return {"command": "ford", "params": params, "rows": rows}


def _cmd_dedekind(args) -> dict:
    from . import arith
    # "classical" and "paper": the first words of the conventions' values
    conventions = {c.value.partition("-")[0]: c
                   for c in arith.DedekindConvention}
    which = sorted(conventions) if args.convention == "both" else [args.convention]
    rows = []
    for name in which:
        val = arith.dedekind_sum(args.p, args.q, conventions[name])
        rows.append({"p": args.p, "q": args.q, "convention": name,
                     "value": _frac_str(val.value), "value_float": float(val.value)})
    return {"command": "dedekind", "params": {"p": args.p, "q": args.q},
            "rows": rows}


def _cmd_eta(args) -> dict:
    from . import thermo
    try:
        re_s, im_s = args.tau.split(",")
        tau = complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise DomainError(f"expected --tau RE,IM, got {args.tau!r}") from exc
    value = thermo.eta(tau)
    row = {"tau_re": tau.real, "tau_im": tau.imag,
           "eta_re": value.real, "eta_im": value.imag, "eta_abs": abs(value)}
    if args.check != "none":
        which = thermo.EtaTransform(args.check)
        predicted = thermo.eta_transform(tau, which)
        direct = thermo.eta(tau + 1.0 if which is thermo.EtaTransform.SHIFT
                            else -1.0 / tau)
        row["check"] = args.check
        row["check_residual"] = abs(direct - predicted) / abs(direct)
    return {"command": "eta", "params": {"tau": args.tau, "check": args.check},
            "rows": [row]}


def _cmd_thermo(args) -> dict:
    from . import thermo
    tm = thermo.thermo_per_mode(args.x)
    row = {"x": args.x, "f_over_kT": tm.f_over_kT, "n_occ": tm.n_occ,
           "e_over_kT": tm.e_over_kT, "s_over_k": tm.s_over_k,
           "terms_used": tm.terms_used, "tail_bound": tm.tail_bound}
    return {"command": "thermo", "params": {"x": args.x}, "rows": [row]}


def _cmd_blackbody(args) -> dict:
    from . import radiation
    constants = _constants_from(args)
    cavity = radiation.CavitySpec(volume=args.volume, temperature=args.temperature)
    nu = args.nu
    x = radiation.mode_x(nu, args.temperature, constants)
    u_conventional = radiation.planck_spectral_density(nu, cavity, constants)
    e_b = {f"e_b_{m.value}": radiation.emissivity(nu, cavity, constants, m)
           for m in radiation.EmissivityModel}
    # u = (4V/c) e_b, by the emissivity definition e_b = (c/4V) u
    u_general = 4.0 * cavity.volume / constants.c * e_b["e_b_general"]
    row = {"nu": nu, "x": x, "u_conventional": u_conventional,
           "u_general": u_general, **e_b}
    for m in radiation.NoiseModel:
        row[f"frac_noise_{m.value}"] = radiation.fluctuation_spectrum(
            nu, cavity, constants, m)
    return {"command": "blackbody",
            "params": {"nu": nu, "temperature": args.temperature,
                       "volume": args.volume},
            "rows": [{key.replace("-", "_"): v for key, v in row.items()}]}


def _cmd_phonon(args) -> dict:
    from . import phonon
    if args.c_ph is not None:
        _refuse_flags(args, ("c-transverse", "c-longitudinal"), "phonon with --c-ph")
    constants = _constants_from(args)
    solid = phonon.SolidSpec(n_atoms=args.n_atoms, volume=args.volume,
                             temperature=args.temperature, c_ph=args.c_ph,
                             c_transverse=args.c_transverse,
                             c_longitudinal=args.c_longitudinal)
    theta = phonon.debye_temperature(solid, constants)
    if solid.temperature < theta / 50.0:
        sys.stderr.write(
            "note: below theta_D/50 the electronic specific heat (linear in T) "
            "dominates the lattice term and is not modeled here\n")
    x_m = theta / solid.temperature
    cv_conv = phonon.specific_heat(solid, constants, phonon.DebyeModel.CONVENTIONAL)
    cv_gen = phonon.specific_heat(solid, constants, phonon.DebyeModel.GENERAL)
    eps_sq, rel_fluct = phonon.energy_fluctuation(solid, constants)
    row = {"nu_m": phonon.debye_frequency(solid), "theta_d": theta, "x_m": x_m,
           "debye_function": phonon.debye_function(x_m),
           "cv_conventional": cv_conv, "cv_general": cv_gen,
           "cv_over_dulong_petit": cv_conv / (3.0 * solid.n_atoms * constants.k),
           "epsilon_sq": eps_sq, "relative_fluctuation": rel_fluct}
    return {"command": "phonon",
            "params": {"n_atoms": args.n_atoms, "volume": args.volume,
                       "temperature": args.temperature},
            "rows": [row]}


def _cmd_quartz(args) -> dict:
    from . import phonon
    constants = _constants_from(args)
    references: dict[str, float] = {}
    flags = ("q-factor", "carrier", "volume", "temperature", "c-ph")
    if args.preset:
        _refuse_flags(args, flags, "quartz with --preset")
        spec, references = phonon.load_resonator_preset(args.preset)
    else:
        missing = [f"--{flag}" for flag in flags
                   if getattr(args, flag.replace("-", "_")) is None]
        if missing:
            raise DomainError(f"without --preset, give {', '.join(missing)}")
        spec = phonon.ResonatorSpec(q_factor=args.q_factor, carrier=args.carrier,
                                    active_volume=args.volume,
                                    temperature=args.temperature, c_ph=args.c_ph)
    result = phonon.flicker_floor(spec, constants)
    row = {"q_factor": spec.q_factor, "carrier": spec.carrier,
           "active_volume": spec.active_volume, "temperature": spec.temperature,
           "c_ph": spec.c_ph, "a_ph": result.a_ph, "h_minus_1": result.h_minus_1}
    for field in phonon.FlickerResult._fields:
        reference = references.get(f"reference_{field}")
        if reference is not None:
            row[f"reference_{field}"] = reference
            row[f"{field}_over_reference"] = getattr(result, field) / reference
    return {"command": "quartz",
            "params": {"preset": args.preset or ""}, "rows": [row]}


def _cmd_mellin(args) -> dict:
    from . import thermo
    integral, closed = thermo.mellin_check(args.s, thermo.MellinKind(args.kind))
    row = {"s": args.s, "kind": args.kind, "integral": integral,
           "closed_form": closed,
           "rel_diff": abs(integral - closed) / abs(closed)}
    return {"command": "mellin-check", "params": {"s": args.s, "kind": args.kind},
            "rows": [row]}


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

# The most grid points a sweep takes, partition grids included
_MAX_SWEEP_POINTS = 100_000


def _require_sweep_points(points: int) -> None:
    if points > _MAX_SWEEP_POINTS:
        raise DomainError(f"a sweep takes at most {_MAX_SWEEP_POINTS} "
                          f"points, got {points}")


class _GridFields(NamedTuple):
    start: float
    stop: float
    points: int
    scale: str  # linear | log


class SweepGrid(_GridFields):
    __slots__ = ()

    def __new__(cls, start: float, stop: float, points: int,
                scale: str) -> SweepGrid:
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise DomainError(f"need finite start and stop, got {start}, {stop}")
        if not start < stop:
            raise DomainError(f"need start < stop, got {start} >= {stop}")
        if points < 2:
            raise DomainError(f"need points >= 2, got {points}")
        _require_sweep_points(points)
        if scale == "log" and start <= 0.0:
            raise DomainError("log scale needs start > 0")
        return super().__new__(cls, start, stop, points, scale)

    def values(self) -> list[float]:
        """start, points - 2 inner values and stop, each finite."""
        n = self.points - 1
        if self.scale == "log":
            ratio = (self.stop / self.start) ** (1.0 / n)
            if ratio < math.inf:
                vals = [self.start * ratio ** i for i in range(n)]
            else:  # stop/start overflows: step in logs
                lo = math.log(self.start)
                step = (math.log(self.stop) - lo) / n
                vals = [self.start] + [math.exp(lo + step * i) for i in range(1, n)]
        else:
            step = (self.stop - self.start) / n
            if step < math.inf:
                vals = [self.start + step * i for i in range(n)]
            else:  # stop - start overflows: step at half scale
                half = (0.5 * self.stop - 0.5 * self.start) / n
                vals = [2.0 * (0.5 * self.start + half * i) for i in range(n)]
        return vals + [self.stop]


# --quantity choices, spelled out so that building the parser imports nothing
_SWEEP_QUANTITIES = ("energy", "free-energy", "entropy", "occupation",
                     "emissivity", "frac-noise", "partition")
# the quantities that take --temperature and --volume
_RADIATION_QUANTITIES = ("emissivity", "frac-noise")


def _sweep_columns(quantity: str, args) -> tuple[str, dict]:
    """The grid variable of a sweep quantity and {model: f(value)} for its
    columns, in default column order."""
    if quantity == "partition":
        from . import arith

        def rademacher(n):
            from . import modular  # and with it mpmath, for this column only
            return modular.rademacher_p(int(n)).value
        return "n", {"rademacher": rademacher,
                     "oracle": lambda n: arith.partition_count_oracle(int(n))}
    if quantity in _RADIATION_QUANTITIES:
        from . import radiation
        # only the radiation quantities use h, k and c
        constants = _constants_from(args)
        if args.temperature is None:
            raise DomainError(f"{quantity} sweep needs --temperature")
        cavity = radiation.CavitySpec(
            volume=1.0 if args.volume is None else args.volume,
            temperature=args.temperature)
        f, models = ((radiation.emissivity, radiation.EmissivityModel)
                     if quantity == "emissivity" else
                     (radiation.fluctuation_spectrum, radiation.NoiseModel))
        return "nu", {m.value: (lambda nu, m=m: f(nu, cavity, constants, m))
                      for m in models}
    from . import thermo
    planck = thermo.PlanckVariant
    return "x", {
        "energy": {"exact": thermo.internal_energy,
                   "lowfreq": thermo.internal_energy_lowfreq,
                   "planck": lambda x: thermo.planck_factor(x, planck.PLANCK),
                   "zeropoint": lambda x: thermo.planck_factor(x, planck.ZERO_POINT)},
        "free-energy": {"exact": thermo.free_energy,
                        "lowfreq": thermo.free_energy_lowfreq,
                        "conventional": lambda x: math.log1p(-math.exp(-x))},
        "entropy": {"exact": thermo.entropy, "lowfreq": thermo.entropy_lowfreq},
        "occupation": {"exact": thermo.occupation,
                       "lowfreq": thermo.occupation_lowfreq,
                       "conventional": thermo._bose},
    }[quantity]


def _cmd_sweep(args) -> dict:
    quantity = args.quantity
    unused = [] if quantity in _RADIATION_QUANTITIES else ["temperature", "volume", "constants"]
    if quantity == "partition":
        unused += ["points", "scale"]
    _refuse_flags(args, unused, f"{quantity} sweep")
    var, columns = _sweep_columns(quantity, args)
    models = tuple(args.models.split(",")) if args.models else tuple(columns)
    for i, m in enumerate(models):
        if m not in columns:
            raise DomainError(
                f"model {m!r} not available for {quantity}; "
                f"choose from {', '.join(columns)}")
        if m in models[:i]:
            raise DomainError(f"{quantity} sweep names model {m!r} twice")
    if quantity == "partition":
        for flag, v in (("start", args.start), ("stop", args.stop)):
            if not v.is_integer():  # nan and inf included
                raise DomainError(f"partition sweep needs an integer --{flag}, got {v!r}")
        start, stop = int(args.start), int(args.stop)
        if start >= stop:
            raise DomainError("need start < stop")
        _require_sweep_points(stop - start + 1)
        grid_values: list = list(range(start, stop + 1))
    else:
        grid = SweepGrid(args.start, args.stop,
                         50 if args.points is None else args.points,
                         args.scale or "linear")
        grid_values = grid.values()

    rows = []
    for v in grid_values:
        row: dict = {var: v}
        errors = []
        for m in models:
            try:
                row[m] = _check_finite(m, columns[m](v))
            # ValueError: DomainError, or the math domain error of a
            # conventional comparator outside x > 0
            except (ConvergenceError, ValueError, ArithmeticError) as exc:
                row[m] = None
                errors.append(f"{m}={exc}")
        if quantity == "partition" and "rademacher" in row and "oracle" in row:
            row["match"] = (row["rademacher"] == row["oracle"]
                            if None not in (row["rademacher"], row["oracle"])
                            else None)
        if errors:
            row["errors"] = "; ".join(errors)
        rows.append(row)
    return {"command": "sweep",
            "params": {"quantity": quantity, "start": args.start,
                       "stop": args.stop, "models": ",".join(models)},
            "rows": rows}


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulergas",
        description="Partition arithmetic and divisor-series statistical "
                    "mechanics: exact p(n), per-mode thermodynamics, "
                    "black-body and phonon corrections, resonator 1/f floor.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "csv", "json"),
                        default="table")
    constants = argparse.ArgumentParser(add_help=False)
    constants.add_argument("--constants", default=None, metavar="FILE",
                           help="key = value file overriding h, k, c")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", parents=[common],
                       help="partition counts by any method")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("rademacher", "oracle", "leading",
                                        "asymptotic"), default="rademacher")
    p.add_argument("--oracle-check", action="store_true")
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("farey", parents=[common], help="ordered Farey sequence")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(handler=_cmd_farey)

    p = sub.add_parser("ford", parents=[common],
                       help="circle data or tangency points")
    p.add_argument("--fraction", default=None, metavar="P/Q")
    p.add_argument("--triple", default=None, metavar="L,M,R")
    p.set_defaults(handler=_cmd_ford)

    p = sub.add_parser("dedekind", parents=[common], help="arithmetic sums s(p,q)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--convention", choices=("classical", "paper", "both"),
                   default="both")
    p.set_defaults(handler=_cmd_dedekind)

    p = sub.add_parser("eta", parents=[common],
                       help="eta function and its transformation checks")
    p.add_argument("--tau", required=True, metavar="RE,IM")
    p.add_argument("--check", choices=("none", "shift", "inversion"),
                   default="none")
    p.set_defaults(handler=_cmd_eta)

    p = sub.add_parser("thermo", parents=[common],
                       help="per-mode F, N, E, S at x = h*nu/kT")
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(handler=_cmd_thermo)

    p = sub.add_parser("blackbody", parents=[common, constants],
                       help="spectral quantities in both models")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--temperature", type=float, required=True)
    p.add_argument("--volume", type=float, default=1.0)
    p.set_defaults(handler=_cmd_blackbody)

    p = sub.add_parser("phonon", parents=[common, constants],
                       help="Debye solid in both models")
    p.add_argument("--n-atoms", type=float, required=True)
    p.add_argument("--volume", type=float, required=True)
    p.add_argument("--temperature", type=float, required=True)
    p.add_argument("--c-ph", type=float, default=None)
    p.add_argument("--c-transverse", type=float, default=None)
    p.add_argument("--c-longitudinal", type=float, default=None)
    p.set_defaults(handler=_cmd_phonon)

    p = sub.add_parser("quartz", parents=[common, constants],
                       help="resonator flicker floor")
    p.add_argument("--preset", default=None)
    p.add_argument("--q-factor", type=float, default=None)
    p.add_argument("--carrier", type=float, default=None)
    p.add_argument("--volume", type=float, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--c-ph", type=float, default=None)
    p.set_defaults(handler=_cmd_quartz)

    p = sub.add_parser("mellin-check", parents=[common],
                       help="quadrature vs Gamma*zeta*zeta closed form")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--kind", choices=("free-energy", "occupation", "energy"),
                   required=True)
    p.set_defaults(handler=_cmd_mellin)

    p = sub.add_parser("sweep", parents=[common, constants],
                       help="grid sweeps with models side by side")
    p.add_argument("--quantity", choices=_SWEEP_QUANTITIES, required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    # flags a quantity does not use are refused, so these default to None
    p.add_argument("--points", type=int, default=None,
                   help="grid points, default 50 (not for partition)")
    p.add_argument("--scale", choices=("linear", "log"), default=None,
                   help="grid scale, default linear (not for partition)")
    p.add_argument("--models", default=None,
                   help="comma-separated subset of the quantity's models")
    p.add_argument("--temperature", type=float, default=None,
                   help="emissivity and frac-noise only")
    p.add_argument("--volume", type=float, default=None,
                   help="default 1.0 (emissivity and frac-noise only)")
    p.set_defaults(handler=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc = args.handler(args)
        for fields in (doc["params"], *doc["rows"]):
            for key, v in fields.items():
                _check_finite(key, v)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ConvergenceError as exc:
        sys.stderr.write(_json_value({"schema": 1, "error": exc.fields()}) + "\n")
        return 1
    # overflow, division by zero, inf or nan; or mpmath, which exact p(n)
    # needs, cannot be imported
    except (ArithmeticError, ImportError) as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(_json_value({"schema": 1, "error": error}) + "\n")
        return 1
    _emit(doc, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
