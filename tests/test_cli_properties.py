"""Whatever the flags, the CLI exits 0, 1 or 2 without a traceback and prints
valid JSON exactly when it exits 0.  Kept apart from test_cli.py, which must
run without hypothesis."""

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulergas.cli import build_parser, main

# Caps that keep each example within milliseconds: partition --n <= 2000
# (the Rademacher series and the recurrence table stay small), farey
# --order <= 60, partition sweeps of at most 30 values and sweeps of at
# most 12 points.
_MAX_N = 2000
_MAX_ORDER = 60
_MAX_SPAN = 30
_MAX_POINTS = 12

_COMMANDS = next(a.choices for a in build_parser()._actions
                 if a.dest == "command")

_SPECIAL_FLOATS = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan,
                   1e300, -1e300, 1e-300, -1e-300, 1e-310, -1e-310,
                   5e-324, -5e-324, sys.float_info.max)
_FLOATS = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats())
# --constants: a missing file, a directory, or none
_CONSTANTS = (None, str(Path(__file__).with_name("no-such-constants.cfg")),
              str(Path(__file__).parent))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@st.composite
def _cli_argv(draw):
    def num(flag):
        return f"--{flag}={draw(_FLOATS)!r}"

    def integer(flag, lo, hi):
        return f"--{flag}={draw(st.integers(lo, hi))}"

    def choice(flag, options):
        return f"--{flag}={draw(st.sampled_from(options))}"

    def fraction():
        return f"{draw(st.integers(-3, 13))}/{draw(st.integers(-3, 13))}"

    command = draw(st.sampled_from(sorted(_COMMANDS)))
    if command == "partition":
        argv = [integer("n", -3, _MAX_N),
                choice("method", ("rademacher", "oracle", "leading", "asymptotic"))]
        if draw(st.booleans()):
            argv.append("--oracle-check")
    elif command == "farey":
        argv = [integer("order", -2, _MAX_ORDER)]
    elif command == "ford":
        argv = ([f"--fraction={fraction()}"] if draw(st.booleans())
                else [f"--triple={fraction()},{fraction()},{fraction()}"])
    elif command == "dedekind":
        argv = [integer("p", -3, 300), integer("q", -3, 300),
                choice("convention", ("classical", "paper", "both"))]
    elif command == "eta":
        argv = [f"--tau={draw(_FLOATS)!r},{draw(_FLOATS)!r}",
                choice("check", ("none", "shift", "inversion"))]
    elif command == "thermo":
        argv = [num("x")]
    elif command == "blackbody":
        argv = [num("nu"), num("temperature"), num("volume")]
    elif command == "phonon":
        argv = [num("n-atoms"), num("volume"), num("temperature")]
        argv += ([num("c-ph")] if draw(st.booleans())
                 else [num("c-transverse"), num("c-longitudinal")])
    elif command == "quartz":
        argv = (["--preset=p5-5mhz"] if draw(st.booleans())
                else [num(f) for f in ("q-factor", "carrier", "volume",
                                       "temperature", "c-ph")])
    elif command == "mellin-check":
        argv = [num("s"), choice("kind", ("free-energy", "occupation", "energy"))]
    else:
        quantity = draw(st.sampled_from(("energy", "free-energy", "entropy",
                                         "occupation", "emissivity",
                                         "frac-noise", "partition")))
        argv = [f"--quantity={quantity}"]
        if quantity == "partition":
            start = draw(st.integers(-3, _MAX_N))
            stop = start + draw(st.integers(-2, _MAX_SPAN))
            argv += [f"--start={start}", f"--stop={stop}",
                     draw(st.sampled_from(("--start=nan", "--stop=inf",
                                           "--stop=2.5", "")))]
        else:
            argv += [num("start"), num("stop"), integer("points", -1, _MAX_POINTS),
                     choice("scale", ("linear", "log"))]
            if quantity in ("emissivity", "frac-noise"):
                argv += [num("temperature"), num("volume")]
    constants = draw(st.sampled_from(_CONSTANTS))
    if command in ("blackbody", "phonon", "quartz", "sweep") and constants:
        argv.append(f"--constants={constants}")
    return [command, *[a for a in argv if a], "--format=json"]


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cli_argv())
def test_cli_never_raises_and_emits_valid_json(argv):
    code, out, err = _run_in_process(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == ""
    assert _run_in_process(argv)[1] == out, argv
