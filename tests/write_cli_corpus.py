"""Rewrite tests/cli_corpus.jsonl, the CLI output corpus that
test_cli_bytes_match_the_corpus replays.

Each line holds one argv, its exit code and the SHA-256 of its stdout and of
its stderr, from an in-process run of eulergas.cli.main.  The argvs are the
`cli-session` ops of benchmark seeds 1-5, every subcommand in table, CSV and
JSON, and the extreme inputs of the radiation, phonon, quartz and low-frequency
sweeps.  Run from the repository root:

    PYTHONPATH=src python tests/write_cli_corpus.py

and list in CHANGES.md each argv whose line changed.
"""

import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "tests"), str(_ROOT / "benchmark")]

from test_cli import CORPUS, replay  # noqa: E402
from workloads import cli_ops  # noqa: E402

_SUBCOMMANDS = [
    ["partition", "--n", "100", "--oracle-check"],
    ["partition", "--n", "1000", "--method", "asymptotic"],
    ["farey", "--order", "5"],
    ["ford", "--fraction", "2/5"],
    ["ford", "--triple", "1/3,1/2,2/3"],
    ["dedekind", "--p", "3", "--q", "7"],
    ["eta", "--tau", "0.3,0.8", "--check", "inversion"],
    ["thermo", "--x", "0.5"],
    ["thermo", "--x", "2"],
    ["blackbody", "--nu", "1e12", "--temperature", "300"],
    ["phonon", "--n-atoms", "6e23", "--volume", "1e-5", "--temperature", "77",
     "--c-ph", "3500"],
    ["phonon", "--n-atoms", "6e23", "--volume", "1e-5", "--temperature", "300",
     "--c-transverse", "3000", "--c-longitudinal", "5000"],
    ["quartz", "--preset", "p5-5mhz"],
    ["mellin-check", "--s", "2", "--kind", "energy"],
    ["sweep", "--quantity", "energy", "--start", "0.1", "--stop", "3",
     "--points", "4"],
    ["sweep", "--quantity", "occupation", "--start", "0", "--stop", "1",
     "--points", "3"],
    ["sweep", "--quantity", "emissivity", "--start", "1e9", "--stop", "1e13",
     "--points", "3", "--scale", "log", "--temperature", "300"],
    ["sweep", "--quantity", "frac-noise", "--start", "1e9", "--stop", "1e13",
     "--points", "3", "--scale", "log", "--temperature", "300",
     "--volume", "1e-3"],
    ["sweep", "--quantity", "partition", "--start", "0", "--stop", "5"],
]

_SOLID = ["phonon", "--n-atoms", "6e23", "--volume", "1e-5", "--temperature",
          "77", "--c-ph", "3500"]
_RESONATOR = ["quartz", "--carrier", "5e6", "--volume", "1e-6",
              "--temperature", "300", "--c-ph", "3500"]


def _with(argv, flag, value):
    """argv with flag's value replaced."""
    out = list(argv)
    out[out.index(flag) + 1] = value
    return out


def _log_sweep(quantity, start, stop, points, *extra):
    return ["sweep", "--quantity", quantity, "--start", start, "--stop", stop,
            "--points", points, "--scale", "log", *extra]


_EXTREMES = [
    ["blackbody", "--nu", "1e150", "--temperature", "1e105", "--volume", "1e300"],
    ["blackbody", "--nu", "1e150", "--temperature", "1e300"],
    ["blackbody", "--nu", "1e110", "--temperature", "1e105"],
    ["blackbody", "--nu", "1e-160", "--temperature", "0.5"],
    ["blackbody", "--nu", "1e100", "--temperature", "300", "--volume", "1e300"],
    ["blackbody", "--nu", "1e20", "--temperature", "300"],
    ["blackbody", "--nu", "1e-300", "--temperature", "1e300"],
    ["blackbody", "--nu", "1e300", "--temperature", "300"],
    ["blackbody", "--nu", "1e155", "--temperature", "9.6e141"],
    _with(_SOLID, "--c-ph", "1e110"),
    _with(_SOLID, "--n-atoms", "1e300"),
    _with(_SOLID, "--n-atoms", "5e-324"),
    _with(_with(_SOLID, "--n-atoms", "1.7e308"), "--temperature", "5e-324"),
    _with(_SOLID, "--temperature", "1e300"),
    _with(_SOLID, "--temperature", "1e-310"),
    _with(_SOLID, "--volume", "1e-300"),
    [*_RESONATOR, "--q-factor", "1e-100"],
    [*_RESONATOR, "--q-factor", "1e100"],
    [*_RESONATOR, "--q-factor", "1e-300"],
    [*_RESONATOR, "--q-factor", "1e200"],
    [*_with(_RESONATOR, "--c-ph", "1e110"), "--q-factor", "2e6"],
    *(_log_sweep(q, "5e-324", "1e308", "4")
      for q in ("energy", "free-energy", "entropy", "occupation")),
    _log_sweep("emissivity", "1e-160", "1e-150", "2", "--temperature", "0.5"),
    _log_sweep("emissivity", "1e6", "1e300", "30", "--temperature", "1e-300"),
    _log_sweep("emissivity", "1e100", "1e300", "9", "--temperature", "1e105",
               "--volume", "1e300"),
    _log_sweep("frac-noise", "1e-320", "1e300", "30", "--temperature", "300"),
    _log_sweep("frac-noise", "1e100", "1e300", "9", "--temperature", "1e105",
               "--volume", "1e300"),
]


def argvs():
    """Every argv of the corpus, in corpus order."""
    session = [op["argv"] for seed in range(1, 6) for op in cli_ops(seed)]
    formats = [[*argv, "--format", fmt] for argv in _SUBCOMMANDS
               for fmt in ("table", "csv", "json")]
    extremes = [[*argv, "--format", "json"] for argv in _EXTREMES]
    return session + formats + extremes


def main():
    lines = [json.dumps(replay(argv)) + "\n" for argv in argvs()]
    CORPUS.write_text("".join(lines))
    print(f"wrote {len(lines)} argvs to {CORPUS}")


if __name__ == "__main__":
    main()
