#!/usr/bin/env python3
"""End-to-end benchmark of eulergas.

    python3 benchmark/run.py --workload cli-session --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory):

  cli-session      closed loop of fresh `python -m eulergas.cli ... --format
                   json` processes over all eleven subcommands, plus one
                   sweep that fails today; one op is one process
  partition-exact  rademacher_p over a small-n range and a ladder of large
                   n, then the coin-counting oracle; one op is one call
  thermo-sweep     per-mode thermodynamics on a log grid of x, Mellin
                   checks, general emissivity and Debye specific heat; one
                   op is one grid point or one call

Each round of fixed work runs in a fresh interpreter, so every program cache
starts empty; rounds repeat until --seconds is used up (the CLI session
makes at least two passes).  Every output is checked against references
computed in this process, outside the timed region, by reference.py.

With --trace 0 the last line of stdout holds the end-to-end metrics
setup_s, wall_s, op_p50_s and peak_rss_mb.  With --trace 1 one traced round
of each workload is run with every public eulergas function wrapped, and
the last line holds the per-layer metrics plus the tracing overhead of the
chosen workload.  The line before the last gives the time of a fixed
pure-Python loop before and after the workload, to tell host drift apart
from a change in the program; run records and spans go to benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_ROUNDS = {"cli-session": 2, "partition-exact": 1, "thermo-sweep": 1}
SETUP_PROBES = 11            # fresh interpreters timed per run for setup_s
RUN_LIMIT_S = 170.0          # every child is stopped before this
REFERENCE_LOOP_N = 2_000_000

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
              "peak_rss_mb": "MiB"}

# Per-layer metrics of the traced run: (name, unit, segment it is read
# from, traced function, aggregate field).  Each layer is read on the
# workload that exercises it, so a metric means the same whichever
# workload the traced run is for.
LAYERS = [
    ("arith.sigma_table.s", "s", "thermo-sweep", "arith.sigma_table", "s"),
    ("arith.sigma_table.calls", "count", "thermo-sweep", "arith.sigma_table", "calls"),
    ("arith.dedekind_sum.s", "s", "partition-exact", "arith.dedekind_sum", "s"),
    ("arith.dedekind_sum.calls", "count", "partition-exact", "arith.dedekind_sum", "calls"),
    ("arith.kloosterman_phases.s", "s", "partition-exact", "arith.kloosterman_phases", "s"),
    ("arith.kloosterman_phases.calls", "count", "partition-exact",
     "arith.kloosterman_phases", "calls"),
    ("arith.partition_count_oracle.s", "s", "partition-exact",
     "arith.partition_count_oracle", "s"),
    ("arith.riemann_zeta.s", "s", "thermo-sweep", "arith.riemann_zeta", "s"),
    ("arith.riemann_zeta.calls", "count", "thermo-sweep", "arith.riemann_zeta", "calls"),
    ("modular.rademacher_p.self_s", "s", "partition-exact", "modular.rademacher_p", "self_s"),
    ("modular.rademacher_p.first_s", "s", "partition-exact", "modular.rademacher_p", "first_s"),
    ("modular.rademacher_p.terms", "count", "partition-exact", "modular.rademacher_p", "terms"),
    ("modular.partition_generating.s", "s", "thermo-sweep",
     "modular.partition_generating", "s"),
    ("thermo.thermo_per_mode.s", "s", "thermo-sweep", "thermo.thermo_per_mode", "s"),
    ("thermo.thermo_per_mode.calls", "count", "thermo-sweep", "thermo.thermo_per_mode", "calls"),
    ("thermo.thermo_per_mode.first_s", "s", "thermo-sweep", "thermo.thermo_per_mode", "first_s"),
    ("thermo.thermo_per_mode.terms", "count", "thermo-sweep", "thermo.thermo_per_mode", "terms"),
    ("thermo.mellin_check.self_s", "s", "thermo-sweep", "thermo.mellin_check", "self_s"),
    ("radiation.emissivity.self_s", "s", "thermo-sweep", "radiation.emissivity", "self_s"),
    ("phonon.debye_function.s", "s", "thermo-sweep", "phonon.debye_function", "s"),
]
OTHER_LAYERS = {"import.eulergas_s": "s", "import.modules": "count",
                "cli.main_s": "s", "cli.stdout_bytes": "B",
                "trace.wall_s": "s", "trace.untraced_wall_s": "s",
                "trace.overhead_s": "s", "trace.spans": "count",
                "trace.span_cost_s": "s", "trace.estimated_overhead_s": "s"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result line is printed."""


class Runner:
    """Starts the program's processes, each with a deadline."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def _run(self, argv: list[str], stdin: bytes | None = None):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run limit reached")
        try:
            return subprocess.run([sys.executable, *argv], input=stdin,
                                  env=self.env, cwd=ROOT, capture_output=True,
                                  timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[:3]} timed out") from exc

    def setup_probe(self) -> float:
        """Seconds from starting a fresh interpreter to the end of its
        `import eulergas`."""
        code = ("import time; import eulergas; "
                "print(time.monotonic()); print(eulergas.__file__)")
        t0 = time.monotonic()
        proc = self._run(["-c", code])
        lines = proc.stdout.decode().split()
        if proc.returncode or len(lines) != 2 or SRC.resolve() not in \
                Path(lines[1]).resolve().parents:
            raise BenchError(f"import eulergas failed: {proc.stderr.decode()[-2000:]}")
        return float(lines[0]) - t0

    def worker(self, workload: str, ops: list, trace: bool = False,
               spans_path: Path | None = None) -> dict:
        """One round in a fresh worker.py; the CLI session runs its argv
        through eulergas.cli.main in one warm interpreter."""
        kind = "cli" if workload == "cli-session" else "api"
        job = {"src": str(SRC), "kind": kind, "ops": ops, "trace": trace,
               "spans_path": str(spans_path) if spans_path else None}
        proc = self._run([str(HERE / "worker.py")], json.dumps(job).encode())
        if proc.returncode:
            raise BenchError(f"worker exited {proc.returncode}: "
                             f"{proc.stderr.decode()[-2000:]}")
        return json.loads(proc.stdout.decode().splitlines()[-1])

    def cli_pass(self, ops: list[dict]) -> dict:
        """One pass of fresh CLI processes, in the worker's result shape."""
        results = []
        start = time.perf_counter()
        for op in ops:
            a = time.perf_counter()
            proc = self._run(["-m", "eulergas.cli", *op["argv"]])
            results.append([time.perf_counter() - a,
                            [proc.returncode, proc.stdout.decode(),
                             proc.stderr.decode()], None])
        return {"wall_s": time.perf_counter() - start, "ops": results}


def reference_loop_s() -> float:
    """A fixed pure-Python loop; its time tracks the host, not the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP_N):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def build_ops(workload: str, seed: int) -> list:
    return {"cli-session": workloads.cli_ops,
            "partition-exact": workloads.partition_ops,
            "thermo-sweep": workloads.thermo_ops}[workload](seed)


def judge(workload: str, ops: list, refs: list, rounds: list[dict]):
    """(attempted, failed, problems) over whole rounds of one workload."""
    attempted = failed = 0
    problems: list[str] = []
    stdout_seen: dict[int, set[str]] = {}
    for rnd in rounds:
        for i, (op, ref, (_, out, error)) in enumerate(zip(ops, refs, rnd["ops"])):
            attempted += 1
            if workload != "cli-session":
                if error is not None:
                    failed += 1
                else:
                    problems += reference.check_api(op, out, ref)
                continue
            code, stdout = (None, "") if error is not None else out[:2]
            if reference.cli_failed(op, code, stdout, ref):
                failed += 1
                continue
            problems += reference.check_cli(op, stdout, ref)
            stdout_seen.setdefault(i, set()).add(stdout)
    for i, seen in stdout_seen.items():
        if len(seen) > 1:
            problems.append(f"{ops[i]['argv']}: stdout differs between passes")
    return attempted, failed, problems


def measure(runner: Runner, workload: str, ops: list, seconds: float):
    """Untraced rounds for `seconds`, with a set-up probe before the first
    round and after every round, topped up to SETUP_PROBES at the end."""
    setups = [runner.setup_probe()]
    rounds, costs = [], []
    begin = time.monotonic()
    while True:
        t0 = time.monotonic()
        rounds.append(runner.cli_pass(ops) if workload == "cli-session"
                      else runner.worker(workload, ops))
        setups.append(runner.setup_probe())
        costs.append(time.monotonic() - t0)
        if (len(rounds) >= MIN_ROUNDS[workload]
                and time.monotonic() - begin + statistics.median(costs) > seconds):
            break
    while len(setups) < SETUP_PROBES:
        setups.append(runner.setup_probe())
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "op_p50_s": statistics.median(t for r in rounds for t, _, _ in r["ops"]),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    record = {"setup_samples_s": setups,
              "round_wall_s": [r["wall_s"] for r in rounds],
              "op_s": [[t for t, _, _ in r["ops"]] for r in rounds]}
    return metrics, rounds, record


def traced(runner: Runner, workload: str, seed: int, seconds: float,
           all_ops: dict, all_refs: dict):
    """An untraced round of `workload`, then one traced round of every
    workload, then untraced and traced rounds of `workload` in turn while
    another pair fits in `seconds`; per-layer metrics plus the tracing
    overhead, both measured (median traced minus median untraced round)
    and estimated (spans of the traced round times the calibrated cost of
    one wrapper)."""
    ops = all_ops[workload]
    begin = time.monotonic()
    plain = [runner.worker(workload, ops)]
    pair = time.monotonic() - begin
    segs = {}
    for w in workloads.WORKLOADS:
        t0 = time.monotonic()
        segs[w] = runner.worker(w, all_ops[w], True,
                                OUT / f"spans-{w}-seed{seed}.jsonl")
        if w == workload:
            pair += time.monotonic() - t0
    mine = [segs[workload]]
    while time.monotonic() - begin + pair <= seconds:
        plain.append(runner.worker(workload, ops))
        mine.append(runner.worker(workload, ops, True))
    problems: list[str] = []
    for w, seg in segs.items():
        if w != workload:
            problems += judge(w, all_ops[w], all_refs[w], [seg])[2]
    attempted, failed, own = judge(workload, ops, all_refs[workload], plain + mine)
    problems += own

    metrics: dict[str, float] = {}
    for name, _, seg, fn, field in LAYERS:
        metrics[name] = segs[seg]["layers"].get(fn, {}).get(field, 0)
    cli = segs["cli-session"]
    metrics["import.eulergas_s"] = statistics.median(
        s["import_s"] for s in (*plain, *segs.values()))
    metrics["import.modules"] = plain[0]["modules"]
    metrics["cli.main_s"] = statistics.median(t for t, _, _ in cli["ops"])
    metrics["cli.stdout_bytes"] = sum(len(out[1].encode()) for _, out, err in cli["ops"]
                                      if err is None)
    metrics["trace.wall_s"] = statistics.median(s["wall_s"] for s in mine)
    metrics["trace.untraced_wall_s"] = statistics.median(s["wall_s"] for s in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["trace.spans"] = segs[workload]["spans"]
    metrics["trace.span_cost_s"] = statistics.median(s["span_cost_s"] for s in mine)
    metrics["trace.estimated_overhead_s"] = (metrics["trace.spans"]
                                             * metrics["trace.span_cost_s"])
    record = {"layers": {w: s["layers"] for w, s in segs.items()},
              "untraced_wall_s": [s["wall_s"] for s in plain],
              "traced_wall_s": [s["wall_s"] for s in mine]}
    return metrics, attempted, failed, problems, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eulergas" / "__init__.py").is_file():
        sys.stderr.write(f"no eulergas sources under {SRC}; run from a "
                         "checkout of the repository\n")
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner()
    names = workloads.WORKLOADS if args.trace else (args.workload,)
    all_ops = {w: build_ops(w, args.seed) for w in names}
    t0 = time.perf_counter()
    all_refs = {w: reference.expected(w, all_ops[w]) for w in names}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "reference_s": time.perf_counter() - t0}

    loop_before = reference_loop_s()
    try:
        if args.trace:
            metrics, attempted, failed, problems, extra = traced(
                runner, args.workload, args.seed, args.seconds, all_ops, all_refs)
            units = {**{m[0]: m[1] for m in LAYERS}, **OTHER_LAYERS}
        else:
            ops = all_ops[args.workload]
            metrics, rounds, extra = measure(runner, args.workload, ops, args.seconds)
            attempted, failed, problems = judge(args.workload, ops,
                                                all_refs[args.workload], rounds)
            units = END_TO_END
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    loop_after = reference_loop_s()

    for p in problems[:20]:
        sys.stderr.write(f"check failed: {p}\n")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record.update(extra, reference_loop_s=[loop_before, loop_after],
                  problems=problems, result=result)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"reference_loop_s": {"before": loop_before,
                                           "after": loop_after}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
