#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 benchmark/stats.py --runs 10 --write benchmark/figures.json

For each workload, runs run.py once per seed (seeds first-seed,
first-seed+1, ...) for BENCHMARK.json's run_seconds, one run at a time, and
reports for every metric the median, the first
and third quartiles (statistics.quantiles with n=4) and the spread
(q3 - q1) / median, plus the same for the reference loop and the share of
failed operations.  With --trace 1 it summarises the per-layer metrics.
--write stores the summary as JSON; README.md quotes the stored figures,
and this command rebuilds them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(lines[-2])["reference_loop_s"], json.loads(lines[-1])


def summarise(workload: str, seeds: list[int], seconds: float, trace: int) -> dict:
    results, loops = [], []
    for seed in seeds:
        loop, result = run_once(workload, seed, seconds, trace)
        loops.append(loop)
        results.append(result)
        shown = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                         if not trace or k.startswith("trace."))
        print(f"  {workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {shown}",
              file=sys.stderr, flush=True)
    metrics = {}
    for name, first in results[0]["metrics"].items():
        metrics[name] = {"unit": first["unit"],
                         **quartiles([r["metrics"][name]["value"] for r in results])}
    return {"seeds": seeds, "seconds": seconds,
            "all_correct": all(r["correct"] for r in results),
            "failed_share": sorted({f"{r['failed']}/{r['attempted']}" for r in results}),
            "metrics": metrics,
            "reference_loop_s": quartiles([x for lp in loops
                                           for x in (lp["before"], lp["after"])])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    summary = {w: summarise(w, seeds, SECONDS, args.trace)
               for w in workloads.WORKLOADS}
    for w, s in summary.items():
        print(f"\n{w}: correct={s['all_correct']} failed share {s['failed_share']}")
        print("| metric | unit | median | q1 | q3 | spread |")
        print("|---|---|---|---|---|---|")
        for name, m in {**s["metrics"], "reference loop": {
                "unit": "s", **s["reference_loop_s"]}}.items():
            print(f"| `{name}` | {m['unit']} | {m['median']:.4g} | {m['q1']:.4g} "
                  f"| {m['q3']:.4g} | {100 * m['spread']:.1f}% |")
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
