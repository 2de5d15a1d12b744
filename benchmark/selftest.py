#!/usr/bin/env python3
"""Show that every check accepts the program's outputs and rejects them
once perturbed.

    python3 benchmark/selftest.py

Runs one round of each workload at seed 1 in a fresh worker (the CLI
session through eulergas.cli.main in one interpreter, the exact-partition
workload on a reduced op list), checks the outputs as run.py does, then
perturbs one value per check family -- p(n)+1, a thermodynamic value times
(1 + 1e-9), a Mellin integral times (1 + 1e-5), a Fraction or a byte of the
CLI output -- and requires each perturbation to be rejected.  Relative perturbations of 1e-14,
several times what a dual-scale evaluation (~2e-15) differs by, must still be
accepted.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import copy
import json
import math
import sys

import reference
import run

SEED = 1
REJECT = 1e-9
ACCEPT = 1e-14

failures: list[str] = []


def expect(label: str, problems: list[str], should_pass: bool) -> None:
    ok = (not problems) == should_pass
    print(f"{'ok  ' if ok else 'FAIL'} {label}: "
          f"{'accepted' if not problems else 'rejected'}"
          + (f" ({problems[0]})" if problems and not should_pass else ""))
    if not ok:
        failures.append(label)


def scaled(values: list, i: int, factor: float) -> list:
    out = list(values)
    out[i] = out[i] * factor
    return out


def api_cases(workload: str, ops: list, refs: list, outputs: list) -> None:
    """Unperturbed outputs pass; each family rejects a perturbed value."""
    seen: set[str] = set()
    for op, ref, (_, out, error) in zip(ops, refs, outputs):
        if error is not None:
            failures.append(f"{op!r} raised {error}")
            continue
        problems = reference.check_api(op, out, ref)
        if problems:
            expect(f"{workload} {op!r} as computed", problems, True)
        kind = op[0]
        family = (f"p-{op[1] > 1000}" if kind == "p"
                  else f"{kind}-{op[1] if kind == 'mellin' else op[2]}"
                  if kind in ("mode", "cv", "mellin") else kind)
        if family in seen:
            continue
        seen.add(family)
        label = " ".join([workload, kind, repr(op[1])]
                         + ([op[2]] if kind == "cv" else []))
        if kind == "p":
            expect(f"{label} value+1", reference.check_api(op, [out[0] + 1, out[1]], ref), False)
        elif kind == "oracle":
            expect(f"{label} value+1", reference.check_api(op, out + 1, ref), False)
        elif kind == "mode":
            names = ("F/kT", "N", "E/kT", "S/k", "entropy", "fluctuation", "Z")
            for i, name in enumerate(names):
                if out[i] is None:
                    continue
                expect(f"{label} {name}*(1+1e-9)",
                       reference.check_api(op, scaled(out, i, 1 + REJECT), ref), False)
                expect(f"{label} {name}*(1+1e-14)",
                       reference.check_api(op, scaled(out, i, 1 + ACCEPT), ref), True)
        elif kind == "mellin":
            expect(f"{label} closed form*(1+1e-9)",
                   reference.check_api(op, scaled(out, 1, 1 + REJECT), ref), False)
            expect(f"{label} integral*(1+1e-5)",
                   reference.check_api(op, scaled(out, 0, 1 + 1e-5), ref), False)
            expect(f"{label} integral*(1+1e-8)",
                   reference.check_api(op, scaled(out, 0, 1 + 1e-8), ref), True)
        else:
            expect(f"{label} value*(1+1e-9)",
                   reference.check_api(op, out * (1 + REJECT), ref), False)
            expect(f"{label} value*(1+1e-14)",
                   reference.check_api(op, out * (1 + ACCEPT), ref), True)
    # the dual-scale law on its own: F moved by 1e-9 breaks it
    for op, ref, (_, out, _) in zip(ops, refs, outputs):
        if op[0] == "mode" and "dual" in ref:
            bad = dict(ref, f=out[0] * (1 + REJECT))   # reference agrees with F
            problems = [p for p in reference.check_api(op, scaled(out, 0, 1 + REJECT), bad)
                        if "dual-scale" in p]
            expect(f"{workload} dual-scale law at x={op[1]!r}", problems, False)
            break


def edit(stdout: str, fn) -> str:
    doc = json.loads(stdout)
    fn(doc["rows"])
    return json.dumps(doc)


def times(key: str, factor: float, row: int = 0):
    def fn(rows):
        rows[row][key] *= factor
    return fn


def setitem(key: str, value, row: int = 0):
    def fn(rows):
        rows[row][key] = value
    return fn


CLI_PERTURBATIONS = {
    "farey": [("numerator of entry 1 + 1", lambda rows: rows[1].update(
        numerator=rows[1]["numerator"] + 1))],
    "ford": [("left im as 1/(q+1)", lambda rows: rows[0].update(
        im=f"1/{int(rows[0]['im'].split('/')[1]) + 1}"))],
    "dedekind": [("classical value + 1/q^2", lambda rows: rows[0].update(
        value=str(reference.Fraction(rows[0]["value"])
                  + reference.Fraction(1, rows[0]["q"] ** 2))))],
    "eta": [("eta_re*(1+1e-9)", times("eta_re", 1 + REJECT)),
            ("check_residual 1e-6", setitem("check_residual", 1e-6))],
    "thermo": [(f"{k}*(1+1e-9)", times(k, 1 + REJECT))
               for k in ("f_over_kT", "n_occ", "e_over_kT", "s_over_k")],
    "partition": [("value+1", lambda rows: rows[0].update(value=rows[0]["value"] + 1)),
                  ("match false", setitem("match", False))],
    "blackbody": [("e_b_general*(1+1e-9)", times("e_b_general", 1 + REJECT)),
                  ("u_conventional*(1+1e-9)", times("u_conventional", 1 + REJECT))],
    "phonon": [("debye_function*(1+1e-9)", times("debye_function", 1 + REJECT)),
               ("cv_general*(1+1e-9)", times("cv_general", 1 + REJECT))],
    "quartz": [("h_minus_1*(1+1e-9)", times("h_minus_1", 1 + REJECT))],
    "mellin": [("integral*(1+1e-5)", times("integral", 1 + 1e-5)),
               ("closed_form*(1+1e-9)", times("closed_form", 1 + REJECT))],
    "sweep-energy": [("exact at row 7*(1+1e-9)", times("exact", 1 + REJECT, 7)),
                     ("x at row 3*(1+1e-9)", times("x", 1 + REJECT, 3))],
}


def fixed_occupation_sweep(op: dict, ref: dict) -> str:
    """The occupation sweep as it should print once fixed: nulls with an
    errors note at x = 0 and right values elsewhere."""
    rows = []
    for x, n in zip(ref["grid"], ref["n"]):
        if n is None:
            rows.append({"x": 0.0, "exact": None, "lowfreq": None,
                         "conventional": None, "errors": "x = 0 is outside x > 0"})
        else:
            rows.append({"x": x, "exact": n,
                         "lowfreq": (float(reference.mp.euler) - math.log(x)) / x,
                         "conventional": 1.0 / math.expm1(x)})
    return json.dumps({"schema": 1, "command": "sweep", "params": {}, "rows": rows})


def cli_cases(ops: list[dict], refs: list, outputs: list) -> None:
    for op, ref, (_, out, error) in zip(ops, refs, outputs):
        kind = op["kind"]
        code, stdout = (None, "") if error is not None else out[:2]
        if kind == "sweep-occupation":
            print(f"note sweep-occupation today: "
                  f"{'failed' if reference.cli_failed(op, code, stdout, ref) else 'succeeds'}"
                  f" ({error or code})")
            good = fixed_occupation_sweep(op, ref)
            expect("sweep-occupation fixed form counts as success",
                   ["failed"] if reference.cli_failed(op, 0, good, ref) else [], True)
            bad = edit(good, times("exact", 1 + REJECT, 4))
            expect("sweep-occupation fixed form with a wrong cell",
                   ["failed"] if reference.cli_failed(op, 0, bad, ref) else [], False)
            bad = edit(good, setitem("exact", 0.0, 0))
            expect("sweep-occupation fixed form with a number at x=0",
                   ["failed"] if reference.cli_failed(op, 0, bad, ref) else [], False)
            continue
        if reference.cli_failed(op, code, stdout, ref):
            failures.append(f"{op['argv']} failed: {error or out[2][-300:]}")
            continue
        expect(f"cli {kind} as computed", reference.check_cli(op, stdout, ref), True)
        for label, fn in CLI_PERTURBATIONS[kind]:
            expect(f"cli {kind} {label}",
                   reference.check_cli(op, edit(stdout, fn), ref), False)
    # byte-identical stdout across passes: change one byte in the second pass
    second = copy.deepcopy(outputs)
    t, (code, stdout, err), error = second[0]
    second[0] = [t, [code, stdout.replace(" ", "  ", 1), err], error]
    problems = run.judge("cli-session", ops, refs,
                         [{"ops": outputs}, {"ops": second}])[2]
    expect("cli stdout byte-identical across passes", problems, False)


def main() -> int:
    if not (run.SRC / "eulergas" / "__init__.py").is_file():
        sys.stderr.write(f"no eulergas sources under {run.SRC}\n")
        return 2
    runner = run.Runner()

    ops = run.build_ops("partition-exact", SEED)
    ops = ops[:5] + ops[-4:]          # a few small n, the ladder, the oracle
    outputs = runner.worker("partition-exact", ops)["ops"]
    api_cases("partition-exact", ops, reference.expected("partition-exact", ops), outputs)

    ops = run.build_ops("thermo-sweep", SEED)
    outputs = runner.worker("thermo-sweep", ops)["ops"]
    api_cases("thermo-sweep", ops, reference.expected("thermo-sweep", ops), outputs)

    ops = run.build_ops("cli-session", SEED)
    outputs = runner.worker("cli-session", ops)["ops"]
    cli_cases(ops, reference.expected("cli-session", ops), outputs)

    print(f"\n{len(failures)} expectation(s) failed" if failures
          else "\nevery check accepts the outputs and rejects each perturbation")
    for f in failures:
        print(f"  {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
