"""One round of benchmark operations in a fresh interpreter.

Reads a JSON job on stdin, imports eulergas (timed), runs the job's
operations one at a time and writes one JSON result on stdout: the import
time, each operation's time and output and the round's wall time.  With
tracing on, every public function of every eulergas module is wrapped
where each module binds it, spans are kept in memory and written to a file
at the end, and per-function aggregates are returned with the result,
together with the span count and the calibrated cost of one wrapper.

Not meant to be run by hand; run.py starts it with PYTHONPATH pointing at
the checkout's src/.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import math
import sys
import time
from array import array
from pathlib import Path


class Tracer:
    """Spans (function, start, end, parent span, op index) at every call
    into a public eulergas function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # per span: function, start_ns, end_ns, parent span, op, outermost
        self.spans = array("q")
        self.stack: list[int] = []
        self.terms: dict[str, int] = {}
        self.op_index = -1

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        active = [0]   # depth of this function on the stack (recursion)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans) // 6
            spans.extend((idx, 0, 0, parent, self.op_index, active[0] == 0))
            stack.append(me)
            active[0] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[0] -= 1
                stack.pop()
                spans[6 * me + 1] = t0
                spans[6 * me + 2] = t1
            terms = getattr(out, "terms_used", None)
            if isinstance(terms, int):
                self.terms[name] = self.terms.get(name, 0) + terms
            return out

        return traced

    def install(self, package) -> None:
        """Replace every binding of a public eulergas function, in every
        eulergas module, with one traced wrapper per function."""
        prefix = package.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == prefix or n.startswith(prefix + ".")]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not (home == prefix or home.startswith(prefix + ".")):
                    continue
                if id(obj) not in wrappers:
                    name = f"{home.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(name, obj)
                setattr(mod, attr, wrappers[id(obj)])

    def summary(self) -> dict[str, dict]:
        """Per function: calls, inclusive seconds of outermost calls, self
        seconds (span minus child spans) and the first call's seconds."""
        sp = self.spans
        count = len(sp) // 6
        child = [0] * count
        for i in range(count):
            parent = sp[6 * i + 3]
            if parent >= 0:
                child[parent] += sp[6 * i + 2] - sp[6 * i + 1]
        out: dict[str, dict] = {}
        for i in range(count):
            name = self.names[sp[6 * i]]
            dur = sp[6 * i + 2] - sp[6 * i + 1]
            agg = out.get(name)
            if agg is None:
                agg = out[name] = {"calls": 0, "s": 0.0, "self_s": 0.0,
                                   "first_s": dur * 1e-9, "terms": 0}
            agg["calls"] += 1
            if sp[6 * i + 5]:
                agg["s"] += dur * 1e-9
            agg["self_s"] += (dur - child[i]) * 1e-9
        for name, terms in self.terms.items():
            out[name]["terms"] = terms
        return out

    def write(self, path: str) -> None:
        sp = self.spans
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns",
                                            "parent", "op"]}) + "\n")
            for i in range(len(sp) // 6):
                fh.write(json.dumps([self.names[sp[6 * i]], sp[6 * i + 1],
                                     sp[6 * i + 2], sp[6 * i + 3],
                                     sp[6 * i + 4]]) + "\n")


def wrapper_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds a traced wrapper adds to one call: a no-op timed with and
    without the wrapper of a throwaway tracer, best of `repeats`."""
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    best = []
    for fn in (noop, wrapped):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        best.append(min(times))
    return (best[1] - best[0]) / calls


def _api_runner(eulergas):
    from eulergas import arith, modular, phonon, radiation, thermo

    si = radiation.PhysicalConstants.si()
    kinds = {"free-energy": thermo.MellinKind.FREE_ENERGY,
             "occupation": thermo.MellinKind.OCCUPATION,
             "energy": thermo.MellinKind.ENERGY}
    models = {"conventional": phonon.DebyeModel.CONVENTIONAL,
              "general": phonon.DebyeModel.GENERAL}

    def run(op):
        kind = op[0]
        if kind == "p":
            res = modular.rademacher_p(op[1])
            return [res.value, res.terms_used]
        if kind == "oracle":
            return arith.partition_count_oracle(op[1])
        if kind == "mode":
            x = op[1]
            tm = thermo.thermo_per_mode(x)
            s_series = thermo.entropy(x)
            fluct = thermo.per_mode_energy_fluctuation(x)
            z = (float(modular.partition_generating(math.exp(-x)))
                 if op[2] else None)
            return [tm.f_over_kT, tm.n_occ, tm.e_over_kT, tm.s_over_k,
                    s_series, fluct, z]
        if kind == "mellin":
            integral, closed = thermo.mellin_check(op[2], kinds[op[1]])
            return [integral, closed]
        if kind == "emissivity":
            cavity = radiation.CavitySpec(volume=op[3], temperature=op[2])
            return radiation.emissivity(op[1], cavity, si,
                                        radiation.EmissivityModel.GENERAL)
        if kind == "cv":
            solid = phonon.SolidSpec(n_atoms=op[3], volume=op[4],
                                     temperature=op[1], c_ph=op[5])
            return phonon.specific_heat(solid, si, models[op[2]])
        raise ValueError(f"unknown op {op!r}")

    return run


def _cli_runner(eulergas):
    def run(op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = eulergas.cli.main(op["argv"])
        return [code, out.getvalue(), err.getvalue()]

    return run


def main() -> int:
    job = json.load(sys.stdin)
    tracer = Tracer() if job.get("trace") else None
    before = len(sys.modules)
    t0 = time.perf_counter()
    import eulergas
    import_s = time.perf_counter() - t0
    modules = len(sys.modules) - before
    import eulergas.cli  # noqa: F401  (bound for the CLI runner)
    src = Path(job["src"]).resolve()
    if src not in Path(eulergas.__file__).resolve().parents:
        sys.stderr.write(f"eulergas imported from {eulergas.__file__}, "
                         f"not from {src}\n")
        return 3
    if tracer is not None:
        tracer.install(eulergas)
    run = (_cli_runner if job["kind"] == "cli" else _api_runner)(eulergas)

    results = []
    start = time.perf_counter()
    for i, op in enumerate(job["ops"]):
        if tracer is not None:
            tracer.op_index = i
        a = time.perf_counter()
        try:
            value, error = run(op), None
        except Exception as exc:  # an op that raises is a failed op
            value, error = None, f"{type(exc).__name__}: {exc}"
        results.append([time.perf_counter() - a, value, error])
    wall = time.perf_counter() - start

    doc = {"import_s": import_s, "modules": modules, "wall_s": wall,
           "ops": results}
    if tracer is not None:
        doc["layers"] = tracer.summary()
        doc["spans"] = len(tracer.spans) // 6
        doc["span_cost_s"] = wrapper_cost_s()
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
