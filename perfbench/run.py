"""gkmslice benchmark runner.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload diagonal --seed 1 --seconds 40 --trace 0

Workloads (see workload.py for the exact operations):
  diagonal  `jd-series --n 3 --d 2 --maxdeg 8` through cli.main: the type-A
            slice engine (pair-ideal products, tagged intersections) and the
            CLI worker pool. It has no seeded input.
  lattice   five windowed lattice-module CLI calls (ordinary-quotient for
            GL3, B2, G2, GL2 and flag-rank1): span over a margin-enlarged
            box, restrict to the window, repeated per margin step.
  residue   moment-graph residue verification, curve series, knot
            comparisons and the conjecture cross-check as library calls;
            linear algebra is a small share, so it is the control for
            elimination changes.

Every pass runs in a fresh interpreter (workload.py), so a cache inside
the program cannot carry results from one pass to the next. With
--trace 0 it runs passes until the next pass would end after
--seconds (at least one pass); before each pass it starts SETUP_PROBES
interpreters that only import gkmslice and build the inputs, and as many
again after the last pass. It prints:
  ref_cpu_s     median CPU time of a pass (all program threads and
                waited-for child processes, first operation to last), in
                seconds at the reference speed (see below)
  setup_s       median CPU time, at the reference speed, of an
                interpreter from its start until gkmslice is imported and
                the inputs are built, over the probes and the passes
  peak_rss_mib  median peak resident memory of a pass process
The times are CPU times scaled to one machine speed, not wall times,
because this benchmark runs on shared virtual machines (2 vCPUs). Their
vCPUs are taken away for seconds at a time (steal time): the same pass
read 22 s to 37 s of wall time within ten minutes while its CPU time
stayed within 21 s to 25 s. And the speed of the vCPU itself changes by
half from one second to the next: the same lattice pass took 9.3 s to
15.2 s of CPU time. So every set-up and pass runs workload.Calibrator, a
thread that does fixed work in turns with the program's threads; the
CPU time of its chunks measures the speed of that very stretch of time,
and the program's CPU time is scaled by workload.REF_CHUNK_S over it.
Five such lattice passes whose CPU time ranged over 58% read within 2.3%
once scaled. The program computes on one core at a time (the worker
pool's threads share the GIL), so on an idle machine its wall time
equals its CPU time; the median wall time and raw CPU time are printed
for information, and cli.main.cpu_per_wall (traced run) shows whether a
change adds parallelism.
With --trace 1 it runs one untraced pass and two traced passes and prints
the per-layer metrics of the first traced pass (see PER_LAYER), plus
trace.overhead_s = the traced pass's CPU time minus the untraced pass's.
All three run without the calibrator, whose turns would count in the
spans' wall times, so these times are as measured. Every count must
repeat exactly between the two traced passes.

Every operation's output is checked against expected.json, pinned at
the commit that defined the benchmark. A crash, an unexpected exit code
or different bytes is a failed operation; failed / attempted is the fail
ratio. A fail ratio is 0 when all is well, so it is reported through the
`attempted` and `failed` fields rather than as a metric. The verifier is checked on every
run: one deliberately corrupted expected answer must fail exactly one
operation.

The last stdout line is the JSON result; the lines before it describe the
environment (rational backend, Python, CPUs, pool width, commit) and each
pass. The run exits 2 without a result when the checkout holds no
gkmslice sources or a pass cannot start.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("diagonal", "lattice", "residue")
SETUP_PROBES = 8  # set-up-only interpreters started before each pass
RUN_BUDGET_S = 170  # a run must end within 180 s

CALLS, TOTAL, SELF, MAX = range(4)  # fields of a span name's totals in a trace


def _stat(name, field):
    return lambda st, ct: st.get(name, (0, 0.0, 0.0, 0.0))[field]


def _layer_self(layer):
    return lambda st, ct: sum(v[SELF] for k, v in st.items() if k.split(".")[0] == layer)


def _counter(key):
    return lambda st, ct: ct.get(key, 0)


def _ratio(num, den):
    return lambda st, ct: (num(st, ct) / den(st, ct)) if den(st, ct) else 0.0


# Per-layer metrics: name -> (unit, function of the traced pass's span
# totals and counters).
PER_LAYER = {
    "linalg.self_s": ("s", _layer_self("linalg")),
    "linalg.insert.calls": ("count", _stat("linalg.insert", CALLS)),
    "linalg.insert.useful_ratio": ("ratio", _ratio(_counter("linalg.insert.useful"),
                                                   _stat("linalg.insert", CALLS))),
    "linalg.intersect.calls": ("count", _stat("linalg.intersect", CALLS)),
    "linalg.intersect.s": ("s", _stat("linalg.intersect", TOTAL)),
    "linalg.kernel.s": ("s", _stat("linalg.kernel", TOTAL)),
    "linalg.span.s": ("s", _stat("linalg.span", TOTAL)),
    "linalg.restrict.calls": ("count", _stat("linalg.restrict", CALLS)),
    "linalg.restrict.cols": ("count", _counter("linalg.restrict.cols")),
    "linalg.restrict.s": ("s", _stat("linalg.restrict", TOTAL)),
    "rings.self_s": ("s", _layer_self("rings")),
    "rings.mul.calls": ("count", _stat("rings.mul", CALLS)),
    "rings.mul.self_s": ("s", _stat("rings.mul", SELF)),
    "rings.substitute.calls": ("count", _stat("rings.substitute", CALLS)),
    "rings.substitute.s": ("s", _stat("rings.substitute", TOTAL)),
    "rings.slice_monomials.count": ("count", _counter("rings.slice_monomials.count")),
    "arrangement.self_s": ("s", _layer_self("arrangement")),
    "arrangement.jd_slice.calls": ("count", _stat("arrangement.jd_slice", CALLS)),
    "arrangement.jd_slice.sum_s": ("s", _stat("arrangement.jd_slice", TOTAL)),
    "arrangement.jd_slice.max_s": ("s", _stat("arrangement.jd_slice", MAX)),
    "arrangement.pair_ideal_slice.s": ("s", _stat("arrangement.pair_ideal_slice", TOTAL)),
    "arrangement.slice.basis_dim": ("count", _counter("arrangement.slice.basis_dim")),
    "arrangement.slice.rank": ("count", _counter("arrangement.slice.rank")),
    "arrangement.ordinary_quotient.s": ("s", _stat("arrangement.ordinary_quotient", TOTAL)),
    "gkm.self_s": ("s", _layer_self("gkm")),
    "gkm.verify.calls": ("count", _stat("gkm.verify", CALLS)),
    "gkm.verify.characters": ("count", _counter("gkm.verify.characters")),
    "gkm.verify.components": ("count", _counter("gkm.verify.components")),
    "gkm.primitive_direction.calls": ("count", _stat("gkm.primitive_direction", CALLS)),
    "gkm.residue_along.calls": ("count", _stat("gkm.residue_along", CALLS)),
    "gkm.build_graph.s": ("s", _stat("gkm.build_graph", TOTAL)),
    "series.self_s": ("s", _layer_self("series")),
    "series.normalize.calls": ("count", _stat("series.normalize", CALLS)),
    "series.expand.s": ("s", _stat("series.expand", TOTAL)),
    "curves.self_s": ("s", _layer_self("curves")),
    "curves.conjecture.s": ("s", _stat("curves.conjecture", TOTAL)),
    "curves.relations_slice.s": ("s", _stat("curves.relations_slice", TOTAL)),
    "curves.msv.s": ("s", _stat("curves.msv", TOTAL)),
    "cli.main.s": ("s", _stat("cli.main", TOTAL)),
    "cli.main.cpu_per_wall": ("ratio", _ratio(_counter("cli.main.cpu_s"), _stat("cli.main", TOTAL))),
    "cli.render.s": ("s", _stat("cli.render", TOTAL)),
}


class RunError(Exception):
    """The run cannot produce a result."""


def read_commit(root: str) -> str | None:
    """HEAD commit of a git checkout at root, read from its files only."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


class Runner:
    """Starts workload passes in fresh interpreters within the run budget."""

    def __init__(self, root: str, workload: str, seed: int):
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = self.src
        self.env["PYTHONHASHSEED"] = "0"
        self.env.pop("GKMSLICE_WORKERS", None)  # measure the program's default pool

    def spawn(self, *flags: str) -> dict:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        cmd = [
            sys.executable, "-s", os.path.join(HERE, "workload.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--spawned", repr(spawned), "--src", self.src, *flags,
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunError("run budget exhausted")
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=self.env, timeout=remaining
            )
        except subprocess.TimeoutExpired:
            raise RunError(f"pass did not end within the {RUN_BUDGET_S} s run budget")
        if proc.returncode != 0:
            raise RunError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise RunError("pass printed no record")
        try:
            record = json.loads(lines[-1])
        except ValueError:
            raise RunError(f"pass printed no JSON record: {lines[-1][:200]}")
        record["process_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
        return record


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: str, record: dict, expected: dict) -> str | None:
    """Why one operation's output differs from the pinned answer, or None."""
    if "error" in record:
        return record["error"]
    want = expected[workload].get(record["name"])
    if want is None:
        return "no pinned answer"
    got = record["output"]
    if "answer" in want:
        return None if got == want["answer"] else f"answer {got} != pinned {want['answer']}"
    if got["exit"] != want["exit"]:
        return f"exit code {got['exit']} != pinned {want['exit']}"
    if got["digest"] != want["digests"].get(str(record["t"])):
        return f"stdout bytes differ from the pinned output at offset {record['t']}"
    if got["fields"] != want["fields"]:
        return f"report {got['fields']} != seed-0 report {want['fields']}"
    return None


def failures(workload: str, passes: list, expected: dict) -> list:
    return [
        (i, rec["name"], why)
        for i, p in enumerate(passes)
        for rec in p["ops"]
        if (why := check(workload, rec, expected)) is not None
    ]


def verifier_self_check(workload: str, first_pass: dict, expected: dict) -> bool:
    """Corrupting the pinned answer of one passing operation must fail it."""
    baseline = failures(workload, [first_pass], expected)
    failed = {name for _, name, _ in baseline}
    passing = [rec["name"] for rec in first_pass["ops"] if rec["name"] not in failed]
    if not passing:
        return False
    corrupted = copy.deepcopy(expected)
    target = corrupted[workload][passing[0]]
    if "answer" in target:
        target["answer"] = {**target["answer"], "corrupted": True}
    else:
        target["exit"] += 1
    return len(failures(workload, [first_pass], corrupted)) == len(baseline) + 1


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def counts(trace: dict) -> dict:
    """Every count of a traced pass; these must repeat exactly."""
    out = {f"{name}.calls": v[0] for name, v in trace["stats"].items()}
    out.update({k: v for k, v in trace["counters"].items() if not k.endswith("_s")})
    return out


def scaled(ref: float | None, raw: float) -> str:
    return "" if ref is None else f" (ref {ref:.3f} s, speed {ref / raw:.3f})"


def describe(label: str, rec: dict) -> str:
    slowest = max(rec["ops"], key=lambda r: r["s"])
    return (
        f"{label}: cpu {rec['cpu_s']:.3f} s{scaled(rec['ref_cpu_s'], rec['cpu_s'])}, "
        f"wall {rec['wall_s']:.3f} s, setup cpu {rec['setup_cpu_s']:.3f} s"
        f"{scaled(rec['setup_s'], rec['setup_cpu_s'])}, "
        f"peak rss {rec['peak_rss_kib'] / 1024:.1f} MiB, {len(rec['ops'])} ops, "
        f"slowest {slowest['name']} {slowest['s']:.3f} s"
    )


def run_untraced(runner: Runner, seconds: float) -> tuple[list, dict]:
    def probe():
        return [runner.spawn("--setup-only") for _ in range(SETUP_PROBES)]

    setups, passes = [], []
    start = time.monotonic()
    while True:
        setups += probe()
        rec = runner.spawn()
        passes.append(rec)
        setups.append(rec)
        print(describe(f"pass {len(passes)}", rec), flush=True)
        if time.monotonic() - start + rec["process_s"] > seconds:
            break
    # A set-up is short enough that one stretch of slow machine moves all
    # the probes taken together; probing after the passes too spreads them.
    setups += probe()
    metrics = {
        "ref_cpu_s": metric(statistics.median(p["ref_cpu_s"] for p in passes), "s"),
        "setup_s": metric(statistics.median(p["setup_s"] for p in setups), "s"),
        "peak_rss_mib": metric(
            statistics.median(p["peak_rss_kib"] for p in passes) / 1024, "MiB"
        ),
    }
    print(f"{len(passes)} passes, {len(setups)} set-ups; median of a pass: wall "
          f"{statistics.median(p['wall_s'] for p in passes):.3f} s, CPU as measured "
          f"{statistics.median(p['cpu_s'] for p in passes):.3f} s; median set-up CPU as "
          f"measured {statistics.median(p['setup_cpu_s'] for p in setups):.3f} s", flush=True)
    return passes, metrics


def run_traced(runner: Runner) -> tuple[list, dict, bool]:
    plain = runner.spawn("--no-calibrator")
    print(describe("untraced pass", plain), flush=True)
    traced = [runner.spawn("--trace"), runner.spawn("--trace")]
    for i, rec in enumerate(traced):
        print(describe(f"traced pass {i + 1}", rec), flush=True)
    first, second = (rec["trace"] for rec in traced)
    repeat = counts(first) == counts(second)
    if not repeat:
        a, b = counts(first), counts(second)
        diff = {k: (a.get(k), b.get(k)) for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)}
        print(f"counts differ between traced passes: {diff}", flush=True)
    st, ct = first["stats"], first["counters"]
    metrics = {name: metric(fn(st, ct), unit) for name, (unit, fn) in PER_LAYER.items()}
    metrics["trace.overhead_s"] = metric(traced[0]["cpu_s"] - plain["cpu_s"], "s")
    for op, layers in sorted(first["by_op"].items(), key=lambda kv: int(kv[0])):
        name = traced[0]["ops"][int(op)]["name"]
        shares = ", ".join(f"{k} {v:.3f}" for k, v in sorted(layers.items()))
        print(f"self s, op {name}: {shares}", flush=True)
    return [plain, *traced], metrics, repeat


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gkmslice", "__init__.py")):
        sys.stderr.write("no gkmslice sources under ./src; run from the root of a checkout\n")
        return 2
    expected = load_expected()
    runner = Runner(root, args.workload, args.seed)
    try:
        if args.trace:
            passes, metrics, repeat = run_traced(runner)
        else:
            passes, metrics = run_untraced(runner, args.seconds)
            repeat = True
    except RunError as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 2

    env = {**passes[0]["env"], "commit": read_commit(root), "workload": args.workload,
           "seed": args.seed}
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    failed = failures(args.workload, passes, expected)
    for i, name, why in failed:
        print(f"FAILED pass {i + 1} {name}: {why}", flush=True)
    attempted = sum(len(p["ops"]) for p in passes)
    self_check = verifier_self_check(args.workload, passes[0], expected)
    print(f"fail_ratio {len(failed)}/{attempted}; verifier self-check "
          f"{'caught the corrupted answer' if self_check else 'FAILED'}", flush=True)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}", flush=True)
    result = {
        "correct": not failed and self_check and repeat,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
