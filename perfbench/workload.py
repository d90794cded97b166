"""One pass of one benchmark workload, run in a fresh interpreter.

run.py starts this script once per pass, so no pass can reuse a cache
that an earlier pass filled. The pass imports gkmslice, builds its
inputs from the seed, runs every operation once and prints one JSON
record on its last stdout line: what each operation returned (exit code,
stdout digest and translation-invariant fields for CLI calls; verdicts
and report counts for library calls), the pass CPU and wall time, the
set-up CPU and wall time, the peak resident memory and, with --trace,
the per-layer spans. Without --trace a Calibrator thread measures the
machine's speed during set-up and the pass, and the CPU times are also
given at a reference speed.
The records are checked against the pinned answers by run.py, not here.

Inputs from the seed (random.Random(seed)):
  diagonal  no seeded input; every seed runs the same jd-series call.
  lattice   operation order is shuffled and every window is translated
            by one offset t in OFFSETS.
  residue   operation order is shuffled; graph windows and class offsets
            are translated by one offset t in OFFSETS.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import threading
import time
import traceback
from fractions import Fraction

OFFSETS = range(-3, 4)

# CPU seconds of one calibration_chunk(), taking turns with a pass, at
# the median speed of the machine the benchmark was defined on (2-vCPU
# Intel Xeon virtual machine, Python 3.11.7). Scaled times are CPU
# seconds at that speed.
REF_CHUNK_S = 0.0009

# Operations of the lattice workload: name, CLI arguments without the
# window, and the window at offset 0 (one range, broadcast to every
# lattice coordinate).
LATTICE_OPS = [
    ("oq-GL3", ["ordinary-quotient", "--group", "GL3", "--d", "1", "--ydeg", "2"], (0, 1)),
    ("oq-B2", ["ordinary-quotient", "--group", "B2", "--d", "1", "--ydeg", "2"], (-1, 1)),
    ("oq-G2", ["ordinary-quotient", "--group", "G2", "--d", "1", "--ydeg", "1"], (0, 1)),
    ("oq-GL2", ["ordinary-quotient", "--group", "GL2", "--d", "3", "--ydeg", "2"], (0, 3)),
    ("flag-rank1", ["flag-rank1"], (-30, 30)),
]

DIAGONAL_ARGV = ["jd-series", "--n", "3", "--d", "2", "--maxdeg", "8"]

SL2_DEGREES = range(1, 7)
SL2_CLASS_OFFSETS = range(-3, 4)
SL2_WINDOW = (-20, 20)
FLAG_WINDOW = (-10, 10)
FLAG_CLASS_OFFSETS = range(-1, 3)
CURVES = ("three-lines", "tacnode", "node")
LINKS = ("T(2,4)", "T(3,3)")
CONJECTURES = ((3, 1), (2, 2))
CONJECTURE_ORDER = 8


def monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_time() -> float:
    """CPU seconds of this process (all threads) and its waited-for children.

    Unlike wall time, this leaves out the time the machine ran other
    work: on a shared virtual machine the vCPU is often taken away
    (steal time), which stretches wall time by up to half.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibration_chunk() -> Fraction:
    """Fixed pure-Python work of the program's kind: Fraction arithmetic
    and dict updates."""
    acc = Fraction(0)
    bins: dict = {}
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        bins[i % 17] = bins.get(i % 17, 0) + i * i
    return acc


class Calibrator(threading.Thread):
    """Runs calibration chunks beside the program to measure machine speed.

    On a shared virtual machine the speed of a vCPU changes by half from
    one second to the next (other tenants on the host), and CPU time
    changes with it. This thread competes for the GIL with the program's
    threads, so they take turns every few milliseconds
    (sys.getswitchinterval()) and run at the same speed; the CPU time of
    one chunk in a phase tells how fast the machine ran in it. A timing
    taken before and after a phase instead does not follow the changes.
    """

    def __init__(self):
        super().__init__(name="calibrator", daemon=True)
        self.halt = threading.Event()
        self.chunks = 0

    def run(self):
        while not self.halt.is_set():
            calibration_chunk()
            self.chunks += 1

    def reading(self) -> tuple[float, float, int]:
        """Process CPU seconds, this thread's CPU seconds and chunks done."""
        own = time.clock_gettime(time.pthread_getcpuclockid(self.ident))
        return cpu_time(), own, self.chunks

    def program_cpu(self, since: tuple[float, float, int]) -> tuple[float, float]:
        """CPU seconds of the program since a reading: as measured (the
        calibrator's own CPU time left out) and at the reference speed."""
        while self.chunks == since[2]:  # a phase shorter than one chunk
            time.sleep(0.001)
        now = self.reading()
        own = now[1] - since[1]
        program = now[0] - since[0] - own
        return program, program * REF_CHUNK_S * (now[2] - since[2]) / own

    def stop(self):
        self.halt.set()
        self.join()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def invariant_fields(stdout: str):
    """CLI JSON report without the fields that move with a translation.

    The window itself and the generator rows (which are multiplied by
    x^t) are dropped; the number of rows is kept.
    """
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    if not isinstance(report, dict):
        return None
    report.pop("window", None)
    if "submodule_rows" in report:
        report["submodule_rows"] = len(report["submodule_rows"])
    return report


def cli_op(name: str, argv: list[str], t: int):
    def run(gk):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = gk.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        text = out.getvalue()
        return {"exit": code, "digest": digest(text), "fields": invariant_fields(text)}

    return name, t, run


def translated(window: tuple[int, int], t: int) -> str:
    return f"--window={window[0] + t}:{window[1] + t}"


def verify_answer(report) -> dict:
    return {
        "ok": report.ok,
        "characters": report.characters_checked,
        "components": report.components_checked,
        "failures": len(report.failures),
    }


def series_digest(gk, s) -> str:
    return digest(json.dumps(gk.cli.jsonable(gk.series.series_to_json(s)), sort_keys=True))


def residue_ops(t: int) -> list:
    """Library calls shaped like acceptance criteria 06 and 08 to 10."""
    ops = []
    graphs: dict = {}  # one moment graph per key, built by its first user

    def graph(gk, key):
        if key not in graphs:
            if key == "flag":
                graphs[key] = gk.gkm.build_flag_rank1_graph(
                    (FLAG_WINDOW[0] + t, FLAG_WINDOW[1] + t)
                )
            else:
                rd = gk.rootdata.root_datum("SL2")
                graphs[key] = gk.gkm.build_gkm_graph(
                    rd, key, [(SL2_WINDOW[0] + t, SL2_WINDOW[1] + t)]
                )
        return graphs[key]

    def sl2(d, k, perturbed):
        def run(gk):
            cls = gk.gkm.sl2_classes(d, k + t)
            if perturbed:
                cls = gk.gkm.perturb_numerator(cls, min(cls))
            return verify_answer(gk.gkm.verify_residue_conditions(graph(gk, d), cls))

        return run

    def flag(kind, k):
        def run(gk):
            g = graph(gk, "flag")
            if kind == "constant":
                cls = gk.gkm.flag_constant_class(g)
            else:
                cls = gk.gkm.flag_rank1_classes(kind, k + t)
            return verify_answer(gk.gkm.verify_residue_conditions(g, cls))

        return run

    def msv(curve):
        def run(gk):
            c = gk.curves
            if curve == "three-lines":
                spec = c.three_lines_spec()
                series, closed = c.msv_assemble(spec), c.three_lines_closed_form()
            elif curve == "tacnode":
                spec = c.tacnode_spec()
                series, closed = c.msv_assemble(spec), c.tacnode_closed_form()
            else:
                spec, series, closed = None, c.node_series(), None
            branches = spec.branches if spec else 2
            punctual = c.punctual_series(series, branches)
            return {
                "closed_form_match": None if closed is None else series == closed,
                "series": series_digest(gk, series),
                "punctual": series_digest(gk, punctual),
            }

        return run

    def knot(link):
        def run(gk):
            report = gk.curves.knot_compare(link)
            return {"ok": report.ok, "shift": report.shift}

        return run

    def conjecture(n, d):
        def run(gk):
            report = gk.curves.conjecture_vs_msv(n, d, order=CONJECTURE_ORDER)
            return {
                "ok": report.ok,
                "mismatches": len(report.mismatches),
                "table": sorted([list(deg), dim] for deg, dim in report.table.items()),
            }

        return run

    for d in SL2_DEGREES:
        for k in SL2_CLASS_OFFSETS:
            ops.append((f"sl2-d{d}-b{k}", t, sl2(d, k, False)))
        ops.append((f"sl2-d{d}-perturbed", t, sl2(d, 0, True)))
    for kind in ("pair", "step"):
        for k in FLAG_CLASS_OFFSETS:
            ops.append((f"flag-{kind}{k}", t, flag(kind, k)))
    ops.append(("flag-constant", t, flag("constant", 0)))
    ops += [(f"msv-{c}", 0, msv(c)) for c in CURVES]
    ops += [(f"knot-{link}", 0, knot(link)) for link in LINKS]
    ops += [(f"conjecture-{n},{d}", 0, conjecture(n, d)) for n, d in CONJECTURES]
    return ops


def build_ops(workload: str, seed: int, offset: int | None = None) -> tuple[int, list]:
    """The seeded offset and operation list of (name, offset, callable)."""
    rng = random.Random(seed)
    if workload == "diagonal":
        return 0, [cli_op("jd-series", DIAGONAL_ARGV, 0)]
    t = rng.choice(OFFSETS) if offset is None else offset
    if workload == "lattice":
        ops = [cli_op(name, argv + [translated(w, t)], t) for name, argv, w in LATTICE_OPS]
    elif workload == "residue":
        ops = residue_ops(t)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return t, ops


def load_package():
    """The gkmslice package; operations look its modules up at call time."""
    import gkmslice
    import gkmslice.cli
    import gkmslice.rootdata

    return gkmslice


def run_ops(gk, ops, tracer=None) -> tuple[list, float]:
    """Run every operation once; an exception is recorded, never raised.

    Returns the records and the wall time of the whole pass.
    """
    records = []
    first = time.perf_counter()
    for index, (name, t, run) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        record = {"name": name, "t": t}
        try:
            record["output"] = run(gk)
        except Exception as exc:  # any crash of the program is a failed operation
            record["error"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        record["s"] = time.perf_counter() - start
        records.append(record)
    return records, time.perf_counter() - first


def environment(gk) -> dict:
    return {
        "backend": "gmpy2" if gk.rationals.HAVE_GMPY2 else "Fraction",
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "pool_width": gk.cli.worker_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="CLOCK_MONOTONIC time at which the parent started this process")
    parser.add_argument("--src", required=True, help="directory that holds the gkmslice package")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--no-calibrator", action="store_true",
                        help="report CPU times as measured only (implied by --trace)")
    args = parser.parse_args()

    # Span times are wall time, which would include the calibrator's
    # turns, so traced passes run without it and report raw CPU times.
    calibrator = None if args.trace or args.no_calibrator else Calibrator()
    if calibrator is not None:
        calibrator.start()
    gk = load_package()
    package_dir = os.path.dirname(os.path.abspath(gk.cli.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(args.src):
        sys.stderr.write(f"gkmslice imported from {package_dir}, not from {args.src}\n")
        return 2
    offset, ops = build_ops(args.workload, args.seed)
    result = {
        "setup_wall_s": monotonic() - args.spawned,
        "env": {**environment(gk), "offset": offset},
    }
    # Set-up counts from the fork: interpreter start, imports and inputs.
    if calibrator is None:
        result["setup_cpu_s"], result["setup_s"] = cpu_time(), None
    else:
        result["setup_cpu_s"], result["setup_s"] = calibrator.program_cpu((0.0, 0.0, 0))
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        before = cpu_time() if calibrator is None else calibrator.reading()
        result["ops"], result["wall_s"] = run_ops(gk, ops, tracer)
        if calibrator is None:
            result["cpu_s"], result["ref_cpu_s"] = cpu_time() - before, None
        else:
            result["cpu_s"], result["ref_cpu_s"] = calibrator.program_cpu(before)
        if tracer is not None:
            result["trace"] = tracer.report()
    if calibrator is not None:
        calibrator.stop()
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
