"""Command-line entry point.

One executable, ten subcommands, machine-readable output. Each
subcommand computes its result and describes it once, as one report: a
json payload, a csv table and lines of human text (plus a DOT graph for
gkm-graph). `report` renders the format asked for, writes it to stdout
or to --output, and is the one place that chooses the exit code from
the result: 0 for PASS/complete, 1 for a verified identity mismatch, 2
for an inconclusive windowed computation (margin never stabilized).
`main` adds 64 for malformed usage or an argument outside the library's
domain (a ValueError) and 70 for an internal error (any other
exception; the traceback goes to stderr). JSON output is canonical:
sorted keys, two-space indent, rationals rendered "num/den".
`--version` prints the package version and the rational backend in use
(gmpy2 or Fraction).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import traceback

from . import __version__, arrangement, curves, gkm
from .rationals import HAVE_GMPY2
from .rootdata import root_datum
from .series import series_to_json

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def worker_count() -> int:
    """Number of workers that compute slices: always 1.

    Slices are pure-Python work, so threads only take turns on the GIL;
    every subcommand runs in the calling thread. Kept as a function
    because the benchmark records it as the pool width.
    """
    return 1


def parse_window(text: str, dims: int) -> list[tuple[int, int]]:
    """Parse "lo:hi" or "lo:hi,lo:hi,..."; one range broadcasts."""
    ranges = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ValueError(f"window range must be lo:hi, got {chunk!r}")
        try:
            lo, hi = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"window bounds must be integers, got {chunk!r}") from None
        if lo > hi:
            raise ValueError(f"empty window range {chunk!r}")
        ranges.append((lo, hi))
    if len(ranges) == 1 and dims > 1:
        ranges = ranges * dims
    if len(ranges) != dims:
        raise ValueError(f"window needs {dims} ranges, got {len(ranges)}")
    return ranges


def jsonable(value):
    """Coerce report payloads to JSON-safe structures, rationals as str."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {
            (k if isinstance(k, str) else gkm.vertex_name(k)): jsonable(v)
            for k, v in value.items()
        }
    return str(value)


def render_json(payload: dict) -> str:
    return json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n"


def render_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([str(v) for v in row])
    return buf.getvalue()


def report(args, ok, payload: dict, header: list[str], rows: list[list],
           human: list[str], dot: str | None = None) -> int:
    """Write one report in the format args ask for; return its exit code.

    payload is the json object, header and rows the csv table, human the
    lines of text and dot the graph (gkm-graph only). The text goes to
    stdout, or to the --output path. ok is True for a PASS or complete
    result, False for a mismatch and None for an inconclusive windowed
    computation.
    """
    if args.format == "json":
        text = render_json(payload)
    elif args.format == "csv":
        text = render_csv(header, rows)
    elif args.format == "dot":
        text = dot
    else:
        text = "\n".join(human) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
    if ok is None:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS if ok else EXIT_MISMATCH


def add_common(p: Parser, formats=("json", "csv", "human")) -> None:
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--output", default=None, help="write the report to this path")


# ---- subcommand handlers ----


def cmd_jd_series(args) -> int:
    if args.group.strip().upper() != "GL":
        raise ValueError("jd-series supports --group GL (pointwise diagonals)")
    if args.maxdeg < 0:
        raise ValueError(f"--maxdeg must be >= 0, got {args.maxdeg}")
    dims = arrangement.jd_dimensions(args.n, args.d, args.maxdeg, args.method)
    rows = [
        [a, b, dims[(a, b)]]
        for total in range(args.maxdeg + 1)
        for a in range(total + 1)
        for b in [total - a]
    ]
    payload = {
        "group": f"GL{args.n}",
        "n": args.n,
        "d": args.d,
        "maxdeg": args.maxdeg,
        "method": args.method,
        "table": {f"{a},{b}": rank for a, b, rank in rows},
    }
    human = [f"GL{args.n} d={args.d} slice ranks (xdeg, ydeg) -> rank"]
    human += [f"  ({a}, {b}) -> {rank}" for a, b, rank in rows]
    return report(args, True, payload, ["xdeg", "ydeg", "rank"], rows, human)


def cmd_catalan(args) -> int:
    result = arrangement.catalan_quotient(args.n, method=args.method)
    rows = [[a, b, result.table[(a, b)]] for a, b in sorted(result.table)]
    payload = {
        "n": result.n,
        "method": result.method,
        "total": result.total,
        "top_degree": result.top_degree,
        "boundary_zero": result.boundary_zero,
        "table": {f"{a},{b}": dim for a, b, dim in rows},
    }
    human = [f"n={result.n} total={result.total}"]
    human += [f"  ({a}, {b}) -> {dim}" for a, b, dim in rows]
    return report(args, result.boundary_zero, payload, ["xdeg", "ydeg", "dim"], rows, human)


def cmd_freeness(args) -> int:
    result = arrangement.freeness_check(args.n, args.d, args.maxdeg, method=args.method)
    failed = {k for k, _ in result.failures}
    rows = [[k, "FAIL" if k in failed else "PASS"] for k in range(1, args.n + 1)]
    payload = {
        "n": result.n,
        "d": result.d,
        "maxdeg": result.max_total,
        "ok": result.ok,
        "checks": result.stages_checked,
        "stages": [{"stage": k, "status": status} for k, status in rows],
        "failures": [{"stage": k, "bidegree": list(deg)} for k, deg in result.failures],
    }
    human = [f"stage {k}: {status}" for k, status in rows]
    human.append("PASS" if result.ok else "FAIL")
    return report(args, result.ok, payload, ["stage", "status"], rows, human)


def build_graph(args) -> gkm.GkmGraph:
    label = args.group.strip().upper()
    if label == "FLAG":
        window = parse_window(args.window or "-3:3", 1)
        return gkm.build_flag_rank1_graph(window[0], d=args.d)
    rd = root_datum(args.group, getattr(args, "n", None))
    window = parse_window(args.window or "-8:8", rd.rank)
    return gkm.build_gkm_graph(rd, args.d, window)


def cmd_gkm_graph(args) -> int:
    graph = build_graph(args)
    rows = [[gkm.vertex_name(a), gkm.vertex_name(b), w] for a, b, w in graph.edges]
    human = [f"{graph.label}: {len(graph.vertices)} vertices, {len(graph.edges)} edges"]
    human += [f"  {a} -- {b}  [{w}]" for a, b, w in rows]
    return report(
        args, True, gkm.graph_to_json(graph), ["a", "b", "weight"], rows, human,
        dot=gkm.graph_to_dot(graph),
    )


def named_class(graph: gkm.GkmGraph, name: str, d: int) -> dict:
    """Resolve a class name: b<k> on rank-one lattice graphs, pair<k>/step<k>
    on the flag graph, constant on any graph.

    Whether the class fits the graph is left to the residue verification.
    """
    key = name.strip().lower()
    if key == "constant":
        return gkm.flag_constant_class(graph)
    for kind in ("b", "pair", "step"):
        if key.startswith(kind):
            try:
                k = int(key[len(kind):])
            except ValueError:
                break
            return gkm.sl2_classes(d, k) if kind == "b" else gkm.flag_rank1_classes(kind, k)
    raise ValueError(f"unknown class name {name!r} (use b<k>, pair<k>, step<k>, constant)")


def cmd_gkm_verify(args) -> int:
    graph = build_graph(args)
    if args.classes_file:
        try:
            with open(args.classes_file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read {args.classes_file}: {exc.strerror}") from None
        cls = gkm.class_from_json(data, graph.ring)
        # the base name, so that every spelling of the path prints the same
        name = os.path.basename(args.classes_file)
    elif args.cls:
        cls = named_class(graph, args.cls, args.d)
        name = args.cls
    else:
        raise ValueError("gkm-verify needs --class or --classes-file")
    result = gkm.verify_residue_conditions(graph, cls)
    misfits = [f["kind"] for f in result.failures if f["kind"] in gkm.STRUCTURAL_FAILURES]
    if misfits and not args.classes_file:
        # a named class that does not fit the graph is a usage error
        raise ValueError(f"class {name!r} does not fit {graph.label} ({misfits[0]})")
    status = "PASS" if result.ok else "FAIL"
    payload = {
        "graph": graph.label,
        "class": name,
        "status": status,
        "characters_checked": result.characters_checked,
        "components_checked": result.components_checked,
        "failures": result.failures,
    }
    rows = [[f["kind"], jsonable(f)] for f in result.failures]
    human = [f"{status}: class {name} on {graph.label}"]
    human += [f"  {detail}" for _, detail in rows]
    return report(args, result.ok, payload, ["kind", "detail"], rows, human)


def cmd_msv(args) -> int:
    n, dn = curves.curve_key(args.curve)
    curve = curves.CURVES[(n, dn)]
    series = curve.series()
    match = series == curve.closed_form()
    if args.punctual:
        series = curves.punctual_series(series, n)
    status = "PASS" if match else "FAIL"
    payload = {
        "curve": curve.name,
        "status": status,
        "closed_form_match": match,
        "punctual": bool(args.punctual),
        "punctual_factor": curves.PUNCTUAL_FACTOR,
        "alternate_factor": curves.ALTERNATE_FACTOR,
        "series": series_to_json(series),
        "first_mismatch": None,
    }
    human = [f"{status}: {curve.name} series assembled"]
    return report(args, match, payload, ["curve", "status"], [[curve.name, status]], human)


def cmd_conjecture_check(args) -> int:
    result = curves.conjecture_vs_msv(args.n, args.d, order=args.order)
    first = None
    if result.mismatches:
        deg, coeff, dim = result.mismatches[0]
        first = {"bidegree": list(deg), "series_coefficient": coeff, "quotient_dim": dim}
    rows = [[a, b, dim] for (a, b), dim in sorted(result.table.items())]
    payload = {
        "n": result.n,
        "d": result.d,
        "order": result.order,
        "reference": result.reference_name,
        "status": "PASS" if result.ok else "MISMATCH",
        "first_mismatch": first,
        "table": {f"{a},{b}": dim for a, b, dim in rows},
    }
    status = "PASS" if result.ok else f"MISMATCH at {first['bidegree']}"
    human = [f"{status}: ({args.n},{args.d}) vs {result.reference_name}"
             f" through q-order {args.order}"]
    return report(args, result.ok, payload, ["qdeg", "tdeg", "dim"], rows, human)


def cmd_compare_knot(args) -> int:
    result = curves.knot_compare(args.link)
    normalization = f"T^{result.shift}" if result.shift is not None else None
    status = "PASS" if result.ok else "FAIL"
    payload = {
        "link": result.link,
        "status": status,
        "equal": result.ok,
        "normalization": normalization,
        "factor_used": curves.PUNCTUAL_FACTOR,
        "alternate_factor": curves.ALTERNATE_FACTOR,
        "first_mismatch": None if result.ok else "series differ beyond a T power",
    }
    rows = [[result.link, result.ok, normalization]]
    human = [f"{status}: {result.link} normalization {normalization}"]
    return report(args, result.ok, payload, ["link", "equal", "normalization"], rows, human)


def cmd_ordinary_quotient(args) -> int:
    rd = root_datum(args.group, args.n)
    window = parse_window(args.window or "0:1", rd.rank)
    result = arrangement.ordinary_homology_quotient_slice(
        rd, args.d, args.ydeg, window, margin=args.margin
    )
    payload = {
        "group": rd.label,
        "d": args.d,
        "ydeg": args.ydeg,
        "window": [list(r) for r in window],
        "ambient_dim": result.ambient_dim,
        "submodule_rank": result.submodule_rank,
        "quotient_dim": result.quotient_dim,
        "status": result.status,
        "margin": result.margin,
        "submodule_rows": [str(p) for p in result.submodule.row_polys()],
    }
    header = ["ambient_dim", "submodule_rank", "quotient_dim", "status"]
    rows = [[result.ambient_dim, result.submodule_rank, result.quotient_dim, result.status]]
    human = [f"{result.status}: quotient dim {result.quotient_dim} "
             f"({result.ambient_dim} ambient, rank {result.submodule_rank})"]
    ok = None if result.status == "inconclusive" else True
    return report(args, ok, payload, header, rows, human)


def cmd_flag_rank1(args) -> int:
    window = parse_window(args.window or "0:3", 1)[0]
    result = arrangement.flag_rank1_module_slice(window, margin=args.margin)
    lo, hi = window
    pair_ok = all(result.contains(arrangement.flag_pair_element(k)) for k in range(lo, hi + 1))
    step_ok = all(result.contains(arrangement.flag_step_element(k)) for k in range(lo + 1, hi + 1))
    payload = {
        "window": list(window),
        "ambient_dim": result.ambient_dim,
        "submodule_rank": result.space.rank,
        "quotient_dim": result.quotient_dim,
        "status": result.status,
        "margin": result.margin,
        "pair_classes_in_module": pair_ok,
        "step_classes_in_module": step_ok,
    }
    header = ["quotient_dim", "status", "pair_ok", "step_ok"]
    rows = [[result.quotient_dim, result.status, pair_ok, step_ok]]
    human = [f"{result.status}: quotient dim {result.quotient_dim}, "
             f"pair {'PASS' if pair_ok else 'FAIL'}, step {'PASS' if step_ok else 'FAIL'}"]
    if result.status == "inconclusive":
        ok = None
    else:
        ok = pair_ok and step_ok and result.quotient_dim == 1
    return report(args, ok, payload, header, rows, human)


def build_parser() -> Parser:
    parser = Parser(prog="gkmslice", description=__doc__)
    backend = "gmpy2" if HAVE_GMPY2 else "Fraction"
    parser.add_argument(
        "--version", action="version", version=f"gkmslice {__version__} (rationals: {backend})"
    )
    sub = parser.add_subparsers(dest="subcommand", parser_class=Parser)
    sub.required = True

    p = sub.add_parser("jd-series", help="bigraded slice ranks of a diagonal power")
    p.add_argument("--group", default="GL")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--maxdeg", type=int, default=8)
    p.add_argument("--method", choices=("spanning", "vanishing"), default="spanning")
    add_common(p)
    p.set_defaults(func=cmd_jd_series)

    p = sub.add_parser("catalan", help="bigraded generator table of the diagonal ideal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("spanning", "vanishing"), default="spanning")
    add_common(p)
    p.set_defaults(func=cmd_catalan)

    p = sub.add_parser("freeness", help="regular-sequence stage checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--maxdeg", type=int, default=8)
    p.add_argument("--method", choices=("spanning", "vanishing"), default="spanning")
    add_common(p)
    p.set_defaults(func=cmd_freeness)

    p = sub.add_parser("gkm-graph", help="emit a moment graph as JSON or DOT")
    p.add_argument("--group", required=True, help="GL2, SL2, B2, ..., or FLAG")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--window", default=None,
                   help="lo:hi per lattice dimension; negative bounds need --window=-8:8")
    add_common(p, formats=("json", "dot", "csv", "human"))
    p.set_defaults(func=cmd_gkm_graph)

    p = sub.add_parser("gkm-verify", help="residue conditions for a localized class")
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--window", default=None)
    p.add_argument("--class", dest="cls", default=None, help="b<k>, pair<k>, step<k>, constant")
    p.add_argument("--classes-file", default=None, help="JSON tuple-of-forms")
    add_common(p)
    p.set_defaults(func=cmd_gkm_verify)

    p = sub.add_parser("msv", help="assemble a curve counting series")
    p.add_argument("--curve", required=True, help="3,3 / 2,4 / 2,2 or a curve name")
    p.add_argument("--punctual", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_msv)

    p = sub.add_parser("conjecture-check", help="quotient slices vs the curve series")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--order", type=int, default=6)
    add_common(p)
    p.set_defaults(func=cmd_conjecture_check)

    p = sub.add_parser("compare-knot", help="punctual series vs a pinned link series")
    p.add_argument("--link", required=True, help="T24 or T33")
    add_common(p)
    p.set_defaults(func=cmd_compare_knot)

    p = sub.add_parser("ordinary-quotient", help="windowed lattice-module quotient")
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--ydeg", type=int, default=0)
    p.add_argument("--window", default=None)
    p.add_argument("--margin", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_ordinary_quotient)

    p = sub.add_parser("flag-rank1", help="rank-one flag module window slice")
    p.add_argument("--window", default=None)
    p.add_argument("--margin", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_flag_rank1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"gkmslice: error: {exc}\n")
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
