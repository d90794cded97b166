"""Command-line entry point.

One executable, ten subcommands, machine-readable output. Exit codes:
0 for PASS/complete, 1 for a verified identity mismatch, 2 for an
inconclusive windowed computation (margin never stabilized), 64 for
malformed usage or an argument outside the library's domain (a
ValueError), 70 for an internal error (any other exception; the
traceback goes to stderr). JSON output is canonical: sorted keys,
two-space indent, rationals rendered "num/den". `--version` prints
the package version and the rational backend in use (gmpy2 or
Fraction).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
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


def emit(args, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def add_common(p: Parser, formats=("json", "csv", "human")) -> None:
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--output", default=None, help="write the report to this path")


def deg_key(deg: tuple[int, int]) -> str:
    return f"{deg[0]},{deg[1]}"


# ---- subcommand handlers ----


def cmd_jd_series(args) -> int:
    if args.group.strip().upper() != "GL":
        raise ValueError("jd-series supports --group GL (pointwise diagonals)")
    if args.maxdeg < 0:
        raise ValueError(f"--maxdeg must be >= 0, got {args.maxdeg}")
    degs = [
        (a, b)
        for total in range(args.maxdeg + 1)
        for a in range(total + 1)
        for b in [total - a]
    ]
    table = {
        deg: arrangement.jd_slice(args.n, args.d, deg, method=args.method).rank
        for deg in degs
    }
    if args.format == "json":
        payload = {
            "group": f"GL{args.n}",
            "n": args.n,
            "d": args.d,
            "maxdeg": args.maxdeg,
            "method": args.method,
            "table": {deg_key(deg): table[deg] for deg in degs},
        }
        emit(args, render_json(payload))
    elif args.format == "csv":
        rows = [[a, b, table[(a, b)]] for a, b in degs]
        emit(args, render_csv(["xdeg", "ydeg", "rank"], rows))
    else:
        lines = [f"GL{args.n} d={args.d} slice ranks (xdeg, ydeg) -> rank"]
        lines += [f"  ({a}, {b}) -> {table[(a, b)]}" for a, b in degs]
        emit(args, "\n".join(lines) + "\n")
    return EXIT_PASS


def cmd_catalan(args) -> int:
    report = arrangement.catalan_quotient(args.n, method=args.method)
    degs = sorted(report.table)
    if args.format == "json":
        payload = {
            "n": report.n,
            "method": report.method,
            "total": report.total,
            "top_degree": report.top_degree,
            "boundary_zero": report.boundary_zero,
            "table": {deg_key(deg): report.table[deg] for deg in degs},
        }
        emit(args, render_json(payload))
    elif args.format == "csv":
        rows = [[a, b, report.table[(a, b)]] for a, b in degs]
        emit(args, render_csv(["xdeg", "ydeg", "dim"], rows))
    else:
        lines = [f"n={report.n} total={report.total}"]
        lines += [f"  ({a}, {b}) -> {report.table[(a, b)]}" for a, b in degs]
        emit(args, "\n".join(lines) + "\n")
    return EXIT_PASS if report.boundary_zero else EXIT_MISMATCH


def cmd_freeness(args) -> int:
    report = arrangement.freeness_check(args.n, args.d, args.maxdeg, method=args.method)
    failed_stages = sorted({k for k, _ in report.failures})
    stages = [
        {"stage": k, "status": "FAIL" if k in failed_stages else "PASS"}
        for k in range(1, args.n + 1)
    ]
    if args.format == "json":
        payload = {
            "n": report.n,
            "d": report.d,
            "maxdeg": report.max_total,
            "ok": report.ok,
            "checks": report.stages_checked,
            "stages": stages,
            "failures": [
                {"stage": k, "bidegree": list(deg)} for k, deg in report.failures
            ],
        }
        emit(args, render_json(payload))
    elif args.format == "csv":
        rows = [[s["stage"], s["status"]] for s in stages]
        emit(args, render_csv(["stage", "status"], rows))
    else:
        lines = [f"stage {s['stage']}: {s['status']}" for s in stages]
        lines.append("PASS" if report.ok else "FAIL")
        emit(args, "\n".join(lines) + "\n")
    return EXIT_PASS if report.ok else EXIT_MISMATCH


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
    if args.format == "dot":
        emit(args, gkm.graph_to_dot(graph))
    elif args.format == "csv":
        rows = [
            [gkm.vertex_name(a), gkm.vertex_name(b), str(w)] for a, b, w in graph.edges
        ]
        emit(args, render_csv(["a", "b", "weight"], rows))
    elif args.format == "human":
        lines = [f"{graph.label}: {len(graph.vertices)} vertices, {len(graph.edges)} edges"]
        lines += [
            f"  {gkm.vertex_name(a)} -- {gkm.vertex_name(b)}  [{w}]"
            for a, b, w in graph.edges
        ]
        emit(args, "\n".join(lines) + "\n")
    else:
        emit(args, render_json(gkm.graph_to_json(graph)))
    return EXIT_PASS


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
        name = args.classes_file
    elif args.cls:
        cls = named_class(graph, args.cls, args.d)
        name = args.cls
    else:
        raise ValueError("gkm-verify needs --class or --classes-file")
    report = gkm.verify_residue_conditions(graph, cls)
    misfits = [f["kind"] for f in report.failures if f["kind"] in gkm.STRUCTURAL_FAILURES]
    if misfits and not args.classes_file:
        # a named class that does not fit the graph is a usage error
        raise ValueError(f"class {name!r} does not fit {graph.label} ({misfits[0]})")
    status = "PASS" if report.ok else "FAIL"
    if args.format == "json":
        payload = {
            "graph": graph.label,
            "class": name,
            "status": status,
            "characters_checked": report.characters_checked,
            "components_checked": report.components_checked,
            "failures": report.failures,
        }
        emit(args, render_json(payload))
    elif args.format == "csv":
        rows = [[f["kind"], jsonable(f)] for f in report.failures]
        emit(args, render_csv(["kind", "detail"], rows))
    else:
        lines = [f"{status}: class {name} on {graph.label}"]
        lines += [f"  {jsonable(f)}" for f in report.failures]
        emit(args, "\n".join(lines) + "\n")
    return EXIT_PASS if report.ok else EXIT_MISMATCH


def cmd_msv(args) -> int:
    key = args.curve.strip().lower().replace(" ", "")
    found = [
        (n, curve) for (n, dn), curve in curves.CURVES.items() if key in (f"{n},{dn}", curve.name)
    ]
    if not found:
        keys = " / ".join(f"{n},{dn}" for n, dn in curves.CURVES)
        raise ValueError(f"unknown curve {args.curve!r} (use {keys} or a name)")
    branches, curve = found[0]
    name = curve.name
    series = curve.series()
    match = series == curve.closed_form()
    if args.punctual:
        series = curves.punctual_series(series, branches)
    payload = {
        "curve": name,
        "status": "PASS" if match else "FAIL",
        "closed_form_match": match,
        "punctual": bool(args.punctual),
        "punctual_factor": curves.PUNCTUAL_FACTOR,
        "alternate_factor": curves.ALTERNATE_FACTOR,
        "series": series_to_json(series),
        "first_mismatch": None,
    }
    if args.format == "json":
        emit(args, render_json(payload))
    elif args.format == "csv":
        emit(args, render_csv(["curve", "status"], [[name, payload["status"]]]))
    else:
        emit(args, f"{payload['status']}: {name} series assembled\n")
    return EXIT_PASS if match else EXIT_MISMATCH


def cmd_conjecture_check(args) -> int:
    report = curves.conjecture_vs_msv(args.n, args.d, order=args.order)
    first = None
    if report.mismatches:
        deg, coeff, dim = report.mismatches[0]
        first = {"bidegree": list(deg), "series_coefficient": coeff, "quotient_dim": dim}
    if args.format == "json":
        payload = {
            "n": report.n,
            "d": report.d,
            "order": report.order,
            "reference": report.reference_name,
            "status": "PASS" if report.ok else "MISMATCH",
            "first_mismatch": first,
            "table": {deg_key(deg): v for deg, v in sorted(report.table.items())},
        }
        emit(args, render_json(payload))
    elif args.format == "csv":
        rows = [[a, b, v] for (a, b), v in sorted(report.table.items())]
        emit(args, render_csv(["qdeg", "tdeg", "dim"], rows))
    else:
        status = "PASS" if report.ok else f"MISMATCH at {first['bidegree']}"
        emit(args, f"{status}: ({args.n},{args.d}) vs {report.reference_name}"
                   f" through q-order {args.order}\n")
    return EXIT_PASS if report.ok else EXIT_MISMATCH


def cmd_compare_knot(args) -> int:
    report = curves.knot_compare(args.link)
    name = report.link
    normalization = f"T^{report.shift}" if report.shift is not None else None
    payload = {
        "link": name,
        "status": "PASS" if report.ok else "FAIL",
        "equal": report.ok,
        "normalization": normalization,
        "factor_used": curves.PUNCTUAL_FACTOR,
        "alternate_factor": curves.ALTERNATE_FACTOR,
        "first_mismatch": None if report.ok else "series differ beyond a T power",
    }
    if args.format == "json":
        emit(args, render_json(payload))
    elif args.format == "csv":
        emit(args, render_csv(
            ["link", "equal", "normalization"], [[name, report.ok, normalization]]
        ))
    else:
        emit(args, f"{payload['status']}: {name} normalization {normalization}\n")
    return EXIT_PASS if report.ok else EXIT_MISMATCH


def cmd_ordinary_quotient(args) -> int:
    rd = root_datum(args.group, args.n)
    window = parse_window(args.window or "0:1", rd.rank)
    result = arrangement.ordinary_homology_quotient_slice(
        rd, args.d, args.ydeg, window, margin=args.margin
    )
    generators = [str(p) for p in result.submodule.row_polys()]
    if args.format == "json":
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
            "submodule_rows": generators,
        }
        emit(args, render_json(payload))
    elif args.format == "csv":
        emit(args, render_csv(
            ["ambient_dim", "submodule_rank", "quotient_dim", "status"],
            [[result.ambient_dim, result.submodule_rank, result.quotient_dim, result.status]],
        ))
    else:
        emit(args, f"{result.status}: quotient dim {result.quotient_dim} "
                   f"({result.ambient_dim} ambient, rank {result.submodule_rank})\n")
    return EXIT_PASS if result.status in ("exact", "stabilized") else EXIT_INCONCLUSIVE


def cmd_flag_rank1(args) -> int:
    window = parse_window(args.window or "0:3", 1)[0]
    result = arrangement.flag_rank1_module_slice(window, margin=args.margin)
    lo, hi = window
    pair_ok = all(result.contains(arrangement.flag_pair_element(k)) for k in range(lo, hi + 1))
    step_ok = all(result.contains(arrangement.flag_step_element(k)) for k in range(lo + 1, hi + 1))
    identity_ok = pair_ok and step_ok and result.quotient_dim == 1
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
    if args.format == "json":
        emit(args, render_json(payload))
    elif args.format == "csv":
        emit(args, render_csv(
            ["quotient_dim", "status", "pair_ok", "step_ok"],
            [[result.quotient_dim, result.status, pair_ok, step_ok]],
        ))
    else:
        emit(args, f"{result.status}: quotient dim {result.quotient_dim}, "
                   f"pair {'PASS' if pair_ok else 'FAIL'}, step {'PASS' if step_ok else 'FAIL'}\n")
    if result.status == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_PASS if identity_ok else EXIT_MISMATCH


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
