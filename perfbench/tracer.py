"""Spans around the public calls of each gkmslice module.

The benchmark wraps the calls from its own files; the program is not
changed. Each wrapper is installed in every namespace that bound the
wrapped object (a module that did `from .linalg import span`, or a class
whose `__rmul__ = __mul__`), so calls made through any of those names are
seen.

A span has a name, a start, an end, a parent and an operation id. The
parent is the innermost open span of the same thread; a span opened on a
pool thread with nothing open there gets the innermost open span of the
thread that runs the operations. Spans are folded into per-name totals
when they close: calls, total time, self time (duration minus the part
of it that child spans cover) and the longest span. Self time is also
summed per operation and layer. Counters record work done at the same
boundaries.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict

from gkmslice import arrangement, cli, curves, gkm, linalg, rings, series


def _count_useful(tracer, args, result):
    if result:
        tracer.count("linalg.insert.useful")


def _count_restrict(tracer, args, result):
    tracer.count("linalg.restrict.cols", len(args[1]))


def _count_monomials(tracer, args, result):
    tracer.count("rings.slice_monomials.count", len(result))


def _count_slice(tracer, args, result):
    tracer.count("arrangement.slice.basis_dim", len(result.basis))
    tracer.count("arrangement.slice.rank", result.rank)


def _count_quotient(tracer, args, result):
    tracer.count("arrangement.slice.basis_dim", result.ambient_dim)
    tracer.count("arrangement.slice.rank", result.submodule_rank)


def _count_flag_module(tracer, args, result):
    tracer.count("arrangement.slice.basis_dim", result.ambient_dim)
    tracer.count("arrangement.slice.rank", result.space.rank)


def _count_verify(tracer, args, result):
    tracer.count("gkm.verify.characters", result.characters_checked)
    tracer.count("gkm.verify.components", result.components_checked)


# (owner, attribute, span name, counter hook). Module-level owners are
# wrapped wherever gkmslice bound the same function.
TARGETS = [
    (linalg.Subspace, "insert", "linalg.insert", _count_useful),
    (linalg.Subspace, "contains", "linalg.contains", None),
    (linalg, "span", "linalg.span", None),
    (linalg, "sum_subspaces", "linalg.sum", None),
    (linalg, "intersect_subspaces", "linalg.intersect", None),
    (linalg, "kernel_of_rows", "linalg.kernel", None),
    (linalg, "restrict_to_columns", "linalg.restrict", _count_restrict),
    (rings.MultiPoly, "__mul__", "rings.mul", None),
    (rings.MultiPoly, "__pow__", "rings.pow", None),
    (rings.MultiPoly, "substitute", "rings.substitute", None),
    (rings.MultiPoly, "derivative", "rings.derivative", None),
    (rings, "slice_monomials", "rings.slice_monomials", _count_monomials),
    (rings, "poly_divide_exact", "rings.divide", None),
    (series.RationalSeries, "__init__", "series.normalize", None),
    (series.RationalSeries, "__add__", "series.add", None),
    (series.RationalSeries, "__mul__", "series.mul", None),
    (series.RationalSeries, "__eq__", "series.eq", None),
    (series.RationalSeries, "expand", "series.expand", None),
    (series.RationalSeries, "map_monomials", "series.map_monomials", None),
    (gkm, "build_gkm_graph", "gkm.build_graph", None),
    (gkm, "build_flag_rank1_graph", "gkm.build_graph", None),
    (gkm, "verify_residue_conditions", "gkm.verify", _count_verify),
    (gkm, "primitive_direction", "gkm.primitive_direction", None),
    (gkm, "residue_along", "gkm.residue_along", None),
    (arrangement, "jd_slice", "arrangement.jd_slice", _count_slice),
    (arrangement, "pair_ideal_slice", "arrangement.pair_ideal_slice", None),
    (arrangement, "ordinary_homology_quotient_slice", "arrangement.ordinary_quotient",
     _count_quotient),
    (arrangement, "flag_rank1_module_slice", "arrangement.flag_module", _count_flag_module),
    (curves, "conjecture_vs_msv", "curves.conjecture", None),
    (curves, "quotient_hilbert_slice", "curves.hilbert_slice", None),
    (curves, "quotient_relations_slice", "curves.relations_slice", None),
    (curves, "pair_diff_kernel", "curves.pair_diff_kernel", None),
    (curves, "msv_assemble", "curves.msv", None),
    (curves, "punctual_series", "curves.punctual", None),
    (curves, "knot_compare", "curves.knot_compare", None),
    (cli, "main", "cli.main", None),
    (cli, "render_json", "cli.render", None),
    (cli, "render_csv", "cli.render", None),
]

# Counted, in process CPU seconds, around each cli.main call.
CPU_SPAN = "cli.main"


class _Span:
    __slots__ = ("name", "parent", "op", "children")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.children = []  # (start, end) of closed child spans


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_stack = self._stack()
        self.op = None
        self.stats: dict = {}  # name -> [calls, total_s, self_s, max_s]
        self.counters: Counter = Counter()
        self.by_op: dict = defaultdict(Counter)  # op -> layer -> self_s

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n=1) -> None:
        with self._lock:
            self.counters[key] += n

    def _close(self, span: _Span, start: float, end: float) -> None:
        duration = end - start
        own = duration - _covered(span.children)
        with self._lock:
            entry = self.stats.get(span.name)
            if entry is None:
                entry = self.stats[span.name] = [0, 0.0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
            entry[3] = max(entry[3], duration)
            self.by_op[span.op][span.name.split(".")[0]] += own
            if span.parent is not None:
                span.parent.children.append((start, end))

    def wrap(self, name: str, fn, hook=None):
        tracer = self
        cpu = name == CPU_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._op_stack[-1] if tracer._op_stack else None
            span = _Span(name, parent, tracer.op)
            stack.append(span)
            cpu0 = time.process_time() if cpu else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if cpu:
                    tracer.count("cli.main.cpu_s", time.process_time() - cpu0)
                stack.pop()
                tracer._close(span, start, end)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every gkmslice namespace that bound it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "gkmslice" or name.startswith("gkmslice.")
        ]
        for owner, attr, name, hook in TARGETS:
            original = vars(owner)[attr]
            wrapped = self.wrap(name, original, hook)
            for place in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(place).items()):
                    if value is original:
                        setattr(place, key, wrapped)

    def report(self) -> dict:
        return {
            "stats": self.stats,
            "counters": dict(self.counters),
            "by_op": {str(op): dict(layers) for op, layers in self.by_op.items()},
        }
