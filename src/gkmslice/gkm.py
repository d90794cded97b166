"""Moment graphs for lattice windows and localized class verification.

Vertices are lattice points inside a finite window (or (point, coset)
pairs for the rank-one flag variant). An edge joins two points differing
by k times a positive coroot, 1 <= k <= d; its weight is the affine
character y_alpha + (<alpha, lam> - k) t, a linear form in the y
variables and t.

A localized class assigns some vertices a rational form num / prod of
affine-linear factors. Verification checks the two residue conditions:
every pole is simple and parallel to an incident edge weight, and for
each character chi the residues along chi = 0 sum to zero on every
connected component of the chi-subgraph.

Each graph computes the primitive directions of its edge weights once
(GkmGraph.directions) and each verification computes those of the
class's denominator factors once, next to their coefficient vectors.
Residues are computed in integer direction arithmetic: with d chi's
primitive direction and p its first nonzero index, a factor s e off the
wall chi = 0 (e its primitive direction) restricts to (s / d_p) w, where
w = d_p e - e_p d is an integer vector. A residue is its numerator over
a product of such vectors made primitive (keys), with every scalar
folded into the numerator. The residues of a component are summed once
over their common denominator, the largest multiplicity of each key, and
the residue condition holds when that integer-keyed numerator sum is
zero. A RationalSeries is built only for a nonzero sum, to print the
failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb, gcd
from typing import Any, Mapping, Sequence

from .rationals import ONE, rat, rat_parts
from .rings import MultiPoly, Ring, poly_from_json, poly_to_json, ring
from .rootdata import RootDatum
from .series import RationalSeries

VertexKey = Any  # lattice tuple, or (level, "e"/"s") for the flag graph


def y_names(yrank: int) -> list[str]:
    return ["y"] if yrank == 1 else [f"y{i+1}" for i in range(yrank)]


def weight_ring(yrank: int) -> Ring:
    return ring(y_names(yrank) + ["t"])


@dataclass(frozen=True)
class GkmGraph:
    label: str
    ring: Ring  # (y..., t)
    vertices: tuple[VertexKey, ...]
    edges: tuple[tuple[VertexKey, VertexKey, MultiPoly], ...]

    @cached_property
    def directions(self) -> tuple[tuple[int, ...], ...]:
        """Primitive direction of each edge weight, in edge order."""
        return tuple(primitive_direction(w) for _, _, w in self.edges)


def lattice_window(bounds: Sequence[tuple[int, int]]) -> list[tuple[int, ...]]:
    """All lattice points of a coordinate box, sorted."""
    pts = [()]
    for lo, hi in bounds:
        if lo > hi:
            raise ValueError("empty window")
        pts = [p + (e,) for p in pts for e in range(lo, hi + 1)]
    return sorted(pts)


def build_gkm_graph(rd: RootDatum, d: int, bounds: Sequence[tuple[int, int]]) -> GkmGraph:
    """Moment graph of the degree-d lattice window for a root datum.

    bounds has one (lo, hi) pair per lattice coordinate. d = 0 gives an
    edgeless graph.
    """
    if len(bounds) != rd.rank:
        raise ValueError(f"need {rd.rank} window bounds, got {len(bounds)}")
    if d < 0:
        raise ValueError("d must be nonnegative")
    rg = weight_ring(rd.yrank)
    names = y_names(rd.yrank)
    verts = lattice_window(bounds)
    vset = set(verts)
    edges = []
    for lam in verts:
        for i in range(rd.npos):
            cor = rd.coroots[i]
            for k in range(1, d + 1):
                mu = tuple(a - k * c for a, c in zip(lam, cor))
                if mu not in vset:
                    continue
                m = rd.pair(i, lam) - k
                weight = rd.root_form(rg, i, names) + MultiPoly.gen(rg, "t") * m
                edges.append((lam, mu, weight))
    edges.sort(key=lambda e: (e[0], e[1]))
    return GkmGraph(
        label=f"{rd.label} d={d}", ring=rg, vertices=tuple(verts), edges=tuple(edges)
    )


def build_flag_rank1_graph(bounds: tuple[int, int], d: int = 1) -> GkmGraph:
    """Rank-one affine flag moment graph over levels in `bounds` (d = 1 only).

    Vertices are (level, "e") and (level, "s"). Level k carries an edge
    (k,e)-(k,s) of weight y + 2kt and an edge (k+1,e)-(k,s) of weight
    y + (2k+1)t.
    """
    if d != 1:
        raise ValueError("flag graph implemented for d = 1 only")
    lo, hi = bounds
    rg = weight_ring(1)
    y = MultiPoly.gen(rg, "y")
    t = MultiPoly.gen(rg, "t")
    verts = [(k, w) for k in range(lo, hi + 1) for w in ("e", "s")]
    edges = []
    for k in range(lo, hi + 1):
        edges.append(((k, "e"), (k, "s"), y + 2 * k * t))
        if k + 1 <= hi:
            edges.append(((k + 1, "e"), (k, "s"), y + (2 * k + 1) * t))
    edges.sort(key=lambda e: (e[0], e[1]))
    return GkmGraph(label=f"flag-rank1 d={d}", ring=rg, vertices=tuple(sorted(verts)), edges=tuple(edges))


@dataclass(frozen=True)
class LocalForm:
    """num / prod(den); every den entry must stay affine-linear."""

    num: MultiPoly
    den: tuple[MultiPoly, ...] = ()


ClassTuple = dict  # VertexKey -> LocalForm


def linear_coeffs(p: MultiPoly) -> tuple:
    """Coefficient vector of a homogeneous linear form; errors otherwise."""
    coeffs = [rat(0)] * p.ring.nvars
    for exp, c in p.terms.items():
        if sum(exp) != 1 or min(exp) < 0:
            raise ValueError(f"not a linear form: {p}")
        coeffs[exp.index(1)] = c
    return tuple(coeffs)


def primitive_direction(p: MultiPoly) -> tuple[int, ...]:
    """Integer direction vector of a linear form, first nonzero positive."""
    coeffs = linear_coeffs(p)
    den_lcm = 1
    for c in coeffs:
        den_lcm = den_lcm * rat_parts(c)[1] // gcd(den_lcm, rat_parts(c)[1])
    ints = [int(c * den_lcm) for c in coeffs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g == 0:
        raise ValueError("zero linear form has no direction")
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


Linear = tuple[tuple[int, ...], tuple]  # (primitive direction, coefficient vector)


def linear_data(p: MultiPoly) -> Linear:
    """Primitive direction and coefficient vector of a linear form."""
    return primitive_direction(p), linear_coeffs(p)


Key = tuple[int, ...]  # primitive integer vector, first nonzero entry positive
ResidueTerms = tuple[MultiPoly, dict]  # (numerator, {Key: multiplicity})


def _residue_terms(form: LocalForm, chi: Linear, factors: Sequence[Linear]) -> ResidueTerms | None:
    """Residue of the form along chi = 0 as numerator / prod key^m.

    None when the form has no pole parallel to chi; errors on a higher
    order pole. With d chi's direction and p its pivot (first nonzero
    index, d_p > 0), the numerator is substituted at chi = 0 when it
    holds the p-th variable, and scaled by chi_p / g_p for the on-wall
    factor g. An off-wall factor s e (e its direction) restricts to
    (s / d_p) w with the integer vector w = d_p e - e_p d; w made
    primitive is the factor's key, and the scalars of all factors fold
    into one rational.
    """
    rg = form.num.ring
    direction, chi_c = chi
    on_wall = [c for dvec, c in factors if dvec == direction]
    if len(on_wall) > 1:
        raise ValueError("pole of order > 1 along the character")
    if not on_wall:
        return None
    pivot = next(i for i, c in enumerate(chi_c) if c != 0)
    a = chi_c[pivot]
    top, bottom = rat_parts(a / on_wall[0][pivot])
    d_p = direction[pivot]
    keys: dict = {}
    for e, f_c in factors:
        if e == direction:
            continue
        w = [d_p * e_i - e[pivot] * d_i for e_i, d_i in zip(e, direction)]
        g = gcd(*w)
        if next(v for v in w if v) < 0:
            g = -g
        key = tuple(v // g for v in w)
        keys[key] = keys.get(key, 0) + 1
        # f = s e with s = f_j / e_j at e's first nonzero index j, and
        # f restricts to (s g / d_p) key: divide by that scalar
        j = next(i for i, v in enumerate(e) if v)
        s_num, s_den = rat_parts(f_c[j])
        top *= d_p * s_den * e[j]
        bottom *= s_num * g
    num = form.num
    if any(exp[pivot] for exp in num.terms):
        image = MultiPoly.zero(rg)
        for i, c in enumerate(chi_c):
            if i != pivot and c != 0:
                image = image - MultiPoly.gen(rg, rg.names[i]) * (c / a)
        num = num.substitute({rg.names[pivot]: image}, rg)
    return num * rat(top, bottom), keys


def _key_poly(rg: Ring, key: Key) -> MultiPoly:
    return MultiPoly(rg, {rg.unit_exp(i): rat(v) for i, v in enumerate(key) if v}, _clean=True)


def _as_series(num: MultiPoly, keys: dict) -> RationalSeries:
    return RationalSeries(num, [(_key_poly(num.ring, k), m) for k, m in keys.items()])


def residue_along(form: LocalForm, chi: Linear, factors: Sequence[Linear]) -> RationalSeries:
    """Residue of the form along the hyperplane chi = 0.

    chi is the character's linear_data and factors[i] that of form.den[i].
    Zero when the form has no pole parallel to chi; errors on a higher
    order pole. The result depends on the scale of chi only through a
    global factor, so zero-tests of residue sums are scale independent.
    """
    terms = _residue_terms(form, chi, factors)
    return RationalSeries.zero(form.num.ring) if terms is None else _as_series(*terms)


def _residue_sum(residues: Sequence[ResidueTerms]) -> tuple[MultiPoly, dict]:
    """(numerator, {Key: multiplicity}) of a nonempty sum of residues over
    their common denominator: each key at its largest multiplicity."""
    rg = residues[0][0].ring
    den: dict = {}
    for _, keys in residues:
        for k, m in keys.items():
            if m > den.get(k, 0):
                den[k] = m
    polys = {k: _key_poly(rg, k) for k in den}
    total = MultiPoly.zero(rg)
    for num, keys in residues:
        for k, m in den.items():
            missing = m - keys.get(k, 0)
            if missing:
                num = num * polys[k] ** missing
        total = total + num
    return total, den


# Failure kinds that say a class does not fit the graph; residue sums are
# checked only when none of them occurs.
STRUCTURAL_FAILURES = frozenset(
    ("vertex-outside-window", "bad-denominator", "pole-not-an-edge", "pole-order-too-high")
)


@dataclass
class VerifyReport:
    ok: bool
    characters_checked: int = 0
    components_checked: int = 0
    failures: list = field(default_factory=list)

    def add_failure(self, kind: str, **info):
        self.ok = False
        self.failures.append({"kind": kind, **info})


class _UnionFind:
    """Union-find over the vertices it has seen; any other vertex is a root."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        while parent.get(x, x) != x:
            up = parent[x]
            parent[x] = parent.get(up, up)
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def verify_residue_conditions(graph: GkmGraph, cls: ClassTuple) -> VerifyReport:
    """Check a localized class tuple against the moment graph.

    Conditions: support inside the window; each denominator factor is
    parallel to an incident edge weight and no two factors at one vertex
    are parallel (simple poles); for every edge character chi, residues
    along chi = 0 sum to zero over each connected component of the
    chi-subgraph.

    Edge directions come from the graph's direction table; each factor's
    direction and coefficient vector are computed once, in the pole pass.
    Only characters along which the class has a pole get a union-find of
    their subgraph. Each residue is a numerator over integer keys (see
    _residue_terms); a component's residues are summed once over their
    common denominator, and that numerator is tested for zero. A nonzero
    sum is reported as the RationalSeries it defines, whose normal form
    is unique because the keys are linear and pairwise non-associate.
    """
    report = VerifyReport(ok=True)
    groups: dict[tuple, list] = {}  # direction -> its edges, in edge order
    incident: dict[VertexKey, set] = {v: set() for v in graph.vertices}
    for edge, direction in zip(graph.edges, graph.directions):
        groups.setdefault(direction, []).append(edge)
        incident[edge[0]].add(direction)
        incident[edge[1]].add(direction)
    for v in cls:
        if v not in incident:
            report.add_failure("vertex-outside-window", vertex=repr(v))
            return report
    # pole positions and orders
    holders: dict[tuple, list] = {}  # direction -> vertices with a pole along it
    factors: dict[VertexKey, list] = {}  # vertex -> linear_data of each factor
    for v in sorted(cls, key=repr):
        seen = set()
        data = factors[v] = []
        for f in cls[v].den:
            try:
                linear = linear_data(f)
            except ValueError:
                report.add_failure("bad-denominator", vertex=repr(v), factor=str(f))
                continue
            direction = linear[0]
            if direction not in incident[v]:
                report.add_failure(
                    "pole-not-an-edge", vertex=repr(v), factor=str(f)
                )
            if direction in seen:
                report.add_failure(
                    "pole-order-too-high", vertex=repr(v), factor=str(f)
                )
            seen.add(direction)
            holders.setdefault(direction, []).append(v)
            data.append(linear)
    if not report.ok:
        return report
    # residue sums per character and component
    report.characters_checked = len(groups)
    for direction in sorted(holders):
        group = groups[direction]
        chi = group[0][2]
        chi_data = (direction, linear_coeffs(chi))
        uf = _UnionFind()
        for a, b, _ in group:
            uf.union(a, b)
        components: dict = {}  # root -> residue terms of its vertices
        for v in holders[direction]:
            terms = _residue_terms(cls[v], chi_data, factors[v])
            components.setdefault(uf.find(v), []).append(terms)
        for root in sorted(components, key=repr):
            report.components_checked += 1
            total, den = _residue_sum(components[root])
            if not total.is_zero():
                report.add_failure(
                    "residue-sum-nonzero",
                    character=str(chi),
                    component=repr(root),
                    residue=str(_as_series(total, den)),
                )
    return report


# ---- classes for the rank-one lattice (d fibers) ----


def smearing_factors(d: int, k: int, j: int, rg: Ring) -> list[MultiPoly]:
    """Denominator factors at slot j: y + (2k + i + j) t for i in 0..d, i != j."""
    y = MultiPoly.gen(rg, "y")
    t = MultiPoly.gen(rg, "t")
    return [y + (2 * k + i + j) * t for i in range(d + 1) if i != j]


def sl2_classes(d: int, k: int) -> ClassTuple:
    """Degree-d homology class supported on lattice points k..k+d.

    Entry at k+j is (-1)^j binom(d, j) / prod_{i != j} (y + (2k+i+j) t).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    rg = weight_ring(1)
    cls: ClassTuple = {}
    for j in range(d + 1):
        num = MultiPoly.constant(rg, (-1) ** j * comb(d, j))
        cls[(k + j,)] = LocalForm(num, tuple(smearing_factors(d, k, j, rg)))
    return cls


def residue_antisymmetry_check(d: int, k: int, j: int, jp: int) -> tuple[bool, RationalSeries, RationalSeries]:
    """Residues of slots j and jp along their shared pole are opposite.

    The shared factor is y + (2k + j + jp) t; returns (ok, res_j, res_jp).
    """
    if not 0 <= j < jp <= d:
        raise ValueError("need 0 <= j < jp <= d")
    cls = sl2_classes(d, k)
    rg = weight_ring(1)
    y = MultiPoly.gen(rg, "y")
    t = MultiPoly.gen(rg, "t")
    chi = linear_data(y + (2 * k + j + jp) * t)

    def residue(v) -> RationalSeries:
        form = cls[v]
        return residue_along(form, chi, [linear_data(f) for f in form.den])

    res_j, res_jp = residue((k + j,)), residue((k + jp,))
    ok = (res_j + res_jp).is_zero() and not res_j.is_zero()
    return ok, res_j, res_jp


def specialize_t0(cls: ClassTuple) -> MultiPoly:
    """Set t = 0 in a rank-one lattice class tuple.

    Each denominator factor must keep a nonzero y part (no residual t
    poles); the entry at lattice point (a,) becomes x^a times a Laurent
    monomial in y. Returns one polynomial in the Laurent ring (x, y).
    """
    out_ring = ring(["x", "y"], laurent=["x", "y"])
    total = MultiPoly.zero(out_ring)
    for v in sorted(cls):
        form = cls[v]
        if len(v) != 1 or not isinstance(v[0], int):
            raise ValueError("t = 0 specialization needs rank-one lattice keys")
        scale = ONE
        order = 0
        for f in form.den:
            coeffs = linear_coeffs(f)
            y_part = coeffs[f.ring.index("y")]
            if y_part == 0:
                raise ValueError(f"residual t pole at vertex {v}: {f}")
            scale = scale * y_part
            order += 1
        num0 = form.num.specialize("t", 0)
        for exp, c in num0.terms.items():
            ydeg = exp[num0.ring.index("y")]
            key = (v[0], ydeg - order)
            total = total + MultiPoly.monomial(out_ring, key, c / scale)
    return total


# ---- classes for the rank-one affine flag graph ----


def flag_rank1_classes(kind: str, k: int = 0) -> ClassTuple:
    """Pole-carrying basis classes on the rank-one flag graph.

    kind "pair": 1/(y+2kt) at (k,e) and -1/(y+2kt) at (k,s).
    kind "step": 1/(y+(2k-1)t) at (k,e) and -1/(y+(2k-1)t) at (k-1,s).
    The constant class lives in flag_constant_class (needs the window).
    """
    rg = weight_ring(1)
    y = MultiPoly.gen(rg, "y")
    t = MultiPoly.gen(rg, "t")
    one = MultiPoly.one(rg)
    if kind == "pair":
        w = y + 2 * k * t
        return {(k, "e"): LocalForm(one, (w,)), (k, "s"): LocalForm(-one, (w,))}
    if kind == "step":
        w = y + (2 * k - 1) * t
        return {(k, "e"): LocalForm(one, (w,)), (k - 1, "s"): LocalForm(-one, (w,))}
    raise ValueError(f"unknown flag class kind {kind!r}")


def flag_constant_class(graph: GkmGraph) -> ClassTuple:
    one = MultiPoly.one(graph.ring)
    return {v: LocalForm(one, ()) for v in graph.vertices}


# ---- perturbations used by falsification tests ----


def perturb_numerator(cls: ClassTuple, vertex: VertexKey) -> ClassTuple:
    """Add 1 to one entry's numerator over the same denominator."""
    out = dict(cls)
    form = out[vertex]
    out[vertex] = LocalForm(form.num + 1, form.den)
    return out


def perturb_with_unit_pole(cls: ClassTuple, vertex: VertexKey, weight: MultiPoly) -> ClassTuple:
    """Add 1/weight to one entry: num/den + 1/weight over the merged den."""
    out = dict(cls)
    form = out[vertex]
    out[vertex] = LocalForm(
        form.num * weight + _product(form.den, weight.ring), form.den + (weight,)
    )
    return out


def _product(factors: Sequence[MultiPoly], rg: Ring) -> MultiPoly:
    out = MultiPoly.one(rg)
    for f in factors:
        out = out * f
    return out


# ---- serialization ----


def vertex_name(v: VertexKey) -> str:
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    return str(v)


def graph_to_json(graph: GkmGraph) -> dict:
    return {
        "label": graph.label,
        "ring": list(graph.ring.names),
        "vertices": [vertex_name(v) for v in graph.vertices],
        "edges": [
            {"a": vertex_name(a), "b": vertex_name(b), "weight": str(w)}
            for a, b, w in graph.edges
        ],
    }


def graph_to_dot(graph: GkmGraph) -> str:
    lines = ["graph moment {"]
    for v in graph.vertices:
        lines.append(f'  "{vertex_name(v)}";')
    for a, b, w in graph.edges:
        lines.append(f'  "{vertex_name(a)}" -- "{vertex_name(b)}" [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def class_to_json(cls: ClassTuple) -> dict:
    """Serialize a tuple of local forms; vertices sort in key order."""
    entries = []
    for v in sorted(cls.keys()):
        form = cls[v]
        entries.append(
            {
                "vertex": list(v),
                "num": poly_to_json(form.num),
                "den": [poly_to_json(f) for f in form.den],
            }
        )
    return {"entries": entries}


def class_from_json(obj: Mapping, rg: Ring) -> ClassTuple:
    cls: ClassTuple = {}
    for entry in obj["entries"]:
        raw = entry["vertex"]
        v = tuple(x if isinstance(x, str) else int(x) for x in raw)
        num = poly_from_json(entry["num"], rg)
        den = tuple(poly_from_json(f, rg) for f in entry["den"])
        cls[v] = LocalForm(num, den)
    return cls
