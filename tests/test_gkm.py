"""Moment graphs, localized classes, residue verification."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmslice.gkm import (
    LocalForm,
    VerifyReport,
    _UnionFind,
    build_flag_rank1_graph,
    build_gkm_graph,
    class_from_json,
    class_to_json,
    flag_constant_class,
    flag_rank1_classes,
    graph_to_dot,
    graph_to_json,
    linear_coeffs,
    linear_data,
    perturb_numerator,
    perturb_with_unit_pole,
    primitive_direction,
    residue_along,
    residue_antisymmetry_check,
    sl2_classes,
    specialize_t0,
    verify_residue_conditions,
    weight_ring,
)
from gkmslice.rationals import ONE, rat
from gkmslice.rings import MultiPoly
from gkmslice.rootdata import root_datum
from gkmslice.series import RationalSeries


def test_sl2_graph_shape_and_weights():
    rd = root_datum("SL2")
    g = build_gkm_graph(rd, 1, [(-2, 2)])
    assert len(g.vertices) == 5
    assert len(g.edges) == 4
    weights = {(a[0], b[0]): str(w) for a, b, w in g.edges}
    assert weights[(1, 0)] == "t + y"
    assert weights[(0, -1)] == "-t + y"


def test_sl2_graph_d2_adds_long_edges():
    rd = root_datum("SL2")
    g = build_gkm_graph(rd, 2, [(-2, 2)])
    # k = 1 edges: 4; k = 2 edges: 3
    assert len(g.edges) == 7
    pairs = {(a[0], b[0]) for a, b, w in g.edges}
    assert (2, 0) in pairs and (1, -1) in pairs


def test_gl2_edge_weight_uses_root_form():
    rd = root_datum("GL2")
    g = build_gkm_graph(rd, 1, [(0, 1), (0, 1)])
    assert len(g.edges) == 1
    (a, b, w) = g.edges[0]
    assert {a, b} == {(1, 0), (0, 1)}
    y1, y2 = MultiPoly.gen(w.ring, "y1"), MultiPoly.gen(w.ring, "y2")
    assert w == y1 - y2


@pytest.mark.parametrize("d,k", [(1, 0), (2, -1), (3, 2)])
def test_sl2_classes_verify(d, k):
    rd = root_datum("SL2")
    graph = build_gkm_graph(rd, d, [(-9, 9)])
    report = verify_residue_conditions(graph, sl2_classes(d, k))
    assert report.ok, report.failures


def test_perturbed_class_fails():
    rd = root_datum("SL2")
    graph = build_gkm_graph(rd, 2, [(-8, 8)])
    cls = sl2_classes(2, 0)
    vertex = next(iter(cls))
    bad = perturb_numerator(cls, vertex)
    report = verify_residue_conditions(graph, bad)
    assert not report.ok
    assert any(f["kind"] == "residue-sum-nonzero" for f in report.failures)


def _sl2_d2_graph():
    return build_gkm_graph(root_datum("SL2"), 2, [(-8, 8)])


@pytest.mark.parametrize(
    "vertex,den,kind",
    [
        ((100,), lambda y, t: (), "vertex-outside-window"),
        ((0,), lambda y, t: (y * y,), "bad-denominator"),
        ((0,), lambda y, t: (y,), "pole-not-an-edge"),
        ((0,), lambda y, t: (y - t, y - t), "pole-order-too-high"),
    ],
)
def test_structural_failure_kinds(vertex, den, kind):
    graph = _sl2_d2_graph()
    y = MultiPoly.gen(graph.ring, "y")
    t = MultiPoly.gen(graph.ring, "t")
    cls = {vertex: LocalForm(MultiPoly.one(graph.ring), den(y, t))}
    report = verify_residue_conditions(graph, cls)
    assert not report.ok
    assert [f["kind"] for f in report.failures] == [kind]
    assert report.characters_checked == report.components_checked == 0


def test_passing_class_counts():
    report = verify_residue_conditions(_sl2_d2_graph(), sl2_classes(2, 0))
    assert report.ok, report.failures
    assert report.characters_checked == 31
    assert report.components_checked == 3


def test_residue_antisymmetry():
    ok, res_j, res_jp = residue_antisymmetry_check(3, 1, 0, 2)
    assert ok
    assert (res_j + res_jp).num.is_zero()


def test_specialize_t0_closed_form():
    d, k = 2, -1
    got = specialize_t0(sl2_classes(d, k))
    rg = got.ring
    x = MultiPoly.gen(rg, "x")
    one = MultiPoly.one(rg)
    expected = MultiPoly.monomial(rg, (k, -d)) * (one - x) ** d
    assert got == expected


def test_flag_classes_verify_and_unit_pole_perturbation_fails():
    graph = build_flag_rank1_graph((-4, 4))
    for kind, k in (("pair", 0), ("pair", -2), ("step", 1), ("step", -1)):
        cls = flag_rank1_classes(kind, k)
        assert verify_residue_conditions(graph, cls).ok, (kind, k)
    const = flag_constant_class(graph)
    assert verify_residue_conditions(graph, const).ok
    rg = graph.ring
    y = MultiPoly.gen(rg, "y")
    vertex = (0, "e")
    bad = perturb_with_unit_pole(const, vertex, y)
    assert not verify_residue_conditions(graph, bad).ok


def test_class_json_round_trip():
    cls = sl2_classes(2, 1)
    rg = next(iter(cls.values())).num.ring
    obj = class_to_json(cls)
    back = class_from_json(obj, rg)
    assert set(back) == set(cls)
    for v in cls:
        assert back[v].num == cls[v].num
        assert back[v].den == cls[v].den


def test_flag_class_json_round_trip():
    graph = build_flag_rank1_graph((-2, 2))
    cls = flag_rank1_classes("pair", 1)
    obj = class_to_json(cls)
    back = class_from_json(obj, graph.ring)
    assert set(back) == set(cls)
    assert verify_residue_conditions(graph, back).ok


def test_graph_serialization():
    rd = root_datum("SL2")
    g = build_gkm_graph(rd, 1, [(-1, 1)])
    obj = graph_to_json(g)
    assert obj["vertices"] == ["-1", "0", "1"]
    assert len(obj["edges"]) == 2
    dot = graph_to_dot(g)
    assert dot.startswith("graph moment {")
    assert '"1" -- "0"' in dot


def test_flag_graph_edge_weights():
    g = build_flag_rank1_graph((0, 2))
    weights = {}
    for a, b, w in g.edges:
        weights[(a, b)] = str(w)
    # same-level edge at k: y + 2kt; cross edge (k+1,e)-(k,s): y + (2k+1)t
    assert weights[((0, "e"), (0, "s"))] == "y"
    assert weights[((1, "e"), (1, "s"))] == "2*t + y"
    assert weights[((1, "e"), (0, "s"))] == "t + y"


def _b2_line_class(graph):
    """Degree-2 class on the B2 line (1,1), (0,0), (-1,-1) along the coroot
    (1,1): slot j carries (-1)^j binom(2, j) (y2/3 + t) over the weights of
    the edges to the other two slots."""
    weight = {frozenset((a, b)): w for a, b, w in graph.edges}
    line = [(1, 1), (0, 0), (-1, -1)]
    num = MultiPoly.gen(graph.ring, "y2") * rat(1, 3) + MultiPoly.gen(graph.ring, "t")
    cls = {}
    for j, p in enumerate(line):
        den = tuple(weight[frozenset((p, q))] for q in line if q != p)
        cls[p] = LocalForm(num * ((-1) ** j * comb(2, j)), den)
    return cls


def _b2_graph():
    return build_gkm_graph(root_datum("B2"), 2, [(-1, 1), (-1, 1)])


def test_b2_pole_class_passes_and_its_perturbation_fails():
    graph = _b2_graph()
    cls = _b2_line_class(graph)
    report = verify_residue_conditions(graph, cls)
    assert report.ok, report.failures
    assert (report.characters_checked, report.components_checked) == (16, 3)
    bad = verify_residue_conditions(graph, perturb_numerator(cls, (0, 0)))
    # the records computed by per-call directions and substituted factors
    assert bad.failures == [
        {
            "kind": "residue-sum-nonzero",
            "character": "-t + 2*y2 + y1",
            "component": "(0, 0)",
            "residue": "(1/2) / ((t))",
        },
        {
            "kind": "residue-sum-nonzero",
            "character": "t + 2*y2 + y1",
            "component": "(1, 1)",
            "residue": "(-1/2) / ((t))",
        },
    ]


@pytest.mark.parametrize(
    "graph,cls,vertex",
    [
        (_b2_graph(), _b2_line_class(_b2_graph()), (0, 0)),
        (_sl2_d2_graph(), sl2_classes(2, 0), (1,)),
        (build_flag_rank1_graph((-3, 3)), flag_rank1_classes("pair", 1), (1, "e")),
    ],
    ids=["B2", "SL2", "FLAG"],
)
def test_verifying_a_graph_again_repeats_the_report(graph, cls, vertex):
    bad = perturb_numerator(cls, vertex)
    first = verify_residue_conditions(graph, cls)
    perturbed = verify_residue_conditions(graph, bad)
    assert verify_residue_conditions(graph, cls) == first
    assert verify_residue_conditions(graph, bad) == perturbed
    assert not perturbed.ok
    # a graph whose direction table was never built gives the same reports
    fresh = type(graph)(graph.label, graph.ring, graph.vertices, graph.edges)
    assert verify_residue_conditions(fresh, bad) == perturbed


def _substituted_residue(form, chi):
    """Residue along chi = 0 as computed before residue_along took linear
    data: directions compared per factor, and chi = 0 applied to the
    numerator and to every off-wall factor through MultiPoly.substitute."""
    rg = form.num.ring
    on_wall = [f for f in form.den if primitive_direction(f) == primitive_direction(chi)]
    off_wall = [f for f in form.den if primitive_direction(f) != primitive_direction(chi)]
    if len(on_wall) > 1:
        raise ValueError("pole of order > 1 along the character")
    if not on_wall:
        return RationalSeries.zero(rg)
    chi_c = linear_coeffs(chi)
    pivot = next(i for i, c in enumerate(chi_c) if c != 0)
    a = chi_c[pivot]
    ratio = linear_coeffs(on_wall[0])[pivot] / a
    image = MultiPoly.zero(rg)
    for i, c in enumerate(chi_c):
        if i != pivot and c != 0:
            image = image - MultiPoly.gen(rg, rg.names[i]) * (c / a)
    images = {rg.names[pivot]: image}
    num = form.num.substitute(images, rg) * (ONE / ratio)
    return RationalSeries(num, [(f.substitute(images, rg), 1) for f in off_wall])


_entry = st.one_of(st.just(rat(0)), st.builds(rat, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def _residue_cases(draw):
    rg = weight_ring(draw(st.sampled_from([1, 2])))
    n = rg.nvars

    def linear(vec):
        return MultiPoly(rg, {rg.unit_exp(i): c for i, c in enumerate(vec)})

    vector = st.lists(_entry, min_size=n, max_size=n).filter(any)
    chi = linear(draw(vector))
    den = [linear(v) for v in draw(st.lists(vector, max_size=3))]
    if draw(st.booleans()):  # a pole on the wall, at any position
        scale = draw(_entry.filter(bool))
        den.insert(draw(st.integers(0, len(den))), chi * scale)
    exps = st.tuples(*[st.integers(0, 2)] * n)
    num = MultiPoly(rg, draw(st.dictionaries(exps, _entry, max_size=4)))
    return LocalForm(num, tuple(den)), chi


@settings(max_examples=150, deadline=None)
@given(_residue_cases())
def test_residue_along_matches_substitution(case):
    form, chi = case
    try:
        expected = _substituted_residue(form, chi)
    except ValueError:
        with pytest.raises(ValueError):
            residue_along(form, linear_data(chi), [linear_data(f) for f in form.den])
        return
    got = residue_along(form, linear_data(chi), [linear_data(f) for f in form.den])
    assert got == expected
    assert str(got) == str(expected)


def _pairwise_report(graph, cls):
    """verify_residue_conditions for a class that fits the graph, with
    every residue a RationalSeries from residue_along and each component's
    residues added pairwise."""
    groups = {}
    for edge, direction in zip(graph.edges, graph.directions):
        groups.setdefault(direction, []).append(edge)
    report = VerifyReport(ok=True, characters_checked=len(groups))
    for direction in sorted(groups):
        chi = groups[direction][0][2]
        uf = _UnionFind()
        for a, b, _ in groups[direction]:
            uf.union(a, b)
        sums = {}
        for v, form in cls.items():
            if direction not in {primitive_direction(f) for f in form.den}:
                continue
            res = residue_along(form, linear_data(chi), [linear_data(f) for f in form.den])
            root = uf.find(v)
            sums[root] = res + sums[root] if root in sums else res
        for root in sorted(sums, key=repr):
            report.components_checked += 1
            if not sums[root].is_zero():
                report.add_failure(
                    "residue-sum-nonzero",
                    character=str(chi),
                    component=repr(root),
                    residue=str(sums[root]),
                )
    return report


_VERIFY_GRAPHS = {
    "SL2 d=1": build_gkm_graph(root_datum("SL2"), 1, [(-4, 4)]),
    "SL2 d=2": build_gkm_graph(root_datum("SL2"), 2, [(-4, 4)]),
    "SL2 d=3": build_gkm_graph(root_datum("SL2"), 3, [(-4, 4)]),
    "B2": _b2_graph(),
    "GL2 d=1": build_gkm_graph(root_datum("GL2"), 1, [(-1, 1), (-1, 1)]),
    "GL2 d=2": build_gkm_graph(root_datum("GL2"), 2, [(-1, 1), (-1, 1)]),
}


@st.composite
def _verify_cases(draw):
    """A known class on a small graph with up to three perturbations: 1
    added to a numerator, or a scaled unit pole along an incident edge
    weight that is not yet a pole there."""
    name = draw(st.sampled_from(sorted(_VERIFY_GRAPHS)))
    graph = _VERIFY_GRAPHS[name]
    if name.startswith("SL2"):
        d = int(name[-1])
        cls = sl2_classes(d, draw(st.integers(-4, 4 - d)))
    elif name == "B2":
        cls = _b2_line_class(graph)
    else:
        cls = flag_constant_class(graph)
    for _ in range(draw(st.integers(0, 3))):
        v = draw(st.sampled_from(sorted(cls)))
        if draw(st.booleans()):
            cls = perturb_numerator(cls, v)
            continue
        held = {primitive_direction(f) for f in cls[v].den}
        weights = [w for a, b, w in graph.edges if v in (a, b) and primitive_direction(w) not in held]
        if weights:
            w = draw(st.sampled_from(weights)) * draw(_entry.filter(bool))
            cls = perturb_with_unit_pole(cls, v, w)
    return graph, cls


@settings(max_examples=120, deadline=None)
@given(_verify_cases())
def test_verify_matches_pairwise_residue_sums(case):
    graph, cls = case
    assert verify_residue_conditions(graph, cls) == _pairwise_report(graph, cls)
