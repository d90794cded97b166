"""Diagonal ideal slices, quotients, and windowed lattice modules."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmslice.arrangement import (
    _flag_steps,
    _generated_slice,
    _lattice_steps,
    _reduced_table,
    _relation_generators,
    _root_families,
    _shift_ranks,
    _shift_rows,
    _vanishing,
    _window_dict,
    alternant,
    alternant_slice,
    bigraded_ring,
    catalan_quotient,
    derivation_kernel,
    flag_pair_element,
    flag_rank1_module_slice,
    flag_step_element,
    freeness_check,
    full_slice,
    jd_dimensions,
    jd_root_slice,
    jd_slice,
    lattice_grading,
    lattice_ring,
    ordinary_homology_quotient_slice,
    pair_ideal_slice,
    symbolic_power_oracle,
    vanishing_slice,
    xy_ring,
)
from gkmslice.gkm import y_names
from gkmslice.linalg import (
    SliceBasis,
    Subspace,
    intersect_subspaces,
    kernel_of_rows,
    restrict_to_columns,
)
from gkmslice.rings import MultiPoly, grading_for, ring, slice_monomials
from gkmslice.rootdata import root_datum


def xy_gens(n):
    rg = xy_ring(n)
    xs = [MultiPoly.gen(rg, f"x{i+1}") for i in range(n)]
    ys = [MultiPoly.gen(rg, f"y{i+1}") for i in range(n)]
    return rg, xs, ys


def test_generated_slice_product_outside_basis():
    # x^2 tagged (1, 0) is multiplied by x and y into degree 3, outside
    # the basis of degree (2, 0), which is an error
    rg = ring(["x", "y"])
    grading = grading_for(rg, {"x": (1, 0), "y": (1, 0)})
    x = MultiPoly.gen(rg, "x")
    with pytest.raises(KeyError):
        _generated_slice(rg, grading, (2, 0), [[(x**2, (1, 0))]])


def test_pair_slice_rank():
    assert pair_ideal_slice(2, (1, 2), 1, (1, 1)).rank == 3
    assert pair_ideal_slice(2, (1, 2), 2, (1, 1)).rank == 1


def test_jd_slice_pure_x():
    result = jd_slice(2, 2, (2, 0))
    assert result.rank == 1
    rg, xs, ys = xy_gens(2)
    assert result.contains(((xs[0] - xs[1]) ** 2).terms)


def test_jd_membership_examples():
    rg, xs, ys = xy_gens(2)
    s = jd_slice(2, 1, (1, 1))
    assert s.contains(((xs[0] - xs[1]) * (ys[0] - ys[1])).terms)
    assert not s.contains((xs[0] * ys[0]).terms)
    # a member of the ideal in another bidegree has keys outside the slice basis
    assert not s.contains(((xs[0] - xs[1]) * (ys[0] - ys[1]) * xs[0]).terms)


def test_oracle_detects_vanishing_order():
    rg, xs, ys = xy_gens(2)
    f = (xs[0] - xs[1]) ** 2 * (ys[0] - ys[1])
    assert symbolic_power_oracle(f, 2, 3)
    assert not symbolic_power_oracle(f, 2, 4)
    assert symbolic_power_oracle(MultiPoly.zero(rg), 2, 5)


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_spanning_matches_vanishing_pipeline(n, d):
    for total in range(0, 5):
        for a in range(total + 1):
            deg = (a, total - a)
            lhs = jd_slice(n, d, deg, method="spanning")
            rhs = vanishing_slice(n, d, deg)
            assert lhs.space == rhs.space, (n, d, deg)


@pytest.mark.parametrize("d", [1, 2])
def test_spanning_matches_intersected_pair_slices(d):
    # one multi-family build against the pair slices intersected one by one
    for total in range(0, 6):
        for a in range(total + 1):
            deg = (a, total - a)
            pairs = [pair_ideal_slice(3, pair, d, deg).space for pair in [(1, 2), (1, 3), (2, 3)]]
            folded = intersect_subspaces(intersect_subspaces(pairs[0], pairs[1]), pairs[2])
            assert jd_slice(3, d, deg).space == folded, (d, deg)


def lattice_case(group, window):
    rd = root_datum(group)
    return rd, lattice_ring(rd), [window] * rd.rank


@pytest.mark.parametrize(
    "group,d,ydeg,window",
    [("GL3", 1, 2, (0, 1)), ("B2", 1, 2, (-1, 1)), ("G2", 1, 1, (-2, 2))],
    ids=["GL3", "B2", "G2"],
)
def test_windowed_families_match_single_family_intersections(group, d, ydeg, window):
    rd, rg, bounds = lattice_case(group, window)
    families = _root_families(rd, rg, d, ydeg)

    def build(fams):
        return _lattice_steps(rd, rg, ydeg, bounds, fams)(2 * d)

    together = build(families)
    one_by_one = build(families[:1]).space
    for family in families[1:]:
        one_by_one = intersect_subspaces(one_by_one, build([family]).space)
    window_keys = slice_monomials(rg, lattice_grading(rd, rg), (ydeg, 0), _window_dict(bounds))
    assert together.basis.keys == tuple(window_keys)
    assert together.space == one_by_one
    assert 0 < together.rank < len(window_keys)


@pytest.mark.parametrize(
    "group,ydeg,window",
    [("G2", 1, (0, 1)), ("B2", 2, (-1, 1)), ("GL3", 2, (0, 1))],
    ids=["G2", "B2", "GL3"],
)
def test_windowed_rank_does_not_drop_as_the_margin_grows(group, ydeg, window):
    # a wider margin only adds relation products, so the window sees more
    rd, rg, bounds = lattice_case(group, window)
    steps = _lattice_steps(rd, rg, ydeg, bounds, [_relation_generators(rd, rg, 1, ydeg)])
    ranks = [steps(margin).rank for margin in range(4)]
    assert ranks == sorted(ranks), ranks
    assert 0 < ranks[-1] <= len(steps.basis)


def translates_restricted(rg, window_keys, points, family, ydeg):
    """The part on the window of the span of every generator of the
    family times x^lam y^b, for lam in points and b of the remaining
    y-degree, by one restriction over every column the products hold."""
    rank = len(points[0])
    pin = {f"x{i+1}": (0, 0) for i in range(rank)}
    grading = grading_for(rg, {n: (1, 0) for n in rg.names[rank:]})
    index = {k: i for i, k in enumerate(window_keys)}
    rows = []
    for gen, (gdeg, _) in family:
        for y in slice_monomials(rg, grading, (ydeg - gdeg, 0), pin):
            for lam in points:
                shift = MultiPoly.monomial(rg, tuple(lam) + y[rank:])
                product = gen * shift
                rows.append({index.setdefault(e, len(index)): c for e, c in product.terms.items()})
    return restrict_to_columns(rows, range(len(window_keys)), len(index))


def box(bounds, reach, m):
    return list(itertools.product(*(range(lo - m * reach, hi + m * reach + 1) for lo, hi in bounds)))


LATTICE_CROSS_CHECKS = [
    ("ordinary", "GL2", 3, 2, (0, 3)),
    ("ordinary", "B2", 1, 2, (-1, 1)),  # rank 18 at margin 0, 20 from margin 1 on
    ("ordinary", "B2", 1, 2, (1, 3)),  # the same window translated
    ("ordinary", "G2", 1, 1, (0, 1)),
    ("ordinary", "GL3", 1, 2, (0, 1)),
    ("roots", "GL2", 2, 2, (0, 2)),
    ("roots", "B2", 1, 1, (-1, 1)),
    ("roots", "G2", 1, 3, (0, 2)),
    ("roots", "GL3", 1, 1, (-1, 0)),
]


@pytest.mark.parametrize(
    "kind,group,d,ydeg,window",
    LATTICE_CROSS_CHECKS,
    ids=[f"{k}-{g}-d{d}-y{y}-{w[0]}:{w[1]}" for k, g, d, y, w in LATTICE_CROSS_CHECKS],
)
def test_carried_margin_steps_match_restricting_every_translate(kind, group, d, ydeg, window):
    # exact cross-check of the carried elimination against one restriction
    # of all translates of the margin box, at every margin 0..3
    rd, rg, bounds = lattice_case(group, window)
    if kind == "ordinary":
        families = [_relation_generators(rd, rg, d, ydeg)]
    else:
        families = _root_families(rd, rg, d, ydeg)
    steps = _lattice_steps(rd, rg, ydeg, bounds, families)
    window_keys = list(steps.basis.keys)
    reach = max(max(abs(c) for c in cor) for cor in rd.coroots)
    results, frozen = [], []
    for m in range(4):
        got = steps(m)
        parts = [
            translates_restricted(rg, window_keys, box(bounds, reach, m), family, ydeg)
            for family in families
        ]
        expected = parts[0] if len(parts) == 1 else intersect_subspaces(*parts)
        assert got.space == expected, m
        results.append(got)
        frozen.append([dict(row) for row in got.space.rows])
    # a result handed out at margin m is a snapshot that later steps leave alone
    assert [[dict(row) for row in r.space.rows] for r in results] == frozen
    assert [r.margin for r in results] == [0, 1, 2, 3]
    assert results[-1].rank > 0
    if (group, window) == ("B2", (-1, 1)) and kind == "ordinary":
        assert [r.rank for r in results] == [18, 20, 20, 20]


@pytest.mark.parametrize("window", [(0, 3), (-5, -1)])
def test_carried_flag_steps_match_restricting_every_translate(window):
    lo, hi = window
    steps = _flag_steps(window)
    window_keys = [(a, w) for a in range(lo, hi + 1) for w in ("e", "s")]
    assert steps.basis.keys == tuple(window_keys)
    results, frozen = [], []
    for m in range(4):
        # the rows of x^a (1 - s) and x^a (1 - x) for every level a of the margin box
        index = {k: i for i, k in enumerate(window_keys)}
        rows = []
        for a in range(lo - m, hi + m + 1):
            for terms in (((a, "e"), (a, "s")), ((a, "e"), (a + 1, "e"))):
                rows.append({index.setdefault(k, len(index)): c for k, c in zip(terms, (1, -1))})
        expected = restrict_to_columns(rows, range(len(window_keys)), len(index))
        results.append(steps(m))
        assert results[-1].space == expected, m
        frozen.append(results[-1].space.rows)
    assert [r.space.rows for r in results] == frozen
    assert results[-1].rank == len(window_keys) - 1


@st.composite
def diagonal_cases(draw):
    """(n, d, (a, b)) with n <= 3, d <= 2, a + b <= 4, and integer
    weights for a polynomial on the slice: one per spanning row, one on
    a basis monomial."""
    n = draw(st.integers(2, 3))
    d = draw(st.integers(0, 2))
    a = draw(st.integers(0, 4))
    b = draw(st.integers(0, 4 - a))
    weights = st.lists(st.integers(-3, 3), min_size=12, max_size=12)
    return n, d, (a, b), draw(weights), draw(st.integers(-1, 1))


@settings(max_examples=40, deadline=None)
@given(diagonal_cases())
def test_spanning_and_vanishing_jd_slices_agree(case):
    n, d, deg, weights, stray = case
    spanning = jd_slice(n, d, deg, method="spanning")
    vanishing = jd_slice(n, d, deg, method="vanishing")
    assert spanning.basis.keys == vanishing.basis.keys
    assert spanning.space == vanishing.space
    # a combination of the rows, pushed off the slice by a stray monomial
    f = MultiPoly.zero(spanning.ring)
    for w, row in zip(weights, spanning.row_polys()):
        f = f + row * w
    f = f + MultiPoly.monomial(spanning.ring, spanning.basis.keys[0]) * stray
    member = spanning.contains(f.terms)
    assert vanishing.contains(f.terms) == member
    if d:
        assert symbolic_power_oracle(f, n, d) == member


@pytest.mark.parametrize("method", ["spanning", "vanishing"])
@pytest.mark.parametrize(
    "n,d,maxdeg", [(2, 1, 6), (2, 2, 6), (2, 3, 6), (3, 1, 6), (3, 2, 6), (4, 1, 4)]
)
def test_reduced_prefix_sums_are_the_full_ring_ranks(n, d, maxdeg, method):
    dims = jd_dimensions(n, d, maxdeg, method)
    degrees = [(a, total - a) for total in range(maxdeg + 1) for a in range(total + 1)]
    assert sorted(dims) == sorted(degrees)
    for deg in degrees:
        assert dims[deg] == jd_slice(n, d, deg, method=method).rank, deg


@st.composite
def reduced_cases(draw):
    """(n, d, (a, b)) with n <= 4, d <= 2, a + b <= 4, and integer
    weights for a polynomial on the reduced slice: one per spanning row,
    one on a basis monomial."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(0, 2))
    a = draw(st.integers(0, 4))
    b = draw(st.integers(0, 4 - a))
    weights = st.lists(st.integers(-3, 3), min_size=12, max_size=12)
    return n, d, (a, b), draw(weights), draw(st.integers(-1, 1))


@settings(max_examples=30, deadline=None)
@given(reduced_cases())
def test_reduced_spanning_and_vanishing_slices_agree(case):
    n, d, deg, weights, stray = case
    spanning = _reduced_table(n, d, sum(deg), "spanning")[deg]
    vanishing = _reduced_table(n, d, sum(deg), "vanishing")[deg]
    # the vanishing basis is the monomials of the (1, j) monomial ideal
    moved = Subspace(len(spanning.basis))
    for row in vanishing.space.rows:
        moved.insert({spanning.basis.index[vanishing.basis.keys[c]]: v for c, v in row.items()})
    assert moved == spanning.space
    # a combination of the rows, pushed off the slice by a stray monomial,
    # pulled back to Q[x, y] by x'_j -> x_j - x_1, y'_j -> y_j - y_1
    f = MultiPoly.zero(spanning.ring)
    for w, row in zip(weights, spanning.row_polys()):
        f = f + row * w
    f = f + MultiPoly.monomial(spanning.ring, spanning.basis.keys[0]) * stray
    member = spanning.contains(f.terms)
    assert vanishing.contains(f.terms) == member
    rg, xs, ys = xy_gens(n)
    images = {}
    for j in range(2, n + 1):
        images[f"x{j}"] = xs[j - 1] - xs[0]
        images[f"y{j}"] = ys[j - 1] - ys[0]
    assert symbolic_power_oracle(f.substitute(images, rg), n, d) == member


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 1)])
def test_alternant_slice_matches_jd(n, d):
    for total in range(0, 5):
        for a in range(total + 1):
            deg = (a, total - a)
            assert alternant_slice(n, d, deg).rank == jd_slice(n, d, deg).rank


def test_alternant_is_antisymmetric():
    rg, xs, ys = xy_gens(2)
    a = alternant(2, (1, 0, 0, 0))  # x1 - x2
    assert a == xs[0] - xs[1]
    swapped = a.substitute(
        {"x1": xs[1], "x2": xs[0], "y1": ys[1], "y2": ys[0]}, rg
    )
    assert swapped == -a


def full_basis_shift_ranks(slices, deg, shifts):
    """`_shift_ranks` taken on every column of slices[deg]'s basis."""
    dst = slices[deg]
    image, ranks = Subspace(len(dst.basis)), []
    for src, var in shifts:
        if src in slices:
            image.extend(_shift_rows(slices[src], dst, var))
        ranks.append(image.rank)
    return ranks


@pytest.mark.parametrize("method", ["spanning", "vanishing"])
@pytest.mark.parametrize(
    "n,d,top",
    [(2, 0, 10), (2, 1, 10), (2, 2, 10), (3, 0, 8), (3, 1, 10), (3, 2, 10),
     (4, 0, 6), (4, 1, 8), (4, 2, 9)],
)
def test_pivot_shift_ranks_are_the_full_basis_ranks(n, d, top, method):
    slices = _reduced_table(n, d, top, method)
    for a, b in slices:
        xs = [((a - 1, b), f"x{j}") for j in range(2, n + 1)]
        ys = [((a, b - 1), f"y{j}") for j in range(2, n + 1)]
        for shifts in (xs + ys, ys + xs, ys):
            ranks = _shift_ranks(slices, (a, b), shifts)
            assert ranks == full_basis_shift_ranks(slices, (a, b), shifts), ((a, b), shifts)


def test_catalan_n2():
    report = catalan_quotient(2)
    assert report.total == 2
    assert report.table == {(1, 0): 1, (0, 1): 1}
    assert report.boundary_zero


def test_catalan_n3_table_symmetric():
    report = catalan_quotient(3)
    assert report.total == 5
    assert report.table == {
        (3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1, (1, 1): 1,
    }
    assert all(report.table[(b, a)] == v for (a, b), v in report.table.items())


def full_ring_catalan_table(n, method):
    """J / (x, y) J from full-ring slices: each slice less the shifts of
    the slices below it by every x_i and y_i."""
    top = n * (n - 1) // 2
    slices = {
        (a, b): jd_slice(n, 1, (a, b), method=method)
        for a in range(top + 2)
        for b in range(top + 2 - a)
    }
    table = {}
    for (a, b), cur in slices.items():
        if cur.rank == 0:
            continue
        sub = Subspace(len(cur.basis))
        for (pa, pb), gen_name in (((a - 1, b), "x"), ((a, b - 1), "y")):
            if pa < 0 or pb < 0:
                continue
            for i in range(n):
                sub.extend(_shift_rows(slices[(pa, pb)], cur, f"{gen_name}{i+1}"))
                if sub.rank == cur.rank:
                    break
            if sub.rank == cur.rank:
                break
        if cur.rank > sub.rank:
            table[(a, b)] = cur.rank - sub.rank
    return table


@pytest.mark.parametrize(
    "n,method",
    [(2, "spanning"), (3, "spanning"), (4, "spanning"), (2, "vanishing"), (3, "vanishing")],
)
def test_reduced_catalan_table_is_the_full_ring_table(n, method):
    assert catalan_quotient(n, method).table == full_ring_catalan_table(n, method)


def test_freeness_small():
    report = freeness_check(2, 1, 5)
    assert report.ok
    assert report.stages_checked > 0


def full_ring_freeness(n, max_total, slice_at):
    """(failures, checks) of the regular-sequence check by y_1..y_n on
    full-ring slices, slice_at(deg) being the ideal's slice at deg: one
    rank chain r_0..r_n per bidegree, r_k the rank of (y_1..y_k) I(a,
    b-1) inside I(a, b), every stage k at every a + b <= max_total."""
    slices = {
        (a, b): slice_at((a, b)) for a in range(max_total + 2) for b in range(max_total + 2 - a)
    }
    chain = {}
    for (a, b), dst in slices.items():
        image, ranks = Subspace(len(dst.basis)), [0]
        for i in range(1, n + 1):
            if b >= 1:
                image.extend(_shift_rows(slices[(a, b - 1)], dst, f"y{i}"))
            ranks.append(image.rank)
        chain[(a, b)] = ranks
    failures, checks = [], 0
    for k in range(1, n + 1):
        for a in range(max_total + 1):
            for b in range(max_total + 1 - a):
                here, nxt = chain[(a, b)], chain[(a, b + 1)]
                checks += 1
                if slices[(a, b)].rank - here[k - 1] != nxt[k] - nxt[k - 1]:
                    failures.append((k, (a, b)))
    return failures, checks


@pytest.mark.parametrize("method", ["spanning", "vanishing"])
@pytest.mark.parametrize(
    "n,d,max_total", [(2, 1, 6), (2, 2, 6), (2, 3, 6), (3, 1, 6), (3, 2, 5), (4, 1, 4)]
)
def test_reduced_freeness_is_the_full_ring_check(n, d, max_total, method):
    report = freeness_check(n, d, max_total, method)
    failures, checks = full_ring_freeness(n, max_total, lambda deg: jd_slice(n, d, deg, method))
    assert (report.n, report.d, report.max_total) == (n, d, max_total)
    assert report.ok == (not failures)
    assert (report.failures, report.stages_checked) == (failures, checks)


# Ideals extended from the reduced ring of n = 3 on which the check fails,
# as generators in x'_j and y'_j (x[j], y[j]), and their failures through
# total degree 5. On the maximal ideal the reduced check fails at (0, 1)
# only, so the failures at a > 0 come from the direct sum over a' <= a.
FAILING_IDEALS = {
    "y2,y3": (
        lambda x, y: [(y[2], (0, 1)), (y[3], (0, 1))],
        [(3, (a, 1)) for a in range(5)],
    ),
    "x2y3,y2^2": (
        lambda x, y: [(x[2] * y[3], (1, 1)), (y[2] ** 2, (0, 2))],
        [(3, (a, 2)) for a in range(1, 4)],
    ),
    "x2,x3,y2,y3": (
        lambda x, y: [(x[2], (1, 0)), (x[3], (1, 0)), (y[2], (0, 1)), (y[3], (0, 1))],
        [(3, (a, 1)) for a in range(5)],
    ),
}


@pytest.mark.parametrize("name", list(FAILING_IDEALS))
def test_reduced_freeness_failures_are_the_full_ring_failures(monkeypatch, name):
    generators, expected = FAILING_IDEALS[name]
    rg, grading = bigraded_ring((2, 3), (2, 3))
    x = {j: MultiPoly.gen(rg, f"x{j}") for j in (2, 3)}
    y = {j: MultiPoly.gen(rg, f"y{j}") for j in (2, 3)}
    table = {(a, b): _generated_slice(rg, grading, (a, b), [generators(x, y)])
             for a in range(7) for b in range(7 - a)}
    monkeypatch.setattr("gkmslice.arrangement._reduced_table", lambda n, d, top, method: table)
    report = freeness_check(3, 1, 5)

    full, xs, ys = xy_gens(3)
    full_grading = bigraded_ring((1, 2, 3), (1, 2, 3))[1]
    family = generators(
        {j: xs[j - 1] - xs[0] for j in (2, 3)}, {j: ys[j - 1] - ys[0] for j in (2, 3)}
    )
    failures, checks = full_ring_freeness(
        3, 5, lambda deg: _generated_slice(full, full_grading, deg, [family])
    )
    assert failures == expected
    assert (report.ok, report.failures, report.stages_checked) == (False, failures, checks)


# Inputs outside the domain of the type A slice functions, with the
# message each raises; unchecked, each returns a plausible answer or
# fails deep inside the computation.
OUT_OF_DOMAIN = {
    "pair-ideal-negative-d": (
        lambda: pair_ideal_slice(2, (1, 2), -1, (1, 1)),
        "power d must be >= 0, got -1",
    ),
    "vanishing-negative-d": (
        lambda: vanishing_slice(2, -1, (1, 1)),
        "power d must be >= 0, got -1",
    ),
    "oracle-negative-d": (
        lambda: symbolic_power_oracle(MultiPoly.one(xy_ring(2)), 2, -1),
        "power d must be >= 0, got -1",
    ),
    "jd-dimensions-negative-maxdeg": (
        lambda: jd_dimensions(2, 1, -1, "spanning"),
        "maxdeg must be >= 0, got -1",
    ),
    "jd-dimensions-unknown-method-at-d-0": (
        lambda: jd_dimensions(3, 0, 2, "bogus"),
        "unknown method 'bogus'",
    ),
    "alternant-negative-d": (
        lambda: alternant_slice(2, -1, (1, 1)),
        "power d must be >= 0, got -1",
    ),
}


@pytest.mark.parametrize("case", list(OUT_OF_DOMAIN))
def test_slices_reject_inputs_outside_the_domain(case):
    call, message = OUT_OF_DOMAIN[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_full_slice_dimension():
    # all monomials of bidegree (1, 1) for n = 2
    assert full_slice(2, (1, 1)).rank == 4


def test_jd_root_slice_gl2_memberships():
    rd = root_datum("GL2")
    bounds = [(0, 2), (0, 2)]
    result = jd_root_slice(rd, 1, 0, bounds)
    assert result.status == "stabilized"
    assert result.rank == 4
    rg = result.ring
    x1, x2 = MultiPoly.gen(rg, "x1"), MultiPoly.gen(rg, "x2")
    assert result.contains((x1 - x2).terms)
    assert result.contains((x1 * x2 - x2 * x2).terms)
    assert not result.contains(MultiPoly.one(rg).terms)


def test_jd_root_slice_gl2_ydeg1():
    rd = root_datum("GL2")
    result = jd_root_slice(rd, 1, 1, [(0, 2), (0, 2)])
    assert result.status == "stabilized"
    rg = result.ring
    y1, y2 = MultiPoly.gen(rg, "y1"), MultiPoly.gen(rg, "y2")
    assert result.contains((y1 - y2).terms)
    assert not result.contains(y1.terms)


@pytest.mark.parametrize(
    "group,d,ydeg,window,expected",
    [
        ("GL2", 1, 0, (0, 1), (4, 1, 3, "stabilized", 2)),
        ("B2", 1, 2, (-1, 1), (27, 20, 7, "stabilized", 2)),
        ("G2", 1, 1, (0, 1), (8, 5, 3, "stabilized", 2)),
    ],
    ids=["GL2", "B2", "G2"],
)
def test_ordinary_quotient(group, d, ydeg, window, expected):
    rd = root_datum(group)
    result = ordinary_homology_quotient_slice(rd, d, ydeg, [window] * rd.rank)
    got = (
        result.ambient_dim,
        result.submodule_rank,
        result.quotient_dim,
        result.status,
        result.margin,
    )
    assert got == expected
    if group == "GL2":
        assert [str(p) for p in result.submodule.row_polys()] == ["x2 - x1"]


@pytest.mark.parametrize("build", [jd_root_slice, ordinary_homology_quotient_slice])
def test_lattice_slices_reject_wrong_window_count(build):
    rd = root_datum("GL2")
    with pytest.raises(ValueError, match="need 2 window bounds, got 3"):
        build(rd, 1, 0, [(0, 1), (0, 1), (7, 9)])
    with pytest.raises(ValueError, match="need 2 window bounds, got 1"):
        build(rd, 1, 0, [(0, 1)])


def test_flag_module_window():
    result = flag_rank1_module_slice((0, 3))
    assert result.status == "stabilized"
    assert result.ambient_dim == 8
    assert result.quotient_dim == 1
    for k in range(0, 4):
        assert result.contains(flag_pair_element(k))
    for k in range(1, 4):
        assert result.contains(flag_step_element(k))
    # the class of a single vertex is not in the submodule
    assert not result.contains({(0, "e"): 1})
    # a module element whose support leaves the window is not in the window slice
    assert (4, "e") not in result.basis.index
    assert not result.contains(flag_step_element(4))


def test_stabilize_reports_inconclusive_growth():
    from gkmslice.arrangement import STABILIZE_TRIES, SliceResult, _stabilize
    from gkmslice.linalg import SliceBasis, span
    from gkmslice.rationals import rat

    def growing(m):
        # rank m + 1 forever: never stabilizes
        vecs = [{i: rat(1)} for i in range(m + 1)]
        basis = SliceBasis(list(range(40)))
        return SliceResult(basis, span(vecs, 40), xy_ring(1), margin=m)

    result = _stabilize(growing, 0)
    assert result.status == "inconclusive"
    assert result.margin == STABILIZE_TRIES

    def constant(m):
        basis = SliceBasis(list(range(4)))
        return SliceResult(basis, span([{0: rat(1)}], 4), xy_ring(1), margin=m)

    assert _stabilize(constant, 1).status == "stabilized"


# ---- ker(D^k) in closed form against the solved kernel ----


def solved_kernel(rg, ynames, coeffs, k, ydeg):
    """ker(D^k) on the degree-ydeg polynomials in ynames, solved: each
    monomial differentiated k times, then the kernel of those rows; with
    the domain's basis."""
    grading = grading_for(rg, {n: (1, 0) for n in ynames})
    pin = {n: (0, 0) for n in rg.names if n not in ynames}
    domain = SliceBasis(slice_monomials(rg, grading, (ydeg, 0), pin))
    codomain = SliceBasis(slice_monomials(rg, grading, (ydeg - k, 0), pin) if ydeg >= k else [])
    rows = []
    for e in domain.keys:
        p = MultiPoly.monomial(rg, e)
        for _ in range(k):
            p = sum((p.derivative(n) * c for n, c in coeffs.items()), MultiPoly.zero(rg))
        rows.append(codomain.vector_from_poly(p))
    return domain, kernel_of_rows(rows)


def derivation_cases(group):
    """(ring, y names, coefficients of D) per positive root of a root
    datum (d_alpha), or per pair of GL_n on the diagonal ring."""
    if group.startswith("pairs"):
        n = int(group[-1])
        rg = xy_ring(n)
        return [
            (rg, rg.names[n:], {f"y{i}": 1, f"y{j}": -1})
            for i, j in itertools.combinations(range(1, n + 1), 2)
        ]
    rd = root_datum(group)
    rg, ynames = lattice_ring(rd), y_names(rd.yrank)
    unit = [tuple(int(a == b) for b in range(rd.yrank)) for a in range(rd.yrank)]
    return [
        (rg, ynames, {n: rd.pair_coroot(u, cor) for n, u in zip(ynames, unit)})
        for cor in rd.coroots
    ]


@pytest.mark.parametrize(
    "group", ["GL2", "GL3", "GL4", "SL3", "A1xA1", "A2", "B2", "G2", "pairs2", "pairs3", "pairs4"]
)
def test_closed_form_derivation_kernel_is_the_solved_kernel(group):
    for rg, ynames, coeffs in derivation_cases(group):
        for k, ydeg in itertools.product(range(1, 4), range(5)):
            domain, solved = solved_kernel(rg, ynames, coeffs, k, ydeg)
            basis = derivation_kernel(rg, ynames, coeffs, k, ydeg)
            closed = Subspace(len(domain))
            closed.extend(domain.vector_from_poly(K) for K in basis)
            assert len(basis) == closed.rank == solved.rank, (coeffs, k, ydeg)
            assert closed == solved, (coeffs, k, ydeg)
            assert all(c.denominator == 1 for K in basis for c in K.terms.values())
            if k > ydeg:  # every polynomial of degree ydeg, by monomials
                assert all(len(K) == 1 for K in basis), (coeffs, k, ydeg)


# ---- vanishing conditions in closed form against substitution ----


def substituted_vanishing(rg, keys, pairs, d):
    """The subspace of the monomials keys cut out by the vanishing
    conditions, substituted: each monomial under x_j -> x_i + u, y_j ->
    y_i + v in rg extended by u, v, one condition per pair and term of
    (u, v)-degree below d, then the kernel of those rows."""
    ext = ring(rg.names + ("u", "v"))
    ui, vi = ext.index("u"), ext.index("v")
    cond_index, rows = {}, [{} for _ in keys]
    for pidx, (i, j) in enumerate(pairs):
        images = {
            f"x{j}": MultiPoly.gen(ext, f"x{i}") + MultiPoly.gen(ext, "u"),
            f"y{j}": MultiPoly.gen(ext, f"y{i}") + MultiPoly.gen(ext, "v"),
        }
        for row, exp in zip(rows, keys):
            for gexp, c in MultiPoly.monomial(rg, exp).substitute(images, ext).terms.items():
                if gexp[ui] + gexp[vi] < d:
                    col = cond_index.setdefault((pidx, gexp), len(cond_index))
                    row[col] = row.get(col, 0) + c
    return kernel_of_rows(rows)


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_form_vanishing_conditions_are_the_substituted_ones(n, reduced):
    points = range(2 if reduced else 1, n + 1)
    rg, grading = bigraded_ring(points, points)
    pairs = list(itertools.combinations(points, 2))
    for d, total in itertools.product(range(1, 4), range(6)):
        for deg in ((a, total - a) for a in range(total + 1)):
            keys = slice_monomials(rg, grading, deg)
            closed = _vanishing(rg, keys, pairs, d).space
            assert closed == substituted_vanishing(rg, keys, pairs, d), (n, d, deg)


def test_derivation_kernel_rejects_the_zero_derivation():
    rg = xy_ring(2)
    with pytest.raises(ValueError, match="every coefficient 0"):
        derivation_kernel(rg, rg.names[2:], {"y1": 0, "y2": 0}, 1, 2)
