"""Sparse row reduction, intersections, kernels, column restriction."""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from gkmslice.linalg import (
    Restriction,
    SliceBasis,
    Subspace,
    intersect_subspaces,
    kernel_of_rows,
    restrict_to_columns,
    span,
    sum_subspaces,
)
from gkmslice.rationals import ZERO, rat, rat_parts
from gkmslice.rings import MultiPoly, ring

NCOLS = 5

entry = st.integers(min_value=-3, max_value=3)
vector = st.lists(entry, min_size=NCOLS, max_size=NCOLS).map(
    lambda vals: {i: rat(v) for i, v in enumerate(vals) if v}
)
vectors = st.lists(vector, min_size=0, max_size=6)


def test_insert_and_contains():
    s = Subspace(3)
    assert s.insert({0: rat(1), 1: rat(2)})
    assert not s.insert({0: rat(2), 1: rat(4)})
    assert s.contains({0: rat(-1), 1: rat(-2)})
    assert not s.contains({2: rat(1)})
    assert s.rank == 1


def test_canonical_rows_are_order_independent():
    rows = [{0: rat(1), 1: rat(1)}, {1: rat(1), 2: rat(1)}, {0: rat(1), 2: rat(-1)}]
    a = span(rows, 3)
    b = span(rows[::-1], 3)
    assert a == b
    assert a.rank == 2


@settings(max_examples=80, deadline=None)
@given(vectors)
def test_span_is_idempotent(vecs):
    s = span(vecs, NCOLS)
    again = span(s.rows, NCOLS)
    assert again == s
    assert all(s.contains(v) for v in vecs)


@settings(max_examples=60, deadline=None)
@given(vectors, vectors)
def test_grassmann_dimension_identity(va, vb):
    a, b = span(va, NCOLS), span(vb, NCOLS)
    total = sum_subspaces(a, b)
    meet = intersect_subspaces(a, b)
    assert total.rank + meet.rank == a.rank + b.rank
    for row in meet.rows:
        assert a.contains(row) and b.contains(row)


@settings(max_examples=60, deadline=None)
@given(vectors)
def test_kernel_rank_nullity(vecs):
    # kernel of u -> sum u_j vecs_j lives in Q^len(vecs)
    kern = kernel_of_rows(vecs)
    assert kern.rank == len(vecs) - span(vecs, NCOLS).rank
    for u in kern.rows:
        combo: dict = {}
        for j, c in u.items():
            for i, v in vecs[j].items():
                combo[i] = combo.get(i, rat(0)) + c * v
        assert all(val == 0 for val in combo.values())


def test_restrict_to_columns_is_projection_intersection():
    # restrict {(1,0,1), (0,1,1)} to columns {0,1}: vectors in the span
    # supported there are multiples of (1,-1,0)... none, so project the
    # elements that vanish outside: x*(r0) + y*(r1) supported in {0,1}
    # forces x + y = 0 giving (1,-1,0).
    rows = [{0: rat(1), 2: rat(1)}, {1: rat(1), 2: rat(1)}]
    restricted = restrict_to_columns(rows, [0, 1], 3)
    assert restricted.rank == 1
    assert restricted.contains({0: rat(1), 1: rat(-1)})


def test_slice_basis_round_trip():
    rg = ring(["x", "y"])
    basis = SliceBasis([(0, 0), (1, 0), (0, 1)])
    p = MultiPoly.gen(rg, "x") - MultiPoly.gen(rg, "y") * 2
    vec = basis.vector_from_poly(p)
    assert basis.poly(rg, vec) == p


def test_strict_vector_raises_outside_basis():
    import pytest

    rg = ring(["x", "y"])
    basis = SliceBasis([(0, 0)])
    with pytest.raises(KeyError):
        basis.vector_from_poly(MultiPoly.gen(rg, "x"))


# ---- cross-check of the integer engine against a dense Fraction RREF ----


def ref_rref(vectors, ncols):
    """Gauss-Jordan over Fraction on dense rows: (rows, pivots)."""
    rows = []
    pivots = []
    for vec in vectors:
        v = [Fraction(0)] * ncols
        for j, c in vec.items():
            v[j] = Fraction(c)
        for p, row in zip(pivots, rows):
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        lead = next((j for j in range(ncols) if v[j]), None)
        if lead is None:
            continue
        v = [a / v[lead] for a in v]
        rows = [[a - r[lead] * b for a, b in zip(r, v)] for r in rows]
        at = sum(1 for p in pivots if p < lead)
        rows.insert(at, v)
        pivots.insert(at, lead)
    return rows, pivots


def ref_sparse(rows):
    return [{j: c for j, c in enumerate(row) if c} for row in rows]


def ref_nullspace(vectors, ncols):
    """Basis of {x : r.x = 0 for every r}, as sparse rows."""
    rows, pivots = ref_rref(vectors, ncols)
    out = []
    for free in (j for j in range(ncols) if j not in pivots):
        x = {free: Fraction(1)}
        for p, row in zip(pivots, rows):
            if row[free]:
                x[p] = -row[free]
        out.append(x)
    return out


def ref_intersection(va, vb, ncols):
    perp = ref_nullspace(va, ncols) + ref_nullspace(vb, ncols)
    return ref_nullspace(perp, ncols)


def as_fractions(rows):
    return [{j: Fraction(*rat_parts(c)) for j, c in row.items()} for row in rows]


def is_backend_rational(rows):
    return all(type(c) is type(ZERO) for row in rows for c in row.values())


rational = st.builds(rat, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=4))


@st.composite
def rational_families(draw, count=1):
    ncols = draw(st.integers(min_value=5, max_value=7))
    vec = st.lists(rational, min_size=ncols, max_size=ncols).map(
        lambda vals: {i: c for i, c in enumerate(vals) if c}
    )
    return ncols, [draw(st.lists(vec, max_size=6)) for _ in range(count)]


@settings(max_examples=80, deadline=None)
@given(rational_families(), st.lists(rational, min_size=7, max_size=7))
def test_span_and_reduce_match_fraction_reference(family, extra):
    ncols, (vecs,) = family
    s = span(vecs, ncols)
    rows, pivots = ref_rref(vecs, ncols)
    assert as_fractions(s.rows) == ref_sparse(rows)
    assert s.pivots == pivots
    assert is_backend_rational(s.rows)
    probe = {j: c for j, c in enumerate(extra[:ncols]) if c}
    rem = dict(probe)
    for p, row in zip(pivots, rows):
        f = rem.get(p, 0)
        for j, c in enumerate(row):
            rem[j] = rem.get(j, 0) - f * c
    got = s.reduce(probe)
    assert as_fractions([got]) == [{j: Fraction(c) for j, c in rem.items() if c}]
    assert is_backend_rational([got])
    # the cached canonical rows follow a further insert
    s.insert(probe)
    rows, pivots = ref_rref(vecs + [probe], ncols)
    assert as_fractions(s.rows) == ref_sparse(rows)
    assert s.pivots == pivots


@settings(max_examples=60, deadline=None)
@given(rational_families(count=2))
def test_intersection_matches_fraction_reference(family):
    ncols, (va, vb) = family
    meet = intersect_subspaces(span(va, ncols), span(vb, ncols))
    rows, _ = ref_rref(ref_intersection(va, vb, ncols), ncols)
    assert as_fractions(meet.rows) == ref_sparse(rows)
    assert is_backend_rational(meet.rows)


@settings(max_examples=60, deadline=None)
@given(rational_families())
def test_kernel_matches_fraction_reference(family):
    ncols, (vecs,) = family
    kern = kernel_of_rows(vecs)
    columns = [{i: v[j] for i, v in enumerate(vecs) if j in v} for j in range(ncols)]
    rows, _ = ref_rref(ref_nullspace(columns, len(vecs)), len(vecs))
    assert kern.ncols == len(vecs)
    assert as_fractions(kern.rows) == ref_sparse(rows)
    assert is_backend_rational(kern.rows)


def with_dependent_and_zero(vecs):
    """vecs plus a zero vector and, when there are two, a combination of them."""
    out = list(vecs) + [{}]
    if len(vecs) >= 2:
        a, b = vecs[0], vecs[-1]
        combo = {j: 2 * a.get(j, 0) - b.get(j, 0) for j in set(a) | set(b)}
        out.insert(1, {j: c for j, c in combo.items() if c})
    return out


@settings(max_examples=60, deadline=None)
@given(rational_families(), st.data())
def test_restriction_matches_fraction_reference(family, data):
    ncols, (vecs,) = family
    vecs = with_dependent_and_zero(vecs)
    keep = data.draw(st.permutations(range(ncols)))[: data.draw(st.integers(0, ncols))]
    restricted = restrict_to_columns(vecs, keep, ncols)
    coords = [{j: Fraction(1)} for j in keep]
    inside = ref_intersection(vecs, coords, ncols)
    rows, _ = ref_rref([{i: v[j] for i, j in enumerate(keep) if j in v} for v in inside], len(keep))
    assert as_fractions(restricted.rows) == ref_sparse(rows)
    assert is_backend_rational(restricted.rows)


def scaled_to_integers(vecs):
    """Each vector times the lcm of its denominators, with int entries."""
    out = []
    for v in vecs:
        parts = {j: rat_parts(c) for j, c in v.items()}
        den = lcm(*(d for _, d in parts.values()))
        out.append({j: n * (den // d) for j, (n, d) in parts.items()})
    return out


@settings(max_examples=80, deadline=None)
@given(rational_families(count=3), st.data())
def test_meet_matches_fraction_reference(family, data):
    ncols, families = family
    families = families[: data.draw(st.integers(1, 3))]
    # some families empty, some as rows of plain ints
    families = [
        [] if data.draw(st.integers(0, 4)) == 0
        else scaled_to_integers(with_dependent_and_zero(vecs)) if data.draw(st.booleans())
        else with_dependent_and_zero(vecs)
        for vecs in families
    ]
    cut = st.tuples(st.permutations(range(ncols)), st.integers(0, ncols)).map(lambda t: t[0][: t[1]])
    keep = data.draw(st.one_of(st.just(list(range(ncols))), cut))
    before = [[dict(v) for v in vecs] for vecs in families]
    # the meet of the families' parts on keep: one restriction per family, then one intersection
    parts = [restrict_to_columns(vecs, keep, ncols) for vecs in families]
    got = parts[0] if len(parts) == 1 else intersect_subspaces(*parts)
    assert families == before
    coords = [{j: Fraction(1)} for j in keep]
    inside = ref_nullspace([], ncols)  # all of Q^ncols
    for vecs in families:
        inside = ref_intersection(inside, ref_intersection(vecs, coords, ncols), ncols)
    rows, _ = ref_rref([{i: v[j] for i, j in enumerate(keep) if j in v} for v in inside], len(keep))
    assert got.ncols == len(keep)
    assert as_fractions(got.rows) == ref_sparse(rows)
    assert is_backend_rational(got.rows)


@settings(max_examples=40, deadline=None)
@given(rational_families())
def test_restriction_to_all_or_no_columns(family):
    ncols, (vecs,) = family
    vecs = with_dependent_and_zero(vecs)
    assert restrict_to_columns(vecs, range(ncols), ncols) == span(vecs, ncols)
    empty = restrict_to_columns(vecs, [], ncols)
    assert empty.rank == 0 and empty.ncols == 0


# ---- wide inputs: long reduction chains and coefficient growth ----

wide_rational = st.builds(rat, st.integers(-(10**6), 10**6), st.integers(min_value=1, max_value=9))
wide_entry = st.one_of(st.just(rat(0)), wide_rational)
multiplier = st.builds(rat, st.integers(-9, 9), st.integers(min_value=1, max_value=9))


@st.composite
def dependent_families(draw, count=1):
    """Families on 8-12 columns: a few wide rows and many combinations of them.

    The pivot entries of primitive rows built from such data rarely
    divide the entries they eliminate, so most reduction steps rescale
    the vector being reduced.
    """
    ncols = draw(st.integers(min_value=8, max_value=12))
    vec = st.lists(wide_entry, min_size=ncols, max_size=ncols).map(
        lambda vals: {i: c for i, c in enumerate(vals) if c}
    )
    families = []
    for _ in range(count):
        gens = draw(st.lists(vec, min_size=1, max_size=5))
        rows = list(gens)
        for _ in range(draw(st.integers(min_value=2, max_value=8))):
            mults = draw(st.lists(multiplier, min_size=len(gens), max_size=len(gens)))
            combo: dict = {}
            for m, g in zip(mults, gens):
                for j, c in g.items():
                    combo[j] = combo.get(j, 0) + m * c
            rows.insert(draw(st.integers(0, len(rows))), {j: c for j, c in combo.items() if c})
        families.append(rows)
    return ncols, families


@settings(max_examples=40, deadline=None)
@given(dependent_families(count=2), st.data())
def test_wide_dependent_rows_match_fraction_reference(family, data):
    ncols, (va, vb) = family
    s = span(va, ncols)
    rows, pivots = ref_rref(va, ncols)
    assert as_fractions(s.rows) == ref_sparse(rows)
    assert s.pivots == pivots

    probe = {j: c for j, c in enumerate(data.draw(st.lists(wide_entry, min_size=ncols, max_size=ncols))) if c}
    rem = {j: Fraction(*rat_parts(c)) for j, c in probe.items()}
    for p, row in zip(pivots, rows):
        f = rem.get(p, 0)
        for j, c in enumerate(row):
            rem[j] = rem.get(j, 0) - f * c
    assert as_fractions([s.reduce(probe)]) == [{j: c for j, c in rem.items() if c}]

    order = data.draw(st.permutations(range(len(va))))
    assert span(va[::-1], ncols) == s
    assert span([va[i] for i in order], ncols) == s

    meet = intersect_subspaces(s, span(vb, ncols))
    rows, _ = ref_rref(ref_intersection(va, vb, ncols), ncols)
    assert as_fractions(meet.rows) == ref_sparse(rows)

    kern = kernel_of_rows(va)
    columns = [{i: v[j] for i, v in enumerate(va) if j in v} for j in range(ncols)]
    rows, _ = ref_rref(ref_nullspace(columns, len(va)), len(va))
    assert as_fractions(kern.rows) == ref_sparse(rows)

    keep = data.draw(st.permutations(range(ncols)))[: data.draw(st.integers(0, ncols))]
    restricted = restrict_to_columns(va, keep, ncols)
    inside = ref_intersection(va, [{j: Fraction(1)} for j in keep], ncols)
    rows, _ = ref_rref([{i: v[j] for i, j in enumerate(keep) if j in v} for v in inside], len(keep))
    assert as_fractions(restricted.rows) == ref_sparse(rows)


@settings(max_examples=40, deadline=None)
@given(dependent_families())
def test_incremental_inserts_match_span(family):
    ncols, (vecs,) = family
    s = Subspace(ncols)
    for i, v in enumerate(vecs):
        before = s.rank
        grew = s.insert(v)
        assert s.rank == before + grew
        assert s.rank == len(ref_rref(vecs[: i + 1], ncols)[1])
        batch = span(vecs[: i + 1], ncols)
        assert s.rows == batch.rows
        assert s == batch


# ---- block elimination: many vectors on few columns ----

small_rational = st.builds(rat, st.sampled_from([-3, -2, -1, 1, 2]), st.sampled_from([1, 1, 2, 3]))


@st.composite
def crowded_families(draw):
    """Up to 18 vectors on 2-6 columns, drawn from a pool of 1-4 vectors
    with multiplicity: scaled and repeated copies, and zero vectors."""
    ncols = draw(st.integers(min_value=2, max_value=6))
    entry = st.one_of(st.just(rat(0)), small_rational)
    vec = st.lists(entry, min_size=ncols, max_size=ncols).map(
        lambda vals: {i: c for i, c in enumerate(vals) if c}
    )
    pool = draw(st.lists(vec, min_size=1, max_size=4)) + [{}]
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), small_rational), max_size=18))
    return ncols, [{j: m * c for j, c in v.items()} for v, m in picks]


def shuffled(data, items):
    order = data.draw(st.permutations(range(len(items))))
    return [items[i] for i in order], order


@settings(max_examples=100, deadline=None)
@given(crowded_families(), st.data())
def test_crowded_restriction_matches_reference_in_any_order(family, data):
    ncols, vecs = family
    keep = data.draw(st.permutations(range(ncols)))[: data.draw(st.integers(0, ncols))]
    # vectors that lie wholly on the kept columns skip the elimination
    vecs = vecs + [{j: c for j, c in v.items() if j in keep} for v in vecs[:3]]
    restricted = restrict_to_columns(vecs, keep, ncols)
    inside = ref_intersection(vecs, [{j: Fraction(1)} for j in keep], ncols)
    rows, _ = ref_rref([{i: v[j] for i, j in enumerate(keep) if j in v} for v in inside], len(keep))
    assert as_fractions(restricted.rows) == ref_sparse(rows)
    assert restrict_to_columns(shuffled(data, vecs)[0], keep, ncols) == restricted


@settings(max_examples=100, deadline=None)
@given(crowded_families(), st.data())
def test_crowded_kernel_matches_reference_in_any_order(family, data):
    ncols, vecs = family
    kern = kernel_of_rows(vecs)
    columns = [{i: v[j] for i, v in enumerate(vecs) if j in v} for j in range(ncols)]
    rows, _ = ref_rref(ref_nullspace(columns, len(vecs)), len(vecs))
    assert as_fractions(kern.rows) == ref_sparse(rows)
    # the relations among shuffled rows are the same relations, permuted
    perm, order = shuffled(data, vecs)
    back = [{order[i]: c for i, c in row.items()} for row in kernel_of_rows(perm).rows]
    assert span(back, len(vecs)) == kern


@settings(max_examples=100, deadline=None)
@given(crowded_families(), crowded_families(), st.data())
def test_crowded_intersection_matches_reference_in_any_order(fa, fb, data):
    ncols = min(fa[0], fb[0])
    va = [{j: c for j, c in v.items() if j < ncols} for v in fa[1]]
    # some of B lies in A: those rows leave no remainder to eliminate
    vb = [{j: c for j, c in v.items() if j < ncols} for v in fb[1]] + va[:2]
    meet = intersect_subspaces(span(va, ncols), span(vb, ncols))
    rows, _ = ref_rref(ref_intersection(va, vb, ncols), ncols)
    assert as_fractions(meet.rows) == ref_sparse(rows)
    sa, sb = span(shuffled(data, va)[0], ncols), span(shuffled(data, vb)[0], ncols)
    assert intersect_subspaces(sb, sa) == meet


@st.composite
def growing_batches(draw):
    """(width, [(fresh, batch)]): batches of integer vectors, each of
    which may hold every column seen so far and a few fresh ones."""
    width = draw(st.integers(0, 3))
    seen, batches = width, []
    for _ in range(draw(st.integers(1, 4))):
        fresh, seen = seen, seen + draw(st.integers(0, 3))
        if not seen:
            batches.append((fresh, []))
            continue
        vec = st.dictionaries(st.integers(0, seen - 1), entry.filter(bool), max_size=4)
        batches.append((fresh, draw(st.lists(vec, max_size=6))))
    return width, batches


@settings(max_examples=200, deadline=None)
@given(growing_batches())
def test_carried_restriction_matches_restricting_everything(case):
    # the carried part after each batch against one restriction of all vectors so far
    width, batches = case
    carried = Restriction(width)
    added, snapshots = [], []
    for fresh, batch in batches:
        carried.extend([dict(v) for v in batch], fresh)
        added += batch
        ncols = max([width, *(j + 1 for v in added for j in v)])
        assert carried.part == restrict_to_columns(added, range(width), ncols)
        snapshots.append((carried.part.copy(), carried.part.rank))
    # a copy taken after a batch is not changed by later ones
    assert [s.rank for s, _ in snapshots] == [rank for _, rank in snapshots]
