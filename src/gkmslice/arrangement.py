"""Diagonal arrangement ideals and their graded or windowed slices.

Type A side: the polynomial ring Q[x_1..x_n, y_1..y_n] with the pair
ideals (x_i - x_j, y_i - y_j)^d, their intersection over all pairs, the
order-of-vanishing oracle along each pairwise diagonal, alternant
products, the sign-isotypic quotient table, and the regular sequence
check for the y variables. Every pair ideal is generated in the
differences x_j - x_1, y_j - y_1, so `jd-series`, `catalan` and `freeness`
read one table of slices on the ring of those 2(n - 1) differences
(`_reduced_table`): `jd_dimensions` sums its ranks, `catalan_quotient` and
`freeness_check` rank its shifted rows (`_shift_ranks`). `jd_slice`,
`vanishing_slice`, `full_slice` and `alternant_slice` stay on the full ring
as the reference.

Lattice side: the group algebra Q[Lambda] tensor Q[y] (x variables
Laurent) with per-root ideals (y_alpha, 1 - x^coroot)^d, the homology
quotient by derivation kernels, and the rank-one affine flag module.
A windowed slice is the part, supported inside the window, of the span
of the translates of its generators by the points of the window
enlarged by a margin. It grows margin by margin (`_WindowSteps`): each
generator family carries one `linalg.Restriction`, a step adds only the
translates of the new shell of points, and no vector of an earlier step
is eliminated again. Columns are numbered as products first appear,
the window's monomials first. Ranks are monotone in the margin, and
results carry a stabilization status.

The homology quotient and the curve quotient of `curves` have relations
of one form: f^k K with K in ker(D^k), 1 <= k <= d, for a factor f and
a derivation D per root, (1 - x^coroot, d_alpha) per positive root here
and (x_i - x_j, d/dy_i - d/dy_j) per pair i < j there.
`_derivation_relations` builds both, and `derivation_kernel` writes
ker(D^k) down in closed form instead of solving for it. `curves` reads
`_shift_rows` too: `curves.quotient_table` builds the curve relation
slice at x-degree a from the one at a - 1 shifted by each x_j - x_1,
and the generators of x-degree a.

The polynomial slices of both sides live on rings from `bigraded_ring`.
Every other slice spanned by polynomial generators goes through
`_generated_slice`. It lists the monomials of one bidegree as the basis
and builds the intersection of the spans of generator families on it:
each generator times the monomials of the remaining degree, from one
multiplier table that all families share, read off the basis by
shifting the generator's exponents. Each family's rows are eliminated
into one subspace, and `linalg.intersect_subspaces` intersects the
spans when there are several. The pair ideal intersection is one
family per ideal; every other slice is a single family. The windowed
slices read generator products the same way, one family per positive
root for the root ideal intersection and one family of relations for
the homology quotient. The rank-one flag module's generators are not
polynomials, so `flag_rank1_module_slice` writes their rows on the
(level, coset) keys by hand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from math import comb, lcm
from operator import add, mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .gkm import y_names
from .linalg import (
    Restriction,
    Row,
    SliceBasis,
    Subspace,
    intersect_subspaces,
    kernel_of_rows,
)
from .rationals import ONE, ZERO
from .rings import Exp, Grading, MultiPoly, Ring, grading_for, ring, slice_monomials
from .rootdata import RootDatum

# ---- type A ring helpers ----


def bigraded_ring(xs: Iterable[int], ys: Iterable[int]) -> tuple[Ring, Grading]:
    """The ring of x_i, i in xs, and y_j, j in ys (named xi, yj), bigraded by
    (x-degree, y-degree): the full ring for xs = ys = 1..n, the type A
    reduced ring for xs = ys = 2..n, the curve ring for xs = 2..n, ys = 1..n."""
    weights = {f"x{i}": (1, 0) for i in xs} | {f"y{j}": (0, 1) for j in ys}
    rg = ring(list(weights))
    return rg, grading_for(rg, weights)


def xy_ring(n: int) -> Ring:
    return bigraded_ring(range(1, n + 1), range(1, n + 1))[0]


@dataclass
class SliceResult:
    """One computed slice: ordered basis keys plus the row space; a
    windowed slice also has its stabilization status and margin."""

    basis: SliceBasis
    space: Subspace
    ring: Ring
    status: str = "exact"  # exact | stabilized | inconclusive
    margin: int | None = None

    @property
    def rank(self) -> int:
        return self.space.rank

    @property
    def ambient_dim(self) -> int:
        return len(self.basis)

    @property
    def quotient_dim(self) -> int:
        return len(self.basis) - self.space.rank

    def row_polys(self) -> list[MultiPoly]:
        return [self.basis.poly(self.ring, row) for row in self.space.rows]

    def contains(self, element: Mapping) -> bool:
        """Is the element, a basis key -> coefficient map such as a
        polynomial's terms, in the row space? False when a key is
        outside the basis."""
        vec = {}
        for key, c in element.items():
            idx = self.basis.index.get(key)
            if idx is None:
                return False
            vec[idx] = c
        return self.space.contains(vec)


# ---- slices spanned by generators ----


Family = Iterable[tuple[MultiPoly, tuple[int, int]]]  # generators with their degrees


def _integer_terms(gen: MultiPoly) -> tuple[list[Exp], list[int]]:
    """The exponents of a generator and its coefficients with their
    denominators cleared."""
    den = lcm(*(int(c.denominator) for c in gen.terms.values()))
    return list(gen.terms), [int(c * den) for c in gen.terms.values()]


def _generated_slice(
    rg: Ring, grading: Grading, deg: tuple[int, int], families: Iterable[Family]
) -> SliceResult:
    """Intersection over families of the span of generator * monomial at deg.

    The basis is the monomials of degree deg. Each generator comes with
    its degree and is multiplied by every monomial of the remaining
    degree, listed once for all families. A generator's denominators
    are cleared once, and a product is its integer terms with the
    exponents shifted by the monomial, so its row is read off the basis
    index directly; a generator with a wrong degree makes a product
    outside the basis (KeyError). Each family's rows are eliminated into
    one subspace in the order they are made; the spans of several
    families are intersected.
    """
    basis = SliceBasis(slice_monomials(rg, grading, deg))
    multipliers: dict[tuple[int, int], list[Exp]] = {}
    index = basis.index

    def rows(family: Family):
        for gen, gdeg in family:
            rem = (deg[0] - gdeg[0], deg[1] - gdeg[1])
            if rem[0] < 0 or rem[1] < 0:
                continue
            if rem not in multipliers:
                multipliers[rem] = slice_monomials(rg, grading, rem)
            exps, coeffs = _integer_terms(gen)
            for m in multipliers[rem]:
                yield {index[tuple(map(add, e, m))]: c for e, c in zip(exps, coeffs)}

    parts = []
    for family in families:
        parts.append(Subspace(len(basis)))
        for row in rows(family):
            parts[-1]._add(row)
    space = parts[0] if len(parts) == 1 else intersect_subspaces(*parts)
    return SliceResult(basis, space, rg)


def _shift_rows(src: SliceResult, dst: SliceResult, var: str) -> Iterable[Row]:
    """The echelon rows of src times one variable, as vectors over dst's basis."""
    vi = src.ring.index(var)
    for row in src.space._ech.values():
        shifted = {}
        for col, c in row.items():
            exp = list(src.basis.keys[col])
            exp[vi] += 1
            shifted[dst.basis.index[tuple(exp)]] = c
        yield shifted


def _shift_ranks(
    slices: Mapping[tuple[int, int], SliceResult], deg: tuple[int, int], shifts: Iterable
) -> list[int]:
    """The rank inside slices[deg] of the shifted rows so far, after each (src,
    var) of shifts: the echelon rows of slices[src] times var, none when src is
    outside the table. slices is the slice table of one ideal, so every shifted
    row lies in the span of slices[deg]'s echelon rows. Each of those starts at
    its own pivot, so on the pivot columns they are triangular with a nonzero
    diagonal, and a vector in their span is fixed by its entries there: dropping
    the other columns keeps every rank."""
    dst = slices[deg]
    coord = {p: i for i, p in enumerate(dst.space.pivots)}
    image, ranks = Subspace(len(coord)), []
    for src, var in shifts:
        if src in slices and image.rank < len(coord):
            for row in _shift_rows(slices[src], dst, var):
                image._add({coord[j]: c for j, c in row.items() if j in coord})
        ranks.append(image.rank)
    return ranks


# ---- pair ideals and their intersection (polynomial, graded) ----


def _pair_family(rg: Ring, i: int, j: int, d: int) -> list:
    """The generators (x_i - x_j)^e (y_i - y_j)^(d - e) of the pair ideal power."""
    dx = MultiPoly.gen(rg, f"x{i}") - MultiPoly.gen(rg, f"x{j}")
    dy = MultiPoly.gen(rg, f"y{i}") - MultiPoly.gen(rg, f"y{j}")
    return [(dx**e * dy ** (d - e), (e, d - e)) for e in range(d + 1)]


def pair_ideal_slice(n: int, pair: tuple[int, int], d: int, deg: tuple[int, int]) -> SliceResult:
    """Slice of (x_i - x_j, y_i - y_j)^d at one bidegree (1-based pair)."""
    i, j = pair
    if not (1 <= i < j <= n):
        raise ValueError("pair must satisfy 1 <= i < j <= n")
    _check_power(d)
    rg, grading = bigraded_ring(range(1, n + 1), range(1, n + 1))
    return _generated_slice(rg, grading, deg, [_pair_family(rg, i, j, d)])


def full_slice(n: int, deg: tuple[int, int]) -> SliceResult:
    rg, grading = bigraded_ring(range(1, n + 1), range(1, n + 1))
    return _generated_slice(rg, grading, deg, [[(MultiPoly.one(rg), (0, 0))]])


def _check_power(d: int) -> None:
    if d < 0:
        raise ValueError(f"power d must be >= 0, got {d}")


def _check_jd(n: int, d: int, method: str) -> None:
    if n < 2:
        raise ValueError(f"n must be at least 2 (one pair of points), got {n}")
    _check_power(d)
    if method not in ("spanning", "vanishing"):
        raise ValueError(f"unknown method {method!r}")


def jd_slice(n: int, d: int, deg: tuple[int, int], method: str = "spanning") -> SliceResult:
    """Slice of the intersection over all pairs of the d-th pair ideal powers.

    method "spanning" intersects the spans of the pair ideal generators,
    one family per pair; "vanishing" solves the linearized order-d
    vanishing conditions instead (same subspace, independent pipeline).
    """
    _check_jd(n, d, method)
    if d == 0:
        return full_slice(n, deg)
    if method == "vanishing":
        return vanishing_slice(n, d, deg)
    rg, grading = bigraded_ring(range(1, n + 1), range(1, n + 1))
    families = [
        _pair_family(rg, i, j, d) for i, j in itertools.combinations(range(1, n + 1), 2)
    ]
    return _generated_slice(rg, grading, deg, families)


# ---- order-of-vanishing oracle along pairwise diagonals ----


def symbolic_power_oracle(f: MultiPoly, n: int, d: int) -> bool:
    """Does f vanish to order >= d along every pairwise diagonal?

    Substitutes x_j = x_i + u, y_j = y_i + v for each pair i < j and
    requires every term of total (u, v)-degree below d to cancel. The
    pair ideals are complete intersections cut out by linear forms, so
    this order of vanishing characterizes membership in their d-th
    powers, and the conjunction over pairs characterizes the
    intersection.
    """
    if f.ring != xy_ring(n):
        raise ValueError("oracle expects the n-variable diagonal ring")
    _check_power(d)
    if d == 0:
        return True
    ext = ring(f.ring.names + ("u", "v"))  # u, v are the last two exponents
    u, v = MultiPoly.gen(ext, "u"), MultiPoly.gen(ext, "v")
    for i, j in itertools.combinations(range(1, n + 1), 2):
        images = {f"x{j}": MultiPoly.gen(ext, f"x{i}") + u}
        images[f"y{j}"] = MultiPoly.gen(ext, f"y{i}") + v
        if any(sum(exp[-2:]) < d for exp in f.substitute(images, ext).terms):
            return False
    return True


def _vanishing(
    rg: Ring, keys: Sequence[Exp], pairs: Iterable[tuple[int, int]], d: int
) -> SliceResult:
    """The span of the monomials keys cut out by the linearized order-d
    vanishing conditions along the diagonals x_i = x_j, y_i = y_j of the
    given pairs.

    Under x_j -> x_i + u, y_j -> y_i + v a monomial whose (x_j,
    y_j)-exponent is (a, b) becomes the sum over k <= a, l <= b of C(a, k)
    C(b, l) u^k v^l times the monomial with x_j^a y_j^b replaced by
    x_i^(a - k) y_i^(b - l). Each term with k + l < d is one condition,
    keyed by (pair, that monomial, k, l), the monomial as its exponents
    of x_i and y_i and the rest of its exponent with those of x_i, x_j,
    y_i and y_j set to 0.
    """
    basis = SliceBasis(keys)
    cond_index: dict = {}
    rows: list[dict] = [{} for _ in range(len(basis))]
    for pair in pairs:
        xi, xj, yi, yj = (rg.index(f"{name}{p}") for name in "xy" for p in pair)
        for row, exp in zip(rows, basis.keys):
            a, b = exp[xj], exp[yj]
            rest = tuple(0 if c in (xi, xj, yi, yj) else e for c, e in enumerate(exp))
            for k in range(min(a, d - 1) + 1):
                for l in range(min(b, d - 1 - k) + 1):
                    key = (pair, exp[xi] + a - k, exp[yi] + b - l, rest, k, l)
                    row[cond_index.setdefault(key, len(cond_index))] = comb(a, k) * comb(b, l)
    return SliceResult(basis, kernel_of_rows(rows), rg)


def vanishing_slice(n: int, d: int, deg: tuple[int, int]) -> SliceResult:
    """Subspace cut out by the oracle's linear conditions at one bidegree."""
    _check_power(d)
    rg, grading = bigraded_ring(range(1, n + 1), range(1, n + 1))
    keys = slice_monomials(rg, grading, deg)
    return _vanishing(rg, keys, itertools.combinations(range(1, n + 1), 2), d)


# ---- alternants (type A: simultaneous permutation of x and y) ----


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def alternant(n: int, exp: Exp) -> MultiPoly:
    """Signed symmetrization of one monomial under the diagonal S_n action."""
    rg = xy_ring(n)
    terms: dict = {}
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        xpart = exp[:n]
        ypart = exp[n:]
        new = [0] * (2 * n)
        for src in range(n):
            new[perm[src]] = xpart[src]
            new[n + perm[src]] = ypart[src]
        key = tuple(new)
        terms[key] = terms.get(key, ZERO) + sign
    return MultiPoly(rg, terms)


def alternant_basis(n: int, deg: tuple[int, int]) -> list[MultiPoly]:
    """Independent alternants spanning the sign-isotypic part of one slice."""
    basis = SliceBasis(slice_monomials(*bigraded_ring(range(1, n + 1), range(1, n + 1)), deg))
    space = Subspace(len(basis))
    out = []
    for exp in basis.keys:
        p = alternant(n, exp)
        if p.is_zero():
            continue
        if space.insert(basis.vector_from_poly(p)):
            out.append(p)
    return out


def alternant_slice(n: int, d: int, deg: tuple[int, int]) -> SliceResult:
    """Span of (product of d alternants) * monomial at one bidegree.

    A d-fold combination whose summed bidegree exceeds deg is skipped
    before its product is formed.
    """
    _check_power(d)
    if d == 0:
        return full_slice(n, deg)
    rg, grading = bigraded_ring(range(1, n + 1), range(1, n + 1))
    pool = [
        (p, (a, b))
        for a in range(deg[0] + 1)
        for b in range(deg[1] + 1)
        if (a, b) != (0, 0)
        for p in alternant_basis(n, (a, b))
    ]

    def products():
        for combo in itertools.combinations_with_replacement(pool, d):
            pdeg = (sum(g[1][0] for g in combo), sum(g[1][1] for g in combo))
            if pdeg[0] > deg[0] or pdeg[1] > deg[1]:
                continue
            prod = combo[0][0]
            for p, _ in combo[1:]:
                prod = prod * p
            yield prod, pdeg

    return _generated_slice(rg, grading, deg, [products()])


# ---- the translation-reduced ring: one table for jd-series and catalan ----


def _reduced_table(n: int, d: int, top: int, method: str) -> dict[tuple[int, int], SliceResult]:
    """J'^d at every bidegree (a, b) with a + b <= top, on the ring R' of
    the differences to the first point.

    R' = Q[x'_2..x'_n, y'_2..y'_n] with x'_j = x_j - x_1 and y'_j = y_j -
    y_1 (its variables are named x2..xn, y2..yn). This graded change of
    variables makes Q[x, y] = R'[x_1, y_1] and takes the pair ideal of
    (1, j) to (x'_j, y'_j)^d and that of (i, j) to (x'_i - x'_j, y'_i -
    y'_j)^d, each extended from an ideal of R'. Q[x, y] is free over R',
    so intersections commute with the extension: J^d = J'^d[x_1, y_1],
    with J'^d the intersection of those ideals in R'. Hence J^d(a, b) is
    the direct sum of x_1^(a - a') y_1^(b - b') J'^d(a', b') over a' <= a,
    b' <= b, and its dimension is a two-dimensional prefix sum of the
    table's ranks. The ideal (x, y) of the variables is (x', y')[x_1, y_1]
    + (x_1, y_1), so J^d / (x, y) J^d = (J'^d / (x', y') J'^d) tensor
    Q[x_1, y_1] / (x_1, y_1) = J'^d / (x', y') J'^d in every bidegree.

    method "spanning" intersects the spans of one family per j >= 2, the
    monomials x'_j^e y'_j^(d - e), and of the pair families of 2 <= i <
    j. method "vanishing" starts from the monomials whose (x'_j,
    y'_j)-degree is at least d for every j >= 2, which span the
    intersection of the (x'_j, y'_j)^d, and imposes the linearized
    vanishing conditions of the pairs 2 <= i < j only.
    """
    _check_jd(n, d, method)
    rg, grading = bigraded_ring(range(2, n + 1), range(2, n + 1))
    pairs = list(itertools.combinations(range(2, n + 1), 2))
    if d == 0:
        families = [[(MultiPoly.one(rg), (0, 0))]]
    else:
        families = []
        for j in range(2, n + 1):
            xj, yj = MultiPoly.gen(rg, f"x{j}"), MultiPoly.gen(rg, f"y{j}")
            families.append([(xj**e * yj ** (d - e), (e, d - e)) for e in range(d + 1)])
        families += [_pair_family(rg, i, j, d) for i, j in pairs]
    table = {}
    for a in range(top + 1):
        for b in range(top + 1 - a):
            if d and method == "vanishing":
                keys = slice_monomials(rg, grading, (a, b))
                keys = [e for e in keys if all(e[k] + e[k + n - 1] >= d for k in range(n - 1))]
                table[(a, b)] = _vanishing(rg, keys, pairs, d)
            else:
                table[(a, b)] = _generated_slice(rg, grading, (a, b), families)
    return table


def jd_dimensions(n: int, d: int, maxdeg: int, method: str) -> dict[tuple[int, int], int]:
    """dim J^d(a, b) for every a + b <= maxdeg, as two-dimensional prefix
    sums of the ranks of `_reduced_table` (the rank of `jd_slice` at
    (a, b))."""
    if maxdeg < 0:
        raise ValueError(f"maxdeg must be >= 0, got {maxdeg}")
    dims: dict[tuple[int, int], int] = {}
    for (a, b), s in _reduced_table(n, d, maxdeg, method).items():
        below = dims.get((a - 1, b), 0) + dims.get((a, b - 1), 0) - dims.get((a - 1, b - 1), 0)
        dims[(a, b)] = s.rank + below
    return dims


# ---- sign-isotypic quotient table (Catalan numbers) ----


@dataclass
class CatalanReport:
    n: int
    table: dict  # (a, b) -> dim, nonzero entries only
    total: int
    top_degree: int
    boundary_zero: bool  # every entry on the first uncounted diagonal is 0
    method: str


def catalan_quotient(n: int, method: str = "spanning") -> CatalanReport:
    """Bigraded dimensions of J / (x, y) J for the pairwise diagonal ideal.

    J is the d = 1 intersection; the quotient is supported in total
    degree <= n(n-1)/2, and the first diagonal past the top is computed
    and checked to vanish. It is read off `_reduced_table` as J' / (x',
    y') J': at each bidegree, the rank of the slice of J' less that of
    the shifts of the slices below it by x'_2..x'_n and y'_2..y'_n
    (`_shift_ranks`).
    """
    top = n * (n - 1) // 2
    slices = _reduced_table(n, 1, top + 1, method)
    table: dict[tuple[int, int], int] = {}
    for (a, b), cur in slices.items():
        shifts = [((a - 1, b), f"x{i}") for i in range(2, n + 1)]
        shifts += [((a, b - 1), f"y{i}") for i in range(2, n + 1)]
        dim = cur.rank - _shift_ranks(slices, (a, b), shifts)[-1]
        if dim:
            table[(a, b)] = dim
    boundary_zero = all(a + b <= top for a, b in table)
    return CatalanReport(
        n=n,
        table=dict(sorted(table.items())),
        total=sum(table.values()),
        top_degree=top,
        boundary_zero=boundary_zero,
        method=method,
    )


# ---- regular sequence check for y_1..y_n on the intersection ideal ----


@dataclass
class FreenessReport:
    n: int
    d: int
    max_total: int
    ok: bool
    failures: list  # (stage k, (a, b))
    stages_checked: int


def freeness_check(n: int, d: int, max_total: int, method: str = "spanning") -> FreenessReport:
    """Are y_1..y_n a regular sequence on the d-th intersection ideal?

    Checked slice by slice through the given total degree: at stage k the
    map 'multiply by y_k' on J/(y_1..y_{k-1})J must be injective on every
    bidegree (a, b) with a + b <= max_total. It is read off
    `_reduced_table`, where J = J'[x_1, y_1] (y'_k = y_k - y_1). J is
    free over Q[y_1], so y_1 is regular on it and stage 1 passes. For k
    >= 2, J/(y_1..y_{k-1})J = (J'/(y'_2..y'_{k-1})J')[x_1] and y_k acts
    as y'_k, so the map at (a, b) is the direct sum over a' <= a of
    x_1^(a - a') times the map by y'_k at (a', b) on the reduced quotient:
    stage k fails at (a, b) exactly when the reduced map fails at some
    (a', b) with a' <= a. With r_k(a, b) the rank of (y'_2..y'_k) J'(a,
    b-1) inside J'(a, b), one rank chain r_0 = r_1 = 0, r_2, .., r_n per
    bidegree from `_shift_ranks`, the reduced map at (a, b) is injective when dim J'(a, b) -
    r_{k-1}(a, b) = r_k(a, b+1) - r_{k-1}(a, b+1).
    """
    if max_total < 0:
        raise ValueError(f"max_total must be >= 0, got {max_total}")
    slices = _reduced_table(n, d, max_total + 1, method)
    chain: dict[tuple[int, int], list[int]] = {}  # (a, b) -> [r_0, ..., r_n]
    for a, b in slices:
        shifts = [((a, b - 1), f"y{j}") for j in range(2, n + 1)]
        chain[(a, b)] = [0, 0] + _shift_ranks(slices, (a, b), shifts)

    failed = set()
    for (a, b), here in chain.items():
        if a + b > max_total:
            continue
        nxt = chain[(a, b + 1)]
        for k in range(2, n + 1):
            if slices[(a, b)].rank - here[k - 1] != nxt[k] - nxt[k - 1]:
                failed.update((k, (up, b)) for up in range(a, max_total + 1 - b))
    checked = n * (max_total + 1) * (max_total + 2) // 2
    return FreenessReport(n, d, max_total, not failed, sorted(failed), checked)


# ---- windowed slices over the cocharacter lattice ----


def lattice_ring(rd: RootDatum) -> Ring:
    xnames = [f"x{i+1}" for i in range(rd.rank)]
    return ring(xnames + y_names(rd.yrank), laurent=xnames)


def lattice_grading(rd: RootDatum, rg: Ring) -> Grading:
    return grading_for(rg, {n: (1, 0) for n in y_names(rd.yrank)})


def _enlarged(bounds: Sequence[tuple[int, int]], amount: int) -> list[tuple[int, int]]:
    return [(lo - amount, hi + amount) for lo, hi in bounds]


def _window_dict(bounds: Sequence[tuple[int, int]]) -> dict:
    return {f"x{i+1}": tuple(b) for i, b in enumerate(bounds)}


def _shell(
    bounds: Sequence[tuple[int, int]], reach: int, inner: int | None, outer: int
) -> list[tuple[int, ...]]:
    """The lattice points of the window enlarged by outer reaches but
    not of the window enlarged by inner reaches (every point when inner
    is None)."""
    box = itertools.product(*(range(lo, hi + 1) for lo, hi in _enlarged(bounds, outer * reach)))
    if inner is None:
        return list(box)
    small = _enlarged(bounds, inner * reach)
    return [lam for lam in box if not all(lo <= c <= hi for c, (lo, hi) in zip(lam, small))]


# The integer rows of one family's translates by the points of a shell,
# numbering the keys of their terms in a shared key -> column dict.
Translates = Callable[[Sequence[tuple[int, ...]], dict], Iterable[Row]]


class _WindowSteps:
    """The margin steps of a windowed slice, grown by one carried
    elimination per generator family; `_stabilize` calls it with
    increasing margins.

    The slice is the intersection over families of the part of each
    family's span that lies on the window, where a family at margin m
    is its translates by the points of the window enlarged by m reaches.
    Columns are numbered as keys first appear, the window's keys first
    in their order, so the window is the first columns and the block
    every later one. A call with margin m adds only the translates of
    the shell that margin m adds (every point at the first call) to each
    family's `linalg.Restriction`, and returns a snapshot of the window
    part: the part itself is copied for one family, the parts are
    intersected for more.
    """

    def __init__(
        self,
        rg: Ring,
        window_keys: Sequence,
        bounds: Sequence[tuple[int, int]],
        reach: int,
        families: Sequence[Translates],
    ):
        self.ring = rg
        self.basis = SliceBasis(window_keys)
        self.bounds = bounds
        self.reach = reach
        self.families = families
        self.columns = dict(self.basis.index)
        self.carried = [Restriction(len(self.basis)) for _ in families]
        self.margin: int | None = None  # the margin reached so far

    def __call__(self, m: int) -> SliceResult:
        shell = _shell(self.bounds, self.reach, self.margin, m)
        fresh = len(self.columns)
        for carried, translates in zip(self.carried, self.families):
            carried.extend(translates(shell, self.columns), fresh)
        self.margin = m
        spaces = [carried.part for carried in self.carried]
        space = spaces[0].copy() if len(spaces) == 1 else intersect_subspaces(*spaces)
        return SliceResult(self.basis, space, self.ring, margin=m)


def _lattice_steps(
    rd: RootDatum, rg: Ring, ydeg: int, bounds: Sequence[tuple[int, int]], families: Sequence[Family]
) -> _WindowSteps:
    """The margin steps of the y-degree ydeg window slice of the
    intersection of the spans of generator families, for `_stabilize`.

    A translate is a generator times x^lam y^b, with b of the remaining
    y-degree; a margin step reaches as far as the largest coroot entry.
    As in `_generated_slice`, a product is the generator's integer terms
    with the exponents shifted.
    """
    grading = lattice_grading(rd, rg)
    pin = _window_dict([(0, 0)] * rd.rank)
    ys: dict[int, list[tuple[int, ...]]] = {}  # y-degree -> y parts of its monomials

    def translates(family: Family) -> Translates:
        gens = []
        for gen, (gdeg, _) in family:
            rem = ydeg - gdeg
            if rem not in ys:
                ys[rem] = [e[rd.rank :] for e in slice_monomials(rg, grading, (rem, 0), pin)]
            gens.append((*_integer_terms(gen), ys[rem]))

        def rows(shell, columns):
            for exps, coeffs, yparts in gens:
                for lam in shell:
                    for y in yparts:
                        m = lam + y
                        yield {
                            columns.setdefault(tuple(map(add, e, m)), len(columns)): c
                            for e, c in zip(exps, coeffs)
                        }

        return rows

    window_keys = slice_monomials(rg, grading, (ydeg, 0), _window_dict(bounds))
    reach = max((max(abs(c) for c in cor) for cor in rd.coroots), default=1)
    return _WindowSteps(rg, window_keys, bounds, reach, [translates(f) for f in families])


def coroot_monomial(rd: RootDatum, rg: Ring, root_index: int) -> MultiPoly:
    """x^(coroot of the given positive root)."""
    cor = rd.coroots[root_index]
    exp = [0] * rg.nvars
    for i, c in enumerate(cor):
        exp[rg.index(f"x{i+1}")] = c
    return MultiPoly.monomial(rg, tuple(exp))


# Margin steps a windowed slice takes before it is called inconclusive.
STABILIZE_TRIES = 4


def _stabilize(compute: Callable[[int], SliceResult], margin0: int) -> SliceResult:
    """Increase the margin until one further step does not change the rank.

    compute(m) is called with margin0, margin0 + 1, ... in that order,
    so that it can carry its work from one margin to the next, and must
    return a result that later calls leave unchanged (a snapshot).
    """
    prev = compute(margin0)
    m = margin0
    for _ in range(STABILIZE_TRIES):
        nxt = compute(m + 1)
        if nxt.rank == prev.rank:
            prev.status = "stabilized"
            prev.margin = m
            return prev
        prev, m = nxt, m + 1
    prev.status = "inconclusive"
    prev.margin = m
    return prev


def _first_margin(margin: int | None, default: int) -> int:
    """The margin a windowed slice starts from; a negative one is rejected
    before any work is done."""
    if margin is None:
        return default
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    return margin


def _check_lattice_degrees(
    rd: RootDatum, d: int, ydeg: int, bounds: Sequence[tuple[int, int]]
) -> None:
    if len(bounds) != rd.rank:
        raise ValueError(f"need {rd.rank} window bounds, got {len(bounds)}")
    _check_power(d)
    if ydeg < 0:
        raise ValueError(f"y-degree must be >= 0, got {ydeg}")


def _root_families(rd: RootDatum, rg: Ring, d: int, ydeg: int) -> list[list]:
    """Per positive root, the generators y_alpha^e (1 - x^coroot)^(d - e)
    of (y_alpha, 1 - x^coroot)^d up to y-degree ydeg."""
    one = MultiPoly.one(rg)
    families = []
    for i in range(rd.npos):
        y_alpha = rd.root_form(rg, i, y_names(rd.yrank))
        one_minus = one - coroot_monomial(rd, rg, i)
        families.append(
            [(y_alpha**e * one_minus ** (d - e), (e, 0)) for e in range(min(d, ydeg) + 1)]
        )
    return families


def jd_root_slice(
    rd: RootDatum,
    d: int,
    ydeg: int,
    bounds: Sequence[tuple[int, int]],
    margin: int | None = None,
) -> SliceResult:
    """Windowed slice of the intersection over roots of (y_alpha, 1-x^coroot)^d."""
    if rd.npos == 0:
        raise ValueError("root datum has no positive roots")
    _check_lattice_degrees(rd, d, ydeg, bounds)
    margin0 = _first_margin(margin, 2 * d)
    rg = lattice_ring(rd)
    steps = _lattice_steps(rd, rg, ydeg, bounds, _root_families(rd, rg, d, ydeg))
    return _stabilize(steps, margin0)


# ---- homology quotient by derivation kernels ----


def derivation_kernel(
    rg: Ring, ynames: Sequence[str], coeffs: Mapping[str, int], k: int, ydeg: int
) -> list[MultiPoly]:
    """Basis of ker(D^k) on the degree-ydeg polynomials in ynames, with
    integer coefficients.

    D = sum of coeffs[name] * d/d(name) with integer coefficients. Let v
    be the first name with c_v != 0 and w_n = c_v y_n - c_n y_v for the
    other names. Then D w_n = 0 and D y_v = c_v, and (y_v, w) are
    coordinates over Q, in which D = c_v d/d(y_v). Writing f = sum over a
    of y_v^a g_a(w), D^k f = 0 exactly when g_a = 0 for every a >= k, so
    the products y_v^a prod w_n^(b_n) with a < k and a + |b| = ydeg span
    the kernel; they are distinct monomials in (y_v, w), so they are a
    basis. When k > ydeg every a <= ydeg qualifies and the kernel is every
    polynomial of degree ydeg, so the monomials y_v^a prod y_n^(b_n) are
    listed instead, which have fewer terms. A D with every coefficient 0
    raises ValueError.
    """
    v = next((n for n in ynames if coeffs.get(n)), None)
    if v is None:
        raise ValueError("derivation has every coefficient 0")
    cv, yv = coeffs[v], MultiPoly.gen(rg, v)
    others = [n for n in ynames if n != v]
    if k > ydeg:
        ws = [MultiPoly.gen(rg, n) for n in others]
    else:
        ws = [MultiPoly.gen(rg, n) * cv - yv * coeffs.get(n, 0) for n in others]
    return [
        reduce(mul, combo, yv**a)
        for a in range(min(k, ydeg + 1))
        for combo in itertools.combinations_with_replacement(ws, ydeg - a)
    ]


def _derivation_relations(
    rg: Ring, ynames: Sequence[str], roots: Iterable, kmax: int, ydeg: int
) -> Iterator[tuple[int, MultiPoly]]:
    """(k, f^k K) for each (factor f, coefficients of D) in roots, each
    1 <= k <= kmax and each K in the `derivation_kernel` basis of
    ker(D^k) in y-degree ydeg."""
    for factor, coeffs in roots:
        for k in range(1, kmax + 1):
            power = factor**k
            for K in derivation_kernel(rg, ynames, coeffs, k, ydeg):
                yield k, power * K


def _relation_generators(rd: RootDatum, rg: Ring, d: int, ydeg: int) -> list:
    """The relations (1 - x^coroot)^k K, K in ker(d_alpha^k) of y-degree
    ydeg, over positive roots and 1 <= k <= d."""
    ynames = y_names(rd.yrank)
    roots = []
    for i, cor in enumerate(rd.coroots):
        d_alpha = {n: sum(p * c for p, c in zip(row, cor)) for n, row in zip(ynames, rd.pairing)}
        roots.append((MultiPoly.one(rg) - coroot_monomial(rd, rg, i), d_alpha))
    return [(rel, (ydeg, 0)) for _, rel in _derivation_relations(rg, ynames, roots, d, ydeg)]


@dataclass
class QuotientResult:
    ambient_dim: int
    submodule_rank: int
    quotient_dim: int
    status: str
    margin: int | None
    submodule: SliceResult


def ordinary_homology_quotient_slice(
    rd: RootDatum,
    d: int,
    ydeg: int,
    bounds: Sequence[tuple[int, int]],
    margin: int | None = None,
) -> QuotientResult:
    """Window slice of Q[Lambda] (x) Q[y] modulo the derivation-kernel relations.

    The relation submodule is the span of (1 - x^coroot)^k x^lam K with
    K in ker(d_alpha^k), summed over positive roots and 1 <= k <= d.
    d_alpha differentiates along the coroot: sum_i <basis_root_i,
    coroot> partial_{y_i}.
    """
    _check_lattice_degrees(rd, d, ydeg, bounds)
    margin0 = _first_margin(margin, 2 * d)
    rg = lattice_ring(rd)
    steps = _lattice_steps(rd, rg, ydeg, bounds, [_relation_generators(rd, rg, d, ydeg)])
    sub = _stabilize(steps, margin0)
    return QuotientResult(
        ambient_dim=sub.ambient_dim,
        submodule_rank=sub.rank,
        quotient_dim=sub.quotient_dim,
        status=sub.status,
        margin=sub.margin,
        submodule=sub,
    )


# ---- rank-one affine flag module at t = 0 ----


def _flag_steps(bounds: tuple[int, int]) -> _WindowSteps:
    """The margin steps of the flag module's window slice: a step adds
    the rows of x^a (1 - s) and x^a (1 - x) for the levels a it adds."""
    lo, hi = bounds

    def rows(shell, columns):
        for (a,) in shell:
            for terms in (((a, "e"), (a, "s")), ((a, "e"), (a + 1, "e"))):
                yield {columns.setdefault(key, len(columns)): c for key, c in zip(terms, (1, -1))}

    window_keys = [(a, w) for a in range(lo, hi + 1) for w in ("e", "s")]
    return _WindowSteps(ring(["x"], laurent=["x"]), window_keys, [bounds], 1, [rows])


def flag_rank1_module_slice(bounds: tuple[int, int], margin: int | None = None) -> SliceResult:
    """Window slice of the span of {1 - s, 1 - x, y} inside the group algebra.

    Keys are (level, coset) with coset "e" or "s"; this is the y-degree
    zero layer, where the generators contribute x^m (1 - s) supported on
    {(m,e),(m,s)} and x^m (1 - x) supported on {(m,e),(m+1,e)}.
    """
    return _stabilize(_flag_steps(bounds), _first_margin(margin, 0))


def flag_step_element(k: int) -> dict:
    """y times the t = 0 limit of the step class: (k,e) - (k-1,s)."""
    return {(k, "e"): ONE, (k - 1, "s"): -ONE}


def flag_pair_element(k: int) -> dict:
    """y times the t = 0 limit of the pair class: (k,e) - (k,s)."""
    return {(k, "e"): ONE, (k, "s"): -ONE}

