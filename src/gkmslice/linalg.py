"""Exact subspaces of Q^n on primitive integer rows.

Vectors are sparse index->coefficient dicts over an ordered basis of
hashable keys (monomial exponent tuples, or richer keys for module
slices). A Subspace stores each row as a primitive integer vector: the
content gcd is 1, the pivot entry is positive, and the entry at every
other row's pivot is 0. That is the reduced row echelon form scaled row
by row, so equal subspaces have identical representations and every
operation is deterministic. Elimination is fraction-free (cross-
multiplication, then division by the content, as in Bareiss 1968); the
only rationals are made at the boundary, where `rows` and `reduce`
return the canonical RREF over Q.

Kernels use the augmented-row trick: stack generators with identity
tags, reduce with pivots on the original columns only, and read the
relations off rows whose original part vanished. An intersection is the
kernel of the remainders of one space's rows modulo the other.
Restriction to a set of columns is the same kernel with the dropped
columns ordered first: what is left of a vector once the dropped block
is eliminated is supported on the kept columns.
"""

from __future__ import annotations

import bisect
from math import gcd, lcm
from typing import Hashable, Iterable, Sequence

from .rationals import rat
from .rings import MultiPoly, Ring, monomial_key

Row = dict  # int -> rational (or int inside Subspace), nonzero entries only


class SliceBasis:
    """Ordered basis keys with O(1) lookup; bridges polynomials and vectors."""

    def __init__(self, keys: Sequence[Hashable]):
        self.keys = tuple(keys)
        self.index = {k: i for i, k in enumerate(self.keys)}
        if len(self.index) != len(self.keys):
            raise ValueError("duplicate basis keys")

    def __len__(self) -> int:
        return len(self.keys)

    def vector(self, coeffs: dict) -> Row:
        """Key->coefficient dict to a sparse vector; unknown keys are errors."""
        out: Row = {}
        for k, c in coeffs.items():
            if c == 0:
                continue
            out[self.index[k]] = c
        return out

    def vector_from_poly(self, p: MultiPoly, strict: bool = True) -> Row | None:
        """Polynomial to a vector over exponent keys.

        strict=True errors when the support leaves the basis; strict=False
        returns None instead (used by windowed membership tests).
        """
        out: Row = {}
        for exp, c in p.terms.items():
            i = self.index.get(exp)
            if i is None:
                if strict:
                    raise KeyError(f"monomial {exp} outside slice basis")
                return None
            out[i] = c
        return out

    def poly(self, ring: Ring, vec: Row) -> MultiPoly:
        return MultiPoly(ring, {self.keys[i]: c for i, c in vec.items()})


def basis_for_monomials(exps: Iterable[tuple]) -> SliceBasis:
    return SliceBasis(sorted(exps, key=monomial_key))


def _integer(vec: Row) -> tuple[Row, int]:
    """(den * vec as an int vector, den): den is the lcm of the denominators."""
    den = 1
    for c in vec.values():
        if c.denominator != 1:
            den = lcm(den, int(c.denominator))
    if den == 1:
        return {j: int(c) for j, c in vec.items() if c}, 1
    return {j: int(c.numerator) * (den // int(c.denominator)) for j, c in vec.items() if c}, den


def _primitive(v: Row) -> Row:
    g = gcd(*v.values())
    return v if g == 1 else {j: c // g for j, c in v.items()}


class Subspace:
    """Row space over Q, kept as primitive integer rows in scaled RREF."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: list[int] = []  # sorted
        self._rows: dict[int, Row] = {}  # pivot -> primitive integer row
        self._q: list[Row] | None = None  # canonical Q rows, built on demand

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> list[Row]:
        """The canonical RREF over Q, sorted by pivot column."""
        if self._q is None:
            q = []
            for p in self.pivots:
                row = self._rows[p]
                q.append({j: rat(c, row[p]) for j, c in row.items()})
            self._q = q
        return self._q

    def copy(self) -> "Subspace":
        out = Subspace(self.ncols)
        out.pivots = list(self.pivots)
        out._rows = dict(self._rows)  # rows are replaced, never mutated
        return out

    def _remainder(self, v: Row) -> tuple[Row, int]:
        """(s * remainder of the integer vector v, s) for an integer s > 0.

        A row is 0 at every other row's pivot, so only the rows whose
        pivots lie in the support of v take part, each once. The
        remainder is a fresh dict.
        """
        rows = self._rows
        hits = [p for p in v if p in rows]
        if not hits:
            return dict(v), 1
        scale = lcm(*[rows[p][p] for p in hits])
        w = {j: scale * c for j, c in v.items()}
        for p in hits:
            row = rows[p]
            f = scale // row[p] * v[p]
            for j, c in row.items():
                w[j] = w.get(j, 0) - f * c
        return {j: c for j, c in w.items() if c}, scale

    def _insert(self, v: Row, limit: int | None = None) -> Row | None:
        """Reduce the integer vector v and add it as a row.

        The pivot is the first column of the remainder below `limit` (any
        column when None). Returns None when a row was added, else the
        remainder times a positive integer (empty when v was in the span).
        """
        r, _ = self._remainder(v)
        cols = r if limit is None else [j for j in r if j < limit]
        if not cols:
            return r
        p = min(cols)
        r = _primitive(r)
        if r[p] < 0:
            r = {j: -c for j, c in r.items()}
        a = r[p]
        rows = self._rows
        at = bisect.bisect_left(self.pivots, p)
        # a row holds no column left of its pivot
        for q in [q for q in self.pivots[:at] if p in rows[q]]:
            row = rows[q]
            c = row[p]
            new = {j: a * x for j, x in row.items()}
            for j, x in r.items():
                new[j] = new.get(j, 0) - c * x
            rows[q] = _primitive({j: x for j, x in new.items() if x})
        rows[p] = r
        self.pivots.insert(at, p)
        self._q = None
        return None

    def reduce(self, vec: Row) -> Row:
        """Remainder of vec modulo the row space (fresh dict, exact over Q)."""
        v, den = _integer(vec)
        w, scale = self._remainder(v)
        return {j: rat(c, den * scale) for j, c in w.items()}

    def contains(self, vec: Row) -> bool:
        return not self._remainder(_integer(vec)[0])[0]

    def insert(self, vec: Row) -> bool:
        """Add one vector; True when the rank grew."""
        return self._insert(_integer(vec)[0]) is None

    def extend(self, vectors: Iterable[Row]) -> None:
        for v in vectors:
            self.insert(v)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ncols == other.ncols
            and self.pivots == other.pivots
            and self._rows == other._rows
        )


def span(vectors: Iterable[Row], ncols: int) -> Subspace:
    sub = Subspace(ncols)
    sub.extend(vectors)
    return sub


def sum_subspaces(a: Subspace, b: Subspace) -> Subspace:
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch")
    out = a.copy()
    for row in b._rows.values():
        out._insert(row)
    return out


def _kernel(vectors: Iterable[Row], base: int, count: int) -> Subspace:
    """Eliminate integer vectors on the first `base` columns; keep what
    is left past them.

    Pivots stay on the first base columns, so the rows kept there have
    independent parts on them, and a vector that reduces to 0 on them
    leaves a remainder on columns base .. base + count - 1. The span of
    those remainders is returned as a subspace of Q^count. With the i-th
    of `count` rows tagged at base + i, it is the relations among them.
    """
    work = Subspace(base + count)
    out = Subspace(count)
    for v in vectors:
        rest = work._insert(v, base)
        if rest:
            out._insert({j - base: c for j, c in rest.items()})
    return out


def intersect_subspaces(a: Subspace, b: Subspace) -> Subspace:
    """A cap B: sum v_j B_j lies in A iff sum v_j rem_j = 0.

    rem_j is the remainder of the j-th row of B modulo A, one pass each
    since A is reduced. The larger space plays A. B is reduced and the
    combination sum v_j B_j has entry v_j * B_j[p_j] at the pivot p_j of
    B_j, so the reduced relations map to the scaled RREF of the result.
    """
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch")
    if a.rank < b.rank:
        a, b = b, a
    ncols = a.ncols
    brows = [b._rows[p] for p in b.pivots]

    def tagged():
        for i, row in enumerate(brows):
            rem, scale = a._remainder(row)
            rem[ncols + i] = scale
            yield rem

    rel = _kernel(tagged(), ncols, len(brows))
    out = Subspace(ncols)
    for q in rel.pivots:
        elem: Row = {}
        for j, c in rel._rows[q].items():
            for k, x in brows[j].items():
                elem[k] = elem.get(k, 0) + c * x
        out.pivots.append(b.pivots[q])
        out._rows[b.pivots[q]] = _primitive({k: x for k, x in elem.items() if x})
    return out


def kernel_of_rows(rows: Sequence[Row], ncols: int) -> Subspace:
    """Kernel of u -> sum u_i rows_i, as a subspace of Q^len(rows)."""

    def tagged():
        for i, row in enumerate(rows):
            v, den = _integer(row)
            v[ncols + i] = den
            yield v

    return _kernel(tagged(), ncols, len(rows))


def restrict_to_columns(vectors: Iterable[Row], keep: Sequence[int], ncols: int) -> Subspace:
    """Elements of the span of `vectors` (in Q^ncols) supported on `keep`,
    reindexed to keep.

    One pass of `_kernel` with the dropped columns ordered first: the
    elements of the span that vanish on them are spanned by what each
    vector leaves after elimination there.
    """
    keep_set = set(keep)
    drop = [j for j in range(ncols) if j not in keep_set]
    order = {j: i for i, j in enumerate(drop)}
    base = len(drop)
    for i, j in enumerate(keep):
        order[j] = base + i

    def permuted():
        for vec in vectors:
            v, _ = _integer(vec)
            yield {order[j]: c for j, c in v.items()}

    return _kernel(permuted(), base, len(keep))


def rank_of(vectors: Iterable[Row], ncols: int) -> int:
    return span(vectors, ncols).rank
