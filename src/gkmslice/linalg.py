"""Exact subspaces of Q^n on primitive integer rows.

Vectors are sparse index->coefficient dicts over an ordered basis of
hashable keys (monomial exponent tuples, or richer keys for module
slices). All elimination runs on integer vectors with fraction-free
steps (cross-multiplication by the cofactors of the gcd of the two
entries, as in Bareiss 1968), through three routines:

- `_eliminate` adds a vector to the echelon rows of a Subspace: each
  row is primitive (content gcd 1) and starts at its pivot, with a
  positive entry there. The columns the vector hits are taken in
  increasing order from a heap; the first one without a row becomes the
  pivot of a new row. Rows are never back-eliminated.
- `_canonical` makes one back-substitution pass from the highest pivot
  down and returns the reduced row echelon form scaled row by row, so
  that equal subspaces have identical representations. Only the
  readers of a Subspace's canonical form build it (`rows`, `contains`,
  `reduce` and `==`), on first use; the only rationals are made at the
  boundary, where `rows` and `reduce` return the canonical RREF over Q.
- `_kernel` finds which part of a span vanishes on a block of leading
  columns. It holds all the vectors at once and eliminates the block
  column by column, the column with the fewest holders first, dropping
  each pivot vector once its column is cleared (Markowitz pivoting).
  What the other vectors leave past the block spans the answer.

`meet` is the one caller of `_kernel`. It intersects, over families of
vectors, the part of each family's span on the kept columns: one
`_kernel` call per family with the dropped columns as the block, and
for two or more families one more over their echelon rows, chained as
in Zassenhaus' algorithm. `restrict_to_columns` is one family,
`intersect_subspaces` two that keep every column, and `kernel_of_rows`
one whose i-th row is tagged with an identity column past the original
columns, keeping only the tags: the relations among the rows.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Hashable, Iterable, Sequence

from .rationals import rat
from .rings import MultiPoly, Ring

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


def _eliminate(w: Row, rows: dict[int, Row]) -> int | None:
    """Reduce the integer vector w in place against echelon rows.

    `rows` maps each pivot to a primitive integer row whose first column
    is that pivot, with a positive entry there. The columns of w are
    taken in increasing order from a heap; an elimination step only
    brings in columns past its pivot, which are pushed as they appear.
    The first column without a row becomes the pivot: w is made
    primitive with a positive pivot entry, stored as the new row, and
    the pivot is returned. Otherwise w was in the span: it is left
    empty and None is returned.
    """
    heap = list(w)
    heapify(heap)
    while heap:
        p = heappop(heap)
        c = w.get(p)
        if c is None:  # cancelled after it was pushed
            continue
        row = rows.get(p)
        if row is None:
            g = gcd(*w.values())
            if c < 0:
                g = -g
            if g != 1:
                for j, x in w.items():
                    w[j] = x // g
            rows[p] = w
            return p
        a = row[p]
        g = gcd(a, c)
        if g != a:
            m = a // g
            for j, x in w.items():
                w[j] = m * x
        f = c // g
        for j, x in row.items():
            y = w.get(j)
            if y is None:
                w[j] = -f * x
                heappush(heap, j)
            else:
                y -= f * x
                if y:
                    w[j] = y
                else:
                    del w[j]
    return None


def _remainder(v: Row, reduced: dict[int, Row]) -> tuple[Row, int]:
    """(s * remainder of the integer vector v, s) for an integer s > 0.

    `reduced` rows are 0 at every other row's pivot, so only the rows
    whose pivots lie in the support of v take part, each once. The
    remainder is a fresh dict.
    """
    hits = [p for p in v if p in reduced]
    if not hits:
        return dict(v), 1
    scale = lcm(*[reduced[p][p] for p in hits])
    w = {j: scale * c for j, c in v.items()}
    for p in hits:
        row = reduced[p]
        f = scale // row[p] * v[p]
        for j, c in row.items():
            w[j] = w.get(j, 0) - f * c
    return {j: c for j, c in w.items() if c}, scale


def _canonical(rows: dict[int, Row]) -> dict[int, Row]:
    """The scaled RREF of echelon rows, by increasing pivot.

    One back-substitution pass from the highest pivot down: a row only
    holds columns from its own pivot on, so its remainder modulo the
    rows already reduced is 0 at every later pivot and keeps its own.
    """
    reduced: dict[int, Row] = {}
    for p in sorted(rows, reverse=True):
        reduced[p] = _primitive(_remainder(rows[p], reduced)[0])
    return dict(reversed(reduced.items()))


class Subspace:
    """Row space over Q, kept as primitive integer rows in echelon form.

    Rows are added by `_eliminate` and never back-eliminated. Only
    `rows`, `reduce`, `contains` and `==` build the canonical form (the
    scaled RREF, by `_canonical`), cached until the next row is added.
    Callers that need only the rank or the echelon rows never build it.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._ech: dict[int, Row] = {}  # pivot -> primitive integer row
        self._red: dict[int, Row] | None = {}  # scaled RREF, built on demand

    @property
    def rank(self) -> int:
        return len(self._ech)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._ech)

    def _reduced(self) -> dict[int, Row]:
        if self._red is None:
            self._red = _canonical(self._ech)
        return self._red

    @property
    def rows(self) -> list[Row]:
        """The canonical RREF over Q, sorted by pivot column."""
        return [{j: rat(c, row[p]) for j, c in row.items()} for p, row in self._reduced().items()]

    def copy(self) -> "Subspace":
        out = Subspace(self.ncols)
        out._ech = dict(self._ech)  # rows are never mutated once stored
        out._red = self._red
        return out

    def _add(self, v: Row) -> bool:
        """Eliminate the fresh integer vector v; True when it became a row."""
        if _eliminate(v, self._ech) is None:
            return False
        self._red = None
        return True

    def reduce(self, vec: Row) -> Row:
        """Remainder of vec modulo the row space (fresh dict, exact over Q)."""
        v, den = _integer(vec)
        w, scale = _remainder(v, self._reduced())
        return {j: rat(c, den * scale) for j, c in w.items()}

    def contains(self, vec: Row) -> bool:
        return not _remainder(_integer(vec)[0], self._reduced())[0]

    def insert(self, vec: Row) -> bool:
        """Add one vector; True when the rank grew."""
        return self._add(_integer(vec)[0])

    def extend(self, vectors: Iterable[Row]) -> None:
        for v in vectors:
            self.insert(v)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ncols == other.ncols
            and self._ech.keys() == other._ech.keys()
            and self._reduced() == other._reduced()
        )


def span(vectors: Iterable[Row], ncols: int) -> Subspace:
    sub = Subspace(ncols)
    sub.extend(vectors)
    return sub


def sum_subspaces(a: Subspace, b: Subspace) -> Subspace:
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch")
    out = a.copy()
    for row in b._ech.values():
        out._add(dict(row))
    return out


def _kernel(vectors: Iterable[Row], base: int, count: int) -> Subspace:
    """The elements of the span of integer vectors that vanish on the
    first `base` columns, cut to the next `count` columns: a subspace of
    Q^count, where column base + i becomes column i.

    Markowitz block elimination (Markowitz 1957; LaMacchia and Odlyzko
    1990). The vectors that hold a column below base are kept together;
    a vector with none goes straight into the result. The column that
    the fewest vectors hold is eliminated first: a heap is keyed by
    holder count * base + column, and a key whose count has grown since
    it was pushed is pushed again when it comes out. The shortest holder
    is the pivot. Every other holder takes the fraction-free step of
    `_eliminate`, with its content divided out when it was rescaled, so
    the entries of a vector that is combined many times stay small. Then
    the pivot is dropped: it is the only vector left on that column, so
    no combination that vanishes below base can use it. A holder with no
    column below base left joins the result, which stays in echelon form
    until its canonical form is asked for. It changes the vectors it is
    given.
    """
    out = Subspace(count)
    held: list[Row | None] = []
    low: list[int] = []  # how many columns below base each held vector has
    holders: list[list[int] | None] = [None] * base  # indices of vectors that held a column
    for v in vectors:
        i = len(held)
        n = 0
        for j in v:
            if j < base:
                hs = holders[j]
                if hs is None:
                    holders[j] = [i]
                else:
                    hs.append(i)
                n += 1
        if n:
            held.append(v)
            low.append(n)
        elif v:
            out._add({j - base: c for j, c in v.items()} if base else v)
    count_of = [0 if hs is None else len(hs) for hs in holders]  # < 0 once eliminated
    heap = [k * base + j for j, k in enumerate(count_of) if k]
    heapify(heap)
    while heap:
        k, p = divmod(heappop(heap), base)
        now = count_of[p]
        if now < 0:  # already eliminated
            continue
        if now > k:
            heappush(heap, now * base + p)
            continue
        count_of[p] = -1
        live = [i for i in dict.fromkeys(holders[p]) if (w := held[i]) is not None and p in w]
        holders[p] = None
        if not live:
            continue
        pi = live[0] if len(live) == 1 else min(live, key=lambda i: len(held[i]))
        pivot = held[pi]
        held[pi] = None
        for j in pivot:
            if j < base:
                count_of[j] -= 1
        a = pivot[p]
        for i in live:
            if i == pi:
                continue
            w = held[i]
            c = w[p]
            g = gcd(a, c)
            if a < 0:
                g = -g
            m = a // g
            if m != 1:
                for j, x in w.items():
                    w[j] = m * x
            f = c // g
            n = low[i]
            for j, x in pivot.items():
                y = w.get(j)
                if y is None:
                    w[j] = -f * x
                    if j < base:
                        holders[j].append(i)
                        count_of[j] += 1
                        n += 1
                else:
                    y -= f * x
                    if y:
                        w[j] = y
                    else:
                        del w[j]
                        if j < base:
                            n -= 1
                            count_of[j] -= 1
            if m != 1:
                g = gcd(*w.values())
                if g != 1:
                    for j, x in w.items():
                        w[j] = x // g
            if n:
                low[i] = n
            else:
                held[i] = None
                if w:
                    out._add({j - base: c for j, c in w.items()})
    return out


def meet(families: Iterable[Iterable[Row]], keep: Sequence[int], ncols: int) -> Subspace:
    """The intersection over one or more families of vectors in Q^ncols
    of the part of each family's span supported on `keep`, reindexed.

    Stage 1 is one `_kernel` call per family, with the dropped columns
    ordered first as the block; each input row is copied to integers
    in that order, and never changed. Stage 2, for k >= 2
    families, is one more `_kernel` call over the echelon rows of the
    parts P_1..P_k in a chained Zassenhaus layout: k - 1 difference
    blocks of len(keep) columns, then the result block. A row of P_i
    goes into block i - 1 negated and, when i < k, into block i; block 0
    is the result block. What vanishes on the difference blocks holds
    one element in every part and leaves it in the result block.
    """
    keep_set = set(keep)
    drop = [j for j in range(ncols) if j not in keep_set]
    base, width = len(drop), len(keep)
    order = [0] * ncols
    for i, j in enumerate(drop + list(keep)):
        order[j] = i

    def integer(family):
        for vec in family:
            if not all(type(c) is int for c in vec.values()):
                vec = _integer(vec)[0]
            yield {order[j]: c for j, c in vec.items()}

    parts = [_kernel(integer(family), base, width) for family in families]
    if len(parts) == 1:
        return parts[0]
    result = (len(parts) - 1) * width

    def chained():
        for i, part in enumerate(parts):
            lo, hi = (i - 1) % len(parts) * width, i * width
            for row in part._ech.values():
                v = {lo + j: -c for j, c in row.items()}
                if hi < result:
                    for j, c in row.items():
                        v[hi + j] = c
                yield v

    return _kernel(chained(), result, width)


def intersect_subspaces(a: Subspace, b: Subspace) -> Subspace:
    """A cap B, from the echelon rows of both."""
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch")
    return meet([a._ech.values(), b._ech.values()], range(a.ncols), a.ncols)


def kernel_of_rows(rows: Sequence[Row], ncols: int) -> Subspace:
    """Kernel of u -> sum u_i rows_i, as a subspace of Q^len(rows)."""

    def tagged():
        for i, row in enumerate(rows):
            v, den = _integer(row)
            v[ncols + i] = den
            yield v

    total = ncols + len(rows)
    return meet([tagged()], range(ncols, total), total)


def restrict_to_columns(vectors: Iterable[Row], keep: Sequence[int], ncols: int) -> Subspace:
    """Elements of the span of `vectors` (in Q^ncols) supported on `keep`,
    reindexed to keep."""
    return meet([vectors], keep, ncols)
