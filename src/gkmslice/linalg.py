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
- `_kernel` finds which part of a span is 0 on a block of columns,
  every column from a given width on. It eliminates the block column
  by column, the column with the fewest holders first, dropping each
  pivot vector once its column is cleared (Markowitz pivoting). What
  the other vectors leave on the first columns spans the answer. The
  pivots are dropped for good unless the caller asks for them.

Four things use `_kernel`. `restrict_to_columns` is one call with the
kept columns put first and the dropped ones after them as the block.
`_intersect` is one call over the echelon rows of subspaces in a chained
Zassenhaus layout, behind `intersect_subspaces`. `kernel_of_rows` is
one call on the rows, each tagged with an identity column in front of
its own columns: what is 0 on the rows' columns holds the relations
among the rows in its tags. `Restriction` is a restriction carried
across calls: it keeps the pivots that `_kernel` dropped, in
elimination order, so that vectors added later are reduced by them and
no vector added earlier is eliminated again. The margin steps of
windowed slices grow through it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Sequence

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

    def vector_from_poly(self, p: MultiPoly) -> Row:
        """Polynomial to a vector over exponent keys; KeyError when its
        support leaves the basis."""
        out: Row = {}
        for exp, c in p.terms.items():
            i = self.index.get(exp)
            if i is None:
                raise KeyError(f"monomial {exp} outside slice basis")
            out[i] = c
        return out

    def poly(self, ring: Ring, vec: Row) -> MultiPoly:
        return MultiPoly(ring, {self.keys[i]: c for i, c in vec.items()})


def _integer(vec: Row, shift: int = 0) -> tuple[Row, int]:
    """(den * vec as an int vector, den): den is the lcm of the
    denominators. Column j of vec becomes column j + shift."""
    den = 1
    for c in vec.values():
        if c.denominator != 1:
            den = lcm(den, int(c.denominator))
    if den == 1:
        return {j + shift: int(c) for j, c in vec.items() if c}, 1
    return {
        j + shift: int(c.numerator) * (den // int(c.denominator)) for j, c in vec.items() if c
    }, den


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


def _kernel(
    vectors: Iterable[Row], width: int, add: Callable[[Row], object], pivots: list | None = None
) -> None:
    """Pass to `add` vectors that span the elements of the span of the
    integer vectors that are 0 on every column from `width` on (the
    block).

    Markowitz block elimination (Markowitz 1957; LaMacchia and Odlyzko
    1990). The vectors that hold a block column are kept together; a
    vector with none goes straight to `add`. The column that the fewest
    vectors hold is eliminated first: a heap is keyed by holder count
    and column, and a key whose count has grown since it was pushed is
    pushed again when it comes out. The shortest holder is the pivot.
    Every other holder takes the fraction-free step of `_eliminate`,
    with its content divided out when it was rescaled, so the entries of
    a vector that is combined many times stay small. Then the pivot is
    dropped: it is the only vector left on that column, so no
    combination that is 0 on the block can use it. A holder with no
    block column left goes to `add`. When `pivots` is a list, (column,
    pivot) is appended to it in elimination order, so each pivot there
    holds no column of an earlier one; otherwise no pivot outlives the
    call. It changes the vectors it is given.
    """
    held: list[Row | None] = []
    low: list[int] = []  # how many block columns each held vector has
    seen: dict[int, list[int]] = {}  # block column -> indices of the vectors that held it
    for v in vectors:
        i = len(held)
        n = 0
        for j in v:
            if j >= width:
                hs = seen.get(j)
                if hs is None:
                    seen[j] = [i]
                else:
                    hs.append(i)
                n += 1
        if n:
            held.append(v)
            low.append(n)
        elif v:
            add(v)
    size = max(seen, default=0) + 1
    holders: list[list[int] | None] = [None] * size
    count_of = [0] * size  # < 0 once eliminated
    heap = []
    for j, hs in seen.items():
        holders[j] = hs
        count_of[j] = len(hs)
        heap.append(len(hs) * size + j)
    del seen  # before the elimination, where the memory peaks
    heapify(heap)
    while heap:
        k, p = divmod(heappop(heap), size)
        now = count_of[p]
        if now < 0:  # already eliminated
            continue
        if now > k:
            heappush(heap, now * size + p)
            continue
        count_of[p] = -1
        live = [i for i in dict.fromkeys(holders[p]) if (w := held[i]) is not None and p in w]
        holders[p] = None
        if not live:
            continue
        pi = live[0] if len(live) == 1 else min(live, key=lambda i: len(held[i]))
        pivot = held[pi]
        held[pi] = None
        if pivots is not None:
            pivots.append((p, pivot))
        for j in pivot:
            if j >= width:
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
                    if j >= width:
                        holders[j].append(i)
                        count_of[j] += 1
                        n += 1
                else:
                    y -= f * x
                    if y:
                        w[j] = y
                    else:
                        del w[j]
                        if j >= width:
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
                    add(w)


class Restriction:
    """The part on the first `width` columns of a span that grows: the
    carried elimination behind the margin steps of windowed slices.

    The block is every column from `width` on. `extend` adds integer
    vectors to the span, and `part` is then the part of the whole span
    that is 0 on the block. The pivots that `_kernel` dropped are kept
    in one order (`_order`, and `_at` from a pivot column to its place
    there) in which each pivot holds no column of an earlier one. Then
    the span is the pivots plus `part`, and no nonzero combination of
    pivots is 0 on every pivot column (look at the earliest pivot it
    uses), so `part` is all of the span that is 0 on the block.

    `extend` keeps this without touching a vector added before. The new
    vectors are first eliminated on the fresh columns, which no earlier
    vector holds, and those pivots go in front of the order (no earlier
    pivot holds a fresh column). What is left is reduced by the recorded
    pivots in their order (`_replay`); after that it holds no pivot
    column, as each later pivot holds no column of an earlier one. The
    block columns still left on it are eliminated last, those pivots go
    at the end of the order, and what remains joins `part`. `part` only
    grows, so a caller that keeps a result copies it.
    """

    def __init__(self, width: int):
        self.part = Subspace(width)
        self._order: list[tuple[int, Row]] = []  # (column, pivot) in elimination order
        self._at: dict[int, int] = {}  # pivot column -> its place in _order

    def _replay(self, v: Row) -> Row:
        """Reduce the integer vector v in place by the recorded pivots."""
        at, order = self._at, self._order
        heap = [at[j] for j in v if j in at]
        if not heap:
            return v
        heapify(heap)
        rescaled = False
        while heap:
            p, pivot = order[heappop(heap)]
            c = v.get(p)
            if c is None:  # cancelled after it was pushed
                continue
            a = pivot[p]
            g = gcd(a, c)
            if a < 0:
                g = -g
            m = a // g
            if m != 1:
                rescaled = True
                for j, x in v.items():
                    v[j] = m * x
            f = c // g
            for j, x in pivot.items():
                y = v.get(j)
                if y is None:
                    v[j] = -f * x
                    k = at.get(j)
                    if k is not None:
                        heappush(heap, k)
                else:
                    y -= f * x
                    if y:
                        v[j] = y
                    else:
                        del v[j]
        if rescaled and v:
            g = gcd(*v.values())
            if g != 1:
                for j, x in v.items():
                    v[j] = x // g
        return v

    def extend(self, vectors: Iterable[Row], fresh: int) -> None:
        """Add integer vectors to the span; it changes them. No vector
        added before holds a column from `fresh` on."""
        first: list[tuple[int, Row]] = []
        rest: list[Row] = []
        _kernel(vectors, fresh, rest.append, first)
        last: list[tuple[int, Row]] = []
        _kernel(map(self._replay, rest), self.part.ncols, self.part._add, last)
        self._order = first + self._order + last
        self._at = {p: k for k, (p, _) in enumerate(self._order)}


def _intersect(parts: Sequence[Subspace]) -> Subspace:
    """The intersection of two or more subspaces of one Q^width, from
    their echelon rows: one `_kernel` call over a chained Zassenhaus
    layout. Columns 0..width-1 are the result block, then k - 1
    difference blocks of width columns. A row of P_i goes into block i
    negated and, when i < k - 1, into block i + 1. What vanishes on the
    difference blocks holds one element in every part and leaves it in
    the result block.
    """
    width = parts[0].ncols
    end = len(parts) * width

    def chained():
        for i, part in enumerate(parts):
            lo, hi = i * width, (i + 1) * width
            for row in part._ech.values():
                v = {lo + j: -c for j, c in row.items()}
                if hi < end:
                    for j, c in row.items():
                        v[hi + j] = c
                yield v

    out = Subspace(width)
    _kernel(chained(), width, out._add)
    return out


def intersect_subspaces(*spaces: Subspace) -> Subspace:
    """The intersection of two or more subspaces, from their echelon rows."""
    if len({s.ncols for s in spaces}) != 1:
        raise ValueError("column count mismatch")
    if len(spaces) < 2:
        raise ValueError("need two or more subspaces")
    return _intersect(spaces)


def kernel_of_rows(rows: Sequence[Row]) -> Subspace:
    """Kernel of u -> sum u_i rows_i, as a subspace of Q^len(rows).

    Row i is copied once to integers, behind an identity tag in column
    i; the block is the row's own columns, so what vanishes there holds
    the relations among the rows in its tags.
    """
    width = len(rows)

    def tagged():
        for i, row in enumerate(rows):
            v, den = _integer(row, width)
            v[i] = den
            yield v

    out = Subspace(width)
    _kernel(tagged(), width, out._add)
    return out


def restrict_to_columns(vectors: Iterable[Row], keep: Sequence[int], ncols: int) -> Subspace:
    """Elements of the span of `vectors` (in Q^ncols) supported on `keep`,
    reindexed to keep.

    One `_kernel` call, with the kept columns ordered first and the
    dropped ones after them as the block; each input vector is copied to
    integers in that order, and never changed.
    """
    keep_set = set(keep)
    order = [0] * ncols
    for i, j in enumerate([*keep, *(j for j in range(ncols) if j not in keep_set)]):
        order[j] = i
    out = Subspace(len(keep))
    _kernel(
        ({order[j]: c for j, c in _integer(vec)[0].items()} for vec in vectors),
        len(keep),
        out._add,
    )
    return out
