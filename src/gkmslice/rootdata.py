"""Root data for the small reductive groups in scope.

A RootDatum stores positive roots as integer vectors over a root-side
basis (the "y" coordinates), the matching coroots over a basis of the
cocharacter lattice (the "x" coordinates), and the integer pairing
matrix between the two bases. That split keeps every table integral:
for GL_n both bases are the standard one and the pairing is the
identity; for the simply-connected types the bases are the simple
roots / simple coroots and the pairing is the Cartan matrix.

Conventions: pairing[i][j] = <basis_root_i, basis_coroot_j>, so
<alpha, lam> = alpha_y . pairing . lam and <alpha, alpha_coroot> = 2
for every positive root (checked in the test suite).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .rings import MultiPoly, Ring

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


@dataclass(frozen=True)
class RootDatum:
    label: str
    rank: int  # cocharacter lattice rank = number of x coordinates
    yrank: int  # root-side coordinates = number of y variables
    roots: tuple[IntVec, ...]  # positive roots over the y basis
    coroots: tuple[IntVec, ...]  # matching coroots over the x basis
    pairing: IntMat  # yrank x rank

    @property
    def npos(self) -> int:
        return len(self.roots)

    def pair(self, root_index: int, lam: IntVec) -> int:
        """<alpha_i, lam> for a lattice point lam."""
        return self.pair_coroot(self.roots[root_index], lam)

    def pair_coroot(self, yvec: IntVec, coroot: IntVec) -> int:
        """<beta, gamma_coroot> for arbitrary integer vectors in each basis."""
        return sum(
            yvec[i] * self.pairing[i][j] * coroot[j]
            for i in range(self.yrank)
            for j in range(self.rank)
        )

    def reflection_on_lattice(self, root_index: int) -> IntMat:
        """Matrix of s_alpha on the cocharacter lattice: lam - <alpha,lam> alpha_coroot."""
        cor = self.coroots[root_index]
        alpha = self.roots[root_index]
        row = tuple(
            sum(alpha[i] * self.pairing[i][j] for i in range(self.yrank))
            for j in range(self.rank)
        )
        return tuple(
            tuple((1 if a == b else 0) - cor[a] * row[b] for b in range(self.rank))
            for a in range(self.rank)
        )

    def reflection_on_roots(self, root_index: int) -> IntMat:
        """Matrix of s_alpha on the root-side coordinates (columns = images)."""
        alpha = self.roots[root_index]
        cor = self.coroots[root_index]
        col = tuple(
            sum(self.pairing[b][j] * cor[j] for j in range(self.rank))
            for b in range(self.yrank)
        )
        return tuple(
            tuple((1 if a == b else 0) - col[b] * alpha[a] for b in range(self.yrank))
            for a in range(self.yrank)
        )

    def root_form(self, ring: Ring, root_index: int, y_names: list[str]) -> MultiPoly:
        """y_alpha as a linear polynomial in the given y variables."""
        alpha = self.roots[root_index]
        terms = {}
        for c, name in zip(alpha, y_names):
            if c:
                terms[ring.unit_exp(ring.index(name))] = c
        return MultiPoly(ring, terms)


def mat_mul(a: IntMat, b: IntMat) -> IntMat:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def mat_vec(a: IntMat, v: IntVec) -> IntVec:
    return tuple(sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a)))


def identity_mat(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def det(a: IntMat) -> int:
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j] == 0:
            continue
        minor = tuple(row[:j] + row[j + 1 :] for row in a[1:])
        total += (-1) ** j * a[0][j] * det(minor)
    return total


def weyl_elements(rd: RootDatum) -> list[tuple[IntMat, IntMat, int]]:
    """Full Weyl group as (lattice matrix, root-side matrix, sign) triples.

    Closure under all positive-root reflections; deterministic order
    (breadth first from the identity, children by root index).
    """
    gens = [
        (rd.reflection_on_lattice(i), rd.reflection_on_roots(i)) for i in range(rd.npos)
    ]
    ident = (identity_mat(rd.rank), identity_mat(rd.yrank))
    seen = {ident[0]: ident}
    queue = [ident]
    order = [ident]
    while queue:
        nxt = []
        for lat, yy in queue:
            for glat, gy in gens:
                cand = (mat_mul(glat, lat), mat_mul(gy, yy))
                if cand[0] not in seen:
                    seen[cand[0]] = cand
                    nxt.append(cand)
                    order.append(cand)
        queue = nxt
    return [(lat, yy, det(lat)) for lat, yy in order]


def _gl(n: int) -> RootDatum:
    roots = []
    for i in range(n):
        for j in range(n):
            if i != j and i < j:
                vec = [0] * n
                vec[i], vec[j] = 1, -1
                roots.append(tuple(vec))
    return RootDatum(
        label=f"GL{n}",
        rank=n,
        yrank=n,
        roots=tuple(roots),
        coroots=tuple(roots),
        pairing=identity_mat(n),
    )


def _sl(n: int) -> RootDatum:
    r = n - 1
    cartan = tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(r))
        for i in range(r)
    )
    roots = []
    for i in range(r):
        for j in range(i, r):
            vec = [0] * r
            for k in range(i, j + 1):
                vec[k] = 1
            roots.append(tuple(vec))
    return RootDatum(
        label=f"SL{n}",
        rank=r,
        yrank=r,
        roots=tuple(roots),
        coroots=tuple(roots),
        pairing=cartan,
    )


_FIXED = {
    "A1": RootDatum("A1", 1, 1, ((1,),), ((1,),), ((2,),)),
    "A1XA1": RootDatum(
        "A1xA1",
        2,
        2,
        ((1, 0), (0, 1)),
        ((1, 0), (0, 1)),
        ((2, 0), (0, 2)),
    ),
    "A2": RootDatum(
        "A2",
        2,
        2,
        ((1, 0), (0, 1), (1, 1)),
        ((1, 0), (0, 1), (1, 1)),
        ((2, -1), (-1, 2)),
    ),
    "B2": RootDatum(
        "B2",
        2,
        2,
        ((1, 0), (0, 1), (1, 1), (1, 2)),
        ((1, 0), (0, 1), (2, 1), (1, 1)),
        ((2, -2), (-1, 2)),
    ),
    "G2": RootDatum(
        "G2",
        2,
        2,
        ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)),
        ((1, 0), (0, 1), (1, 3), (2, 3), (1, 1), (1, 2)),
        ((2, -1), (-3, 2)),
    ),
}


def root_datum(label: str, n: int | None = None) -> RootDatum:
    """Look up a table: GL1..GL4, SL2..SL4, A1, A1xA1, A2, B2, G2.

    `label` may carry the size ("GL3") or it can come through `n`.
    """
    key = label.strip().upper().replace(" ", "")
    if n is not None:
        key = f"{key}{n}"
    if key in _FIXED:
        return _FIXED[key]
    match = re.fullmatch(r"(GL|SL)([+-]?\d+)", key)
    if match is None:
        raise ValueError(f"unknown root datum label {label!r}")
    kind, size = match[1], int(match[2])
    if kind == "GL":
        if not 1 <= size <= 4:
            raise ValueError("GL size out of range (1..4)")
        return _gl(size)
    if not 2 <= size <= 4:
        raise ValueError("SL size out of range (2..4)")
    return _sl(size)
