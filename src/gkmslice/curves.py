"""Counting series for plane curve germs and the quotient module comparison.

Two-variable generating functions live in Q(q, L). A curve's series is
assembled from its component decompositions: each proper subset of
branches contributes a power of the smooth line series
qL/((1-q)(1-qL)), and the trivial decomposition contributes a central
numerator over (1-q)(1-qL). The punctual variant multiplies by
(1-qL)^r, and the knot comparison substitutes q^a L^b -> Q^(a-b) T^(-b)
and tests equality against pinned reference series up to one overall
power of T.

`CURVES` is the one catalogue of curves, keyed by (n, dn): the curve
x^n = y^(dn) with n branches, its torus link T(n, dn), and the
conjecture pair (n, d) of GL_n with gamma = z t^d.

The conjectural algebraic side is the quotient of Q[x, y] by
sum over pairs and 1 <= k <= d of (x_i - x_j)^k ker(d_i - d_j)^k, whose
relations `arrangement._derivation_relations` builds as it does those of the
lattice homology quotient. Its slices are computed in the ordinary
bigrading (x-degree, y-degree). `quotient_table` builds them on R' =
Q[x'_2..x'_n, y_1..y_n], x'_j = x_j - x_1, where the relations live: the
dimension at x-degree a sums the reduced ones at x'-degrees a' <= a, and
each reduced slice is the one below it shifted by x'_2..x'_n plus the
generators of x-degree exactly a (both proved there).
`quotient_relations_slice` and `quotient_hilbert_slice` stay on the full
ring as the reference. The curve bigrading deg x = (1, 0), deg y = (1,
2) applies only when the slice dimensions are compared with a series
under L -> t^2: the curve slice (q, t) is the ordinary slice (q - t/2,
t/2), empty when t is odd or t > 2q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .arrangement import (
    SliceResult,
    _check_power,
    _derivation_relations,
    _generated_slice,
    _shift_rows,
    bigraded_ring,
    derivation_kernel,
    xy_ring,
)
from .linalg import SliceBasis, Subspace
from .rationals import rat
from .rings import MultiPoly, Ring, ring, slice_monomials
from .series import RationalSeries, equal_up_to_monomial

QL_RING = ring(["q", "L"])
QT_RING = ring(["q", "t"])
KNOT_RING = ring(["Q", "T"])

_ONE = MultiPoly.one(QL_RING)
_Q = MultiPoly.gen(QL_RING, "q")
_L = MultiPoly.gen(QL_RING, "L")


def _poly(rg: Ring, terms: dict) -> MultiPoly:
    return MultiPoly(rg, {tuple(k): rat(v) for k, v in terms.items()})


def _over(num: MultiPoly, power: int) -> RationalSeries:
    """num / ((1-q)(1-qL))^power."""
    return RationalSeries(num, ((_ONE - _Q, power), (_ONE - _Q * _L, power)))


def line_series() -> RationalSeries:
    """Smooth line contribution qL / ((1-q)(1-qL))."""
    return _over(_Q * _L, 1)


@dataclass(frozen=True)
class CurveSpec:
    """Decomposition data for one plane curve germ.

    branches: the number of branches; broken: (count, line_power) pairs
    for the decompositions with a nonempty smooth part; central:
    numerator of the undecomposed term over one factor (1-q)(1-qL).
    """

    branches: int
    broken: tuple[tuple[int, int], ...]
    central: MultiPoly


def three_lines_spec() -> CurveSpec:
    return CurveSpec(
        branches=3,
        broken=((1, 3), (3, 2)),
        central=_poly(QL_RING, {(0, 0): 1, (1, 1): 2, (2, 1): 1}),
    )


def tacnode_spec() -> CurveSpec:
    return CurveSpec(
        branches=2,
        broken=((1, 2),),
        central=_poly(QL_RING, {(0, 0): 1, (1, 1): 1, (2, 1): 1}),
    )


def msv_assemble(spec: CurveSpec) -> RationalSeries:
    """Sum the decomposition contributions into one rational series."""
    total = RationalSeries.zero(QL_RING)
    line = line_series()
    for count, power in spec.broken:
        total = total + line**power * count
    return total + _over(spec.central, 1)


def node_series() -> RationalSeries:
    """(1 - q + q^2 L) / ((1-q)^2 (1-qL)^2)."""
    return _over(_poly(QL_RING, {(0, 0): 1, (1, 0): -1, (2, 1): 1}), 2)


def three_lines_closed_form() -> RationalSeries:
    num = _poly(
        QL_RING,
        {
            (6, 3): 1,
            (5, 2): -2,
            (4, 2): 1,
            (3, 2): 1,
            (4, 1): 1,
            (3, 1): -2,
            (2, 1): 1,
            (2, 0): 1,
            (1, 0): -2,
            (0, 0): 1,
        },
    )
    return _over(num, 3)


def tacnode_closed_form() -> RationalSeries:
    return _over(_poly(QL_RING, {(4, 2): 1, (3, 1): -1, (2, 1): 1, (1, 0): -1, (0, 0): 1}), 2)


def punctual_series(global_series: RationalSeries, r: int) -> RationalSeries:
    """Multiply by (1 - qL)^r to pass to the punctual (one-point) count."""
    return global_series * RationalSeries((_ONE - _Q * _L) ** r)


PUNCTUAL_FACTOR = "(1-q*L)^r"
ALTERNATE_FACTOR = "(1-L^2)^r"  # seen in prose; does not clear the 1-qL poles


def knot_substitution(s: RationalSeries) -> RationalSeries:
    """q^a L^b -> Q^(a-b) T^(-b), negative exponents cleared."""
    return s.map_monomials([[1, -1], [0, -1]], KNOT_RING)


def torus_2_4_reference() -> RationalSeries:
    """Pinned reference for the (2,4) torus link, normalization T^0."""
    one = MultiPoly.one(KNOT_RING)
    Q = MultiPoly.gen(KNOT_RING, "Q")
    T = MultiPoly.gen(KNOT_RING, "T")
    num = Q * Q + (one - Q) * (T * T + Q * T)
    return RationalSeries(num, ((one - Q, 2), (T, 2)))


def torus_3_3_reference() -> RationalSeries:
    """Pinned reference for the (3,3) torus link, normalization T^3."""
    one = MultiPoly.one(KNOT_RING)
    Q = MultiPoly.gen(KNOT_RING, "Q")
    num = _poly(
        KNOT_RING,
        {
            (2, 3): 1,
            (3, 2): 1,
            (2, 2): -2,
            (3, 1): -2,
            (1, 3): -2,
            (0, 3): 1,
            (3, 0): 1,
            (2, 1): 1,
            (1, 2): 1,
            (1, 1): 1,
        },
    )
    return RationalSeries(num, ((one - Q, 3),))


@dataclass(frozen=True)
class Curve:
    """One entry of `CURVES`: the curve x^n = y^(dn) under its key (n, dn).

    spec builds its decomposition data (None: the closed form is the
    series); link builds the pinned series of the torus link T(n, dn)
    (None: no link series is pinned).
    """

    name: str
    spec: Callable[[], CurveSpec] | None
    closed_form: Callable[[], RationalSeries]
    link: Callable[[], RationalSeries] | None

    def series(self) -> RationalSeries:
        """The assembled series, or the closed form for a curve without a spec."""
        return self.closed_form() if self.spec is None else msv_assemble(self.spec())


CURVES = {
    (2, 2): Curve("node", None, node_series, None),
    (2, 4): Curve("tacnode", tacnode_spec, tacnode_closed_form, torus_2_4_reference),
    (3, 3): Curve("three-lines", three_lines_spec, three_lines_closed_form, torus_3_3_reference),
}


def curve_key(name: str) -> tuple[int, int]:
    """The key (n, dn) of `CURVES` that name spells.

    name is "{n},{dn}" or a curve's name, case-insensitive, spaces
    ignored.
    """
    key = name.strip().lower().replace(" ", "")
    for (n, dn), curve in CURVES.items():
        if key in (f"{n},{dn}", curve.name):
            return n, dn
    keys = " / ".join(f"{n},{dn}" for n, dn in CURVES)
    raise ValueError(f"unknown curve {name!r} (use {keys} or a name)")


@dataclass
class KnotCompareReport:
    link: str  # canonical "T(n,dn)"
    ok: bool
    shift: int | None  # g with punctual * T^g == reference
    punctual: RationalSeries


def knot_compare(name: str) -> KnotCompareReport:
    """Compare a curve's punctual series against its pinned link series.

    name is "T{n}{dn}" or "T({n},{dn})", case-insensitive, spaces
    ignored, for a curve (n, dn) of `CURVES` with a pinned link: T(2,4)
    or T(3,3). The punctual series is taken with r = n. Equality is
    tested exactly, allowing one overall power of T which is computed
    and reported.
    """
    key = name.strip().upper().replace(" ", "")
    pinned = [nd for nd, curve in CURVES.items() if curve.link is not None]
    for n, dn in pinned:
        if key in (f"T{n}{dn}", f"T({n},{dn})"):
            break
    else:
        links = " or ".join(f"T{n}{dn}" for n, dn in pinned)
        raise ValueError(f"unknown link {name!r} (use {links})")
    curve = CURVES[(n, dn)]
    punctual = knot_substitution(punctual_series(curve.series(), n))
    shift = equal_up_to_monomial(punctual, curve.link(), "T")
    return KnotCompareReport(
        link=f"T({n},{dn})", ok=shift is not None, shift=shift, punctual=punctual
    )


# ---- the conjectural quotient module ----


def pair_diff_kernel(n: int, i: int, j: int, k: int, ydeg: int) -> list[MultiPoly]:
    """Basis of ker (d/dy_i - d/dy_j)^k on degree-ydeg polynomials in y."""
    rg = xy_ring(n)
    return derivation_kernel(rg, rg.names[n:], {f"y{i}": 1, f"y{j}": -1}, k, ydeg)


def _check_domain(n: int, d: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_power(d)


def _relation_family(rg: Ring, n: int, kmax: int, ydeg: int) -> list:
    """Relation generators (x_i - x_j)^k K of y-degree ydeg and x-degree
    k <= kmax, K in ker(d/dy_i - d/dy_j)^k, over pairs i < j, in rg. An
    x_i that rg does not hold is 0: on R' the pair (1, j) has the factor
    -x'_j."""
    xs = [
        MultiPoly.gen(rg, f"x{i}") if f"x{i}" in rg.names else MultiPoly.zero(rg)
        for i in range(1, n + 1)
    ]
    pairs = [
        (xs[i - 1] - xs[j - 1], {f"y{i}": 1, f"y{j}": -1})
        for i, j in itertools.combinations(range(1, n + 1), 2)
    ]
    relations = _derivation_relations(rg, rg.names[-n:], pairs, kmax, ydeg)
    return [(rel, (k, ydeg)) for k, rel in relations]


def quotient_relations_slice(n: int, d: int, deg: tuple[int, int]) -> Subspace:
    """Relation subspace at one curve bidegree (q-degree, t-degree), on
    the full ring Q[x, y]: the reference for `quotient_table`.

    That is the ordinary slice (q - t/2, t/2); it is empty (no columns)
    when t is odd or t > 2q.
    """
    _check_domain(n, d)
    ydeg, odd = divmod(deg[1], 2)
    if odd or not 0 <= ydeg <= deg[0]:
        return Subspace(0)
    xdeg = deg[0] - ydeg
    rg, grading = bigraded_ring(range(1, n + 1), range(1, n + 1))
    family = _relation_family(rg, n, min(d, xdeg), ydeg)
    return _generated_slice(rg, grading, (xdeg, ydeg), [family]).space


def quotient_hilbert_slice(n: int, d: int, deg: tuple[int, int]) -> int:
    """Dimension of the conjectural quotient at one curve bidegree."""
    rel = quotient_relations_slice(n, d, deg)
    return rel.ncols - rel.rank


def _reduced_slices(n: int, d: int, order: int) -> Iterator[tuple[tuple[int, int], SliceResult]]:
    """The relation slice I'(a, b) on R' = Q[x'_2..x'_n, y_1..y_n] at
    every a + b <= order, the y-degree b outermost: I'(a - 1, b) shifted
    by x'_2..x'_n, and the generators of x-degree a (see `quotient_table`)."""
    rg, grading = bigraded_ring(range(2, n + 1), range(1, n + 1))
    for b in range(order + 1):
        by_k: dict[int, list[MultiPoly]] = {}  # x-degree -> generators, in family order
        for g, (k, _) in _relation_family(rg, n, min(d, order - b), b):
            by_k.setdefault(k, []).append(g)
        for a in range(order + 1 - b):
            basis = SliceBasis(slice_monomials(rg, grading, (a, b)))
            cur = SliceResult(basis, Subspace(len(basis)), rg)
            if a:
                for j in range(2, n + 1):
                    cur.space.extend(_shift_rows(prev, cur, f"x{j}"))
            cur.space.extend(basis.vector_from_poly(g) for g in by_k.get(a, ()))
            yield (a, b), cur
            prev = cur


def quotient_table(n: int, d: int, order: int) -> dict[tuple[int, int], int]:
    """Dimension of the conjectural quotient at every curve bidegree (N, M)
    with N <= order and M <= 2N, in (N, M) order: the numbers of
    `quotient_hilbert_slice`, built on the reduced ring.

    The relations of y-degree b are the Q[x]-span I of the generators
    (x_i - x_j)^k K, K in ker(d/dy_i - d/dy_j)^k of degree b, and the
    curve bidegree (N, M) is the ordinary (a, b) = (N - M/2, M/2). The
    table is built on R' = Q[x'_2..x'_n, y_1..y_n] with x'_j = x_j - x_1
    and x'_1 = 0, where each generator keeps its form (x'_i - x'_j)^k K.

    Prefix sum. Every generator lies in R', and Q[x, y] = R'[x_1] with
    Q[x] = Q[x'][x_1] free over Q[x'] on the powers of x_1. So the
    Q[x]-span of the generators is I = I'[x_1], the direct sum of
    x_1^e I' over e >= 0, with I' their Q[x']-span. In bidegree (a, b),
    Q[x, y](a, b) / I(a, b) is the direct sum over a' <= a of x_1^(a -
    a') (R'(a', b) / I'(a', b)), so its dimension is the sum over a' <=
    a of the reduced dimensions at (a', b).

    x-shift. I'(a, b) is the sum of the x'_j I'(a - 1, b) and the span of
    the generators of x-degree exactly a (none past d). The sum lies in
    the Q[x']-module I', and I'(a, b) is spanned by the products m g of
    the generators g of x-degree k with the monomials m of degree a - k
    in x'. If k < a, m = x'_j m' with m' of degree a - 1 - k, so m g lies
    in x'_j I'(a - 1, b); if k = a, m = 1. So the shifts of the echelon
    rows of I'(a - 1, b) by x'_2..x'_n and those generators span I'(a,
    b), with no generator products.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    _check_domain(n, d)
    dims: dict[tuple[int, int], int] = {}
    for (a, b), s in _reduced_slices(n, d, order):
        below = dims[(a + b - 1, 2 * b)] if a else 0
        dims[(a + b, 2 * b)] = below + s.quotient_dim
    return {(N, M): dims.get((N, M), 0) for N in range(order + 1) for M in range(2 * N + 1)}


@dataclass
class ConjectureReport:
    n: int
    d: int
    order: int
    reference_name: str
    ok: bool
    table: dict = field(default_factory=dict)  # (qdeg, tdeg) -> dim
    mismatches: list = field(default_factory=list)  # (deg, series coeff, quotient dim)


def reference_series(n: int, d: int) -> tuple[str, RationalSeries]:
    """Name and series of the curve (n, dn) of `CURVES` for the pair (n, d)."""
    curve = CURVES.get((n, n * d))
    if curve is None:
        raise ValueError(f"no curve series pinned for (n, d) = ({n}, {d})")
    return curve.name, curve.series()


def conjecture_vs_msv(n: int, d: int, order: int = 6) -> ConjectureReport:
    """Quotient slice dimensions against the curve series through q-order.

    The series substitutes L -> t^2; every bidegree (N, M) with N <=
    order and M <= 2N is compared. Mismatches are collected, not raised.

    The dimensions are `quotient_table`'s: the relations live on R' =
    Q[x'_2..x'_n, y_1..y_n], x'_j = x_j - x_1, the reduced dimensions at
    x'-degrees a' <= a are summed into the one at x-degree a, and each
    reduced slice is the previous one shifted by x'_2..x'_n plus the
    generators of its x-degree.
    The slice at (N, M) is the ordinary slice (N - M/2, M/2), and empty at
    odd M. Table and mismatches are filled in (N, M) order.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    name, series = reference_series(n, d)
    in_t = series.map_monomials([[1, 0], [0, 2]], QT_RING)
    expansion = in_t.expand(order, ["q"]).terms
    report = ConjectureReport(n=n, d=d, order=order, reference_name=name, ok=True)
    for deg, dim in quotient_table(n, d, order).items():
        coeff = expansion.get(deg, rat(0))
        if dim:
            report.table[deg] = dim
        if coeff != dim:
            report.ok = False
            report.mismatches.append((deg, str(coeff), dim))
    return report

