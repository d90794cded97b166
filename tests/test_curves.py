"""Curve counting series, knot comparisons, quotient module slices."""

import hashlib

import pytest

from gkmslice import curves
from gkmslice.arrangement import _generated_slice, bigraded_ring
from gkmslice.curves import (
    QL_RING,
    conjecture_vs_msv,
    knot_compare,
    knot_substitution,
    line_series,
    msv_assemble,
    node_series,
    pair_diff_kernel,
    punctual_series,
    quotient_hilbert_slice,
    quotient_relations_slice,
    quotient_table,
    tacnode_closed_form,
    tacnode_spec,
    three_lines_closed_form,
    three_lines_spec,
    torus_2_4_reference,
    torus_3_3_reference,
)
from gkmslice.rings import MultiPoly
from gkmslice.series import RationalSeries, equal_up_to_monomial


def test_three_lines_golden_identity():
    assert msv_assemble(three_lines_spec()) == three_lines_closed_form()


def test_tacnode_golden_identity():
    assert msv_assemble(tacnode_spec()) == tacnode_closed_form()


def test_node_series_decomposition():
    # (1 - q + q^2 L)/((1-q)^2 (1-qL)^2) = 1/((1-q)^2(1-qL)^2) - q/((1-q)^2(1-qL))
    one = MultiPoly.one(QL_RING)
    q = MultiPoly.gen(QL_RING, "q")
    L = MultiPoly.gen(QL_RING, "L")
    lhs = RationalSeries(one, ((one - q, 2), (one - q * L, 2))) - RationalSeries(
        q, ((one - q, 2), (one - q * L, 1))
    )
    assert lhs == node_series()


def test_line_series_expansion():
    # one smooth branch: qL + q^2(L + L^2) + ... (box counts)
    q = MultiPoly.gen(QL_RING, "q")
    L = MultiPoly.gen(QL_RING, "L")
    t = line_series().expand(2, ["q"])
    assert t == q * L + q * q * (L + L * L)


def test_knot_t24_normalization_zero():
    report = knot_compare("T(2,4)")
    assert report.ok and report.shift == 0
    assert report.link == "T(2,4)"


def test_knot_t33_normalization_three():
    report = knot_compare("t 33")
    assert report.ok and report.shift == 3
    assert report.link == "T(3,3)"


def test_alternate_punctual_factor_fails():
    # the (1 - L^2)^r factor does not reproduce the reference series
    one = MultiPoly.one(QL_RING)
    L = MultiPoly.gen(QL_RING, "L")
    alt = msv_assemble(tacnode_spec()) * RationalSeries((one - L * L) ** 2)
    mapped = knot_substitution(alt)
    assert equal_up_to_monomial(mapped, torus_2_4_reference(), "T") is None


def test_unknown_link_rejected():
    with pytest.raises(ValueError, match=r"^unknown link 'T\(5,5\)' \(use T24 or T33\)$"):
        knot_compare("T(5,5)")


def test_pair_diff_kernel_small():
    # ker(d/dy1 - d/dy2) on linear forms in y: spanned by y1 + y2 (n = 2)
    basis = pair_diff_kernel(2, 1, 2, 1, 1)
    assert len(basis) == 1
    rg = basis[0].ring
    y1, y2 = MultiPoly.gen(rg, "y1"), MultiPoly.gen(rg, "y2")
    assert basis[0] == y1 + y2
    # n = 3 adds the untouched variable y3
    assert len(pair_diff_kernel(3, 1, 2, 1, 1)) == 2


def test_quotient_slice_two_points_degree_two():
    # H2-style count: bidegree (2, 2) gives n + 1
    assert quotient_hilbert_slice(2, 1, (2, 2)) == 3
    assert quotient_hilbert_slice(3, 1, (2, 2)) == 4


def test_quotient_slice_odd_t_degree_vanishes():
    assert quotient_hilbert_slice(2, 1, (2, 1)) == 0


@pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (2, 2)])
def test_conjecture_matches_series(n, d):
    report = conjecture_vs_msv(n, d, order=4)
    assert report.ok, report.mismatches[:3]


@pytest.mark.parametrize("n,d", [(3, 1), (2, 2), (2, 1)])
def test_conjecture_table_is_the_quotient_slices_in_order(n, d, monkeypatch):
    report = conjecture_vs_msv(n, d, order=5)
    expected = {}
    for N in range(6):
        for M in range(2 * N + 1):
            dim = quotient_hilbert_slice(n, d, (N, M))
            if dim:
                expected[(N, M)] = dim
    assert report.table == expected
    assert list(report.table) == sorted(report.table)
    # against the zero series every nonzero slice is a mismatch
    zero_series = RationalSeries.zero(QL_RING)
    monkeypatch.setattr(curves, "reference_series", lambda n, d: ("zero", zero_series))
    zero = conjecture_vs_msv(n, d, order=5)
    assert [deg for deg, _, _ in zero.mismatches] == list(expected)
    assert [dim for _, _, dim in zero.mismatches] == list(expected.values())


@pytest.mark.parametrize(
    "n,d,order", [(2, 1, 8), (2, 2, 8), (3, 1, 8), (3, 2, 6), (4, 1, 5), (1, 1, 4), (3, 0, 4)]
)
def test_quotient_table_is_the_full_ring_quotient(n, d, order):
    # (3, 2) and (4, 1) have no pinned curve, so only this reaches them;
    # n = 1 has no x' and d = 0 no relation
    expected = {
        (N, M): quotient_hilbert_slice(n, d, (N, M))
        for N in range(order + 1)
        for M in range(2 * N + 1)
    }
    table = quotient_table(n, d, order)
    assert table == expected
    assert list(table) == list(expected)


# sha256 of repr(sorted(quotient_table(n, d, order).items())). No curve
# series is pinned for these pairs, and the full-ring comparison above
# stops at orders 6 and 5, so the tables past those orders are pinned here.
QUOTIENT_TABLE_SHA256 = {
    (3, 2, 12): "e310d3edf3c285889c1bc070ccae6b8d0b6113bc1957263693b4068090f80559",
    (4, 1, 9): "8e602346b4c982bb1d27a77a2982b7468058622814ffd13afb4d2f1dc47026b8",
}


@pytest.mark.parametrize("n,d,order", list(QUOTIENT_TABLE_SHA256))
def test_quotient_table_pinned_past_the_full_ring_orders(n, d, order):
    table = repr(sorted(quotient_table(n, d, order).items()))
    assert hashlib.sha256(table.encode()).hexdigest() == QUOTIENT_TABLE_SHA256[(n, d, order)]


@pytest.mark.parametrize("n,d,order", [(2, 1, 6), (3, 1, 6), (2, 2, 6), (3, 2, 5)])
def test_shifted_reduced_slices_are_the_generated_ones(n, d, order):
    rg, grading = bigraded_ring(range(2, n + 1), range(1, n + 1))
    shifted = 0
    for (a, b), s in curves._reduced_slices(n, d, order):
        family = curves._relation_family(rg, n, d, b)
        generated = _generated_slice(rg, grading, (a, b), [family])
        assert s.basis.keys == generated.basis.keys, (a, b)
        assert s.space == generated.space, (a, b)
        shifted += a > d and s.rank > 0
    assert shifted


def test_quotient_functions_reject_inputs_outside_the_domain():
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        quotient_hilbert_slice(0, 1, (0, 0))
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        quotient_table(0, 1, 2)
    with pytest.raises(ValueError, match=r"^power d must be >= 0, got -1$"):
        quotient_relations_slice(2, -1, (2, 2))
    with pytest.raises(ValueError, match=r"^power d must be >= 0, got -1$"):
        quotient_hilbert_slice(2, -1, (2, 2))
    with pytest.raises(ValueError, match=r"^power d must be >= 0, got -1$"):
        quotient_table(2, -1, 4)
    with pytest.raises(ValueError, match=r"^order must be >= 0, got -1$"):
        quotient_table(2, 1, -1)
    assert quotient_table(2, 1, 0) == {(0, 0): 1}


def test_conjecture_rejects_unknown_pair():
    with pytest.raises(ValueError):
        conjecture_vs_msv(4, 1)


def test_punctual_series_clears_poles():
    s = punctual_series(msv_assemble(tacnode_spec()), 2)
    # no (1 - qL) factor survives in the denominator
    L = MultiPoly.gen(QL_RING, "L")
    q = MultiPoly.gen(QL_RING, "q")
    one = MultiPoly.one(QL_RING)
    assert all(f != one - q * L for f, m in s.factors)


def test_torus_references_differ():
    assert equal_up_to_monomial(torus_2_4_reference(), torus_3_3_reference(), "T") is None
