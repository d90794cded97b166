"""Polynomial arithmetic, monomial order, graded slices, serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmslice.rationals import rat
from gkmslice.rings import (
    MultiPoly,
    grading_for,
    monomial_key,
    poly_divide_exact,
    poly_from_json,
    poly_to_json,
    ring,
    slice_monomials,
)

XY = ring(["x", "y"])
LXY = ring(["x", "y"], laurent=["x", "y"])


def gens(rg):
    return [MultiPoly.gen(rg, name) for name in rg.names]


def test_binomial_square():
    x, y = gens(XY)
    assert (x + y) ** 2 == x * x + x * y * 2 + y * y


def test_scalar_arithmetic():
    x, y = gens(XY)
    p = x * rat(1, 2) + 1
    assert p * 2 == x + 2
    assert p - p == MultiPoly.zero(XY)
    assert (p * 0).is_zero()


def test_monomial_order_is_graded():
    assert monomial_key((0, 2)) < monomial_key((3, 0))
    assert monomial_key((1, 1)) < monomial_key((2, 0))
    x, y = gens(XY)
    assert (x * x + x * y).lead()[0] == (2, 0)


def test_laurent_inverse():
    x, y = gens(LXY)
    xinv = MultiPoly.monomial(LXY, (-1, 0))
    assert xinv * x == MultiPoly.one(LXY)
    with pytest.raises(ValueError):
        MultiPoly.gen(XY, "x") ** (-1)
    with pytest.raises(ValueError):
        MultiPoly.monomial(XY, (-1, 0))


def test_substitute_shift():
    x, y = gens(XY)
    p = x * x
    q = p.substitute({"x": x + 1}, XY)
    assert q == x * x + x * 2 + 1


def test_substitute_into_laurent_monomial():
    # substitution works in polynomial rings: a negative exponent is
    # rejected, whatever the image
    x, y = gens(LXY)
    p = MultiPoly.monomial(LXY, (-2, 0))
    for image in (y, x + y):
        with pytest.raises(ValueError, match="negative power"):
            p.substitute({"x": image}, LXY)
    assert MultiPoly.monomial(LXY, (2, 0)).substitute({"x": y}, LXY) == y * y


def test_substitute_monomial_images_mix_variables():
    # q^a L^b -> Q^(a-b) T^(-b): q -> Q and L -> Q^-1 T^-1, into the Laurent ring
    images = {"x": MultiPoly.monomial(LXY, (1, 0)), "y": MultiPoly.monomial(LXY, (-1, -1))}
    p = MultiPoly.monomial(LXY, (2, 1))
    assert p.substitute(images, LXY) == MultiPoly.monomial(LXY, (1, -1))


def test_derivative_basic():
    x, y = gens(XY)
    p = x * x * y + y
    assert p.derivative("x") == x * y * 2
    assert p.derivative("y") == x * x + 1


coeff = st.integers(min_value=-4, max_value=4)
expo = st.tuples(st.integers(0, 3), st.integers(0, 3))
poly_terms = st.dictionaries(expo, coeff, min_size=0, max_size=5)


def make_poly(terms):
    return MultiPoly(XY, {e: rat(c) for e, c in terms.items() if c})


@settings(max_examples=60, deadline=None)
@given(poly_terms, poly_terms)
def test_derivative_product_rule(ta, tb):
    a, b = make_poly(ta), make_poly(tb)
    lhs = (a * b).derivative("x")
    rhs = a.derivative("x") * b + a * b.derivative("x")
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(poly_terms, poly_terms)
def test_exact_division_inverts_multiplication(ta, tb):
    a, b = make_poly(ta), make_poly(tb)
    if b.is_zero():
        return
    assert poly_divide_exact(a * b, b) == a


def test_division_rejects_non_multiple():
    x, y = gens(XY)
    assert poly_divide_exact(x * x + y, x + 1) is None


def test_slice_monomials_counts():
    g = grading_for(XY, {"x": (1, 0), "y": (0, 1)})
    assert len(slice_monomials(XY, g, (2, 1))) == 1
    total = grading_for(XY, {"x": (1, 0), "y": (1, 0)})
    assert len(slice_monomials(XY, total, (3, 0))) == 4


def test_slice_monomials_weighted():
    g = grading_for(XY, {"x": (1, 0), "y": (1, 2)})
    # bidegree (2, 2): x^a y^b with a + b = 2, 2b = 2
    assert slice_monomials(XY, g, (2, 2)) == [(1, 1)]


def test_slice_monomials_laurent_needs_window():
    # the zero grading at degree (0, 0): a plain box over the windows
    zero = grading_for(LXY, {})
    with pytest.raises(ValueError, match="Laurent variable x needs a window"):
        slice_monomials(LXY, zero, (0, 0), {"y": (0, 1)})
    exps = slice_monomials(LXY, zero, (0, 0), {"x": (-1, 0), "y": (0, 1)})
    assert set(exps) == {(-1, 0), (-1, 1), (0, 0), (0, 1)}
    assert exps == sorted(exps, key=monomial_key)


def test_slice_monomials_windowed_lattice_style():
    # weight-zero Laurent variable ranges over its window only
    mixed = ring(["x", "y"], laurent=["x"])
    g = grading_for(mixed, {"y": (1, 0)})
    exps = slice_monomials(mixed, g, (1, 0), {"x": (-1, 1)})
    assert exps == [(-1, 1), (0, 1), (1, 1)]


def test_json_round_trip():
    x, y = gens(XY)
    p = x * y * rat(3, 2) - y ** 3
    obj = poly_to_json(p)
    assert poly_from_json(obj, XY) == p
    assert obj["terms"][0]["den"] in (1, 2)
