"""Rational series normal form, arithmetic, truncation, monomial maps."""

import pytest

from gkmslice.rationals import rat
from gkmslice.rings import MultiPoly, poly_from_json, ring
from gkmslice.series import (
    RationalSeries,
    equal_up_to_monomial,
    series_to_json,
)

QL = ring(["q", "L"])
QT = ring(["Q", "T"])


def q_gen():
    return MultiPoly.gen(QL, "q")


def L_gen():
    return MultiPoly.gen(QL, "L")


def one():
    return MultiPoly.one(QL)


def test_factor_normalization_scales_to_numerator():
    # 2q / (2 - 2q) == q / (1 - q)
    a = RationalSeries(q_gen() * 2, ((one() * 2 - q_gen() * 2, 1),))
    b = RationalSeries(q_gen(), ((one() - q_gen(), 1),))
    assert a == b
    assert a.factors == b.factors


def test_numerator_cancellation():
    # (1 - q^2) / (1 - q) == 1 + q
    s = RationalSeries(one() - q_gen() ** 2, ((one() - q_gen(), 1),))
    assert s.factors == ()
    assert s.num == one() + q_gen()


def test_add_merges_denominators():
    s = RationalSeries(one(), ((one() - q_gen(), 2),)) + RationalSeries(
        q_gen(), ((one() - q_gen(), 1),)
    )
    # 1/(1-q)^2 + q/(1-q) = (1 + q - q^2)/(1-q)^2
    expected = RationalSeries(
        one() + q_gen() - q_gen() ** 2, ((one() - q_gen(), 2),)
    )
    assert s == expected


def test_cross_multiplied_equality():
    # q/(1-q)^2 == (q - q^3)/((1-q)^2 (1-q^2)) before normal form
    lhs = RationalSeries(q_gen(), ((one() - q_gen(), 2),))
    rhs = RationalSeries(
        q_gen() - q_gen() ** 3, ((one() - q_gen(), 2), (one() - q_gen() ** 2, 1))
    )
    assert lhs == rhs


def test_expand_geometric():
    s = RationalSeries(one(), ((one() - q_gen(), 1),))
    t = s.expand(3, ["q"])
    assert t == one() + q_gen() + q_gen() ** 2 + q_gen() ** 3


def test_expand_mixed_cap():
    # 1/((1-q)(1-qL)) through q-order 2
    s = RationalSeries(one(), ((one() - q_gen(), 1), (one() - q_gen() * L_gen(), 1)))
    t = s.expand(2, ["q"])
    q, L = q_gen(), L_gen()
    assert t == one() + q * (L + 1) + q * q * (L * L + L + 1)


def test_expand_requires_unit_constant_term():
    with pytest.raises(ValueError):
        RationalSeries(one(), ((q_gen(), 1),)).expand(2, ["q"])


def test_pow_and_mul():
    s = RationalSeries(q_gen(), ((one() - q_gen(), 1),))
    assert s ** 2 == s * s
    assert (s - s).num.is_zero()


def test_map_monomials_knot_substitution():
    # q^2 L / (1-qL): exponent map q^a L^b -> Q^(a-b) T^(-b)
    s = RationalSeries(q_gen() ** 2 * L_gen(), ((one() - q_gen() * L_gen(), 1),))
    t = s.map_monomials([[1, -1], [0, -1]], QT)
    Q, T = MultiPoly.gen(QT, "Q"), MultiPoly.gen(QT, "T")
    oneQT = MultiPoly.one(QT)
    # q^2 L -> Q T^{-1}; 1 - qL -> 1 - T^{-1}; clearing T gives Q/(T - 1) = -Q/(1-T)
    expected = RationalSeries(-Q, ((oneQT - T, 1),))
    assert t == expected


def test_equal_up_to_monomial_finds_shift():
    Q, T = MultiPoly.gen(QT, "Q"), MultiPoly.gen(QT, "T")
    oneQT = MultiPoly.one(QT)
    base = RationalSeries(Q, ((oneQT - Q, 1),))
    shifted = RationalSeries(Q * T ** 2, ((oneQT - Q, 1),))
    assert equal_up_to_monomial(base, shifted, "T") == 2
    assert equal_up_to_monomial(shifted, base, "T") == -2
    other = RationalSeries(Q ** 2, ((oneQT - Q, 1),))
    assert equal_up_to_monomial(base, other, "T") is None


def test_series_json_round_trip():
    s = RationalSeries(q_gen() * rat(1, 3), ((one() - q_gen() * L_gen(), 2),))
    obj = series_to_json(s)
    num, den = (poly_from_json(obj[key], QL) for key in ("num", "den"))
    assert RationalSeries(num, ((den, 1),)) == s
