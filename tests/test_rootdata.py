"""Root tables, pairings, reflections, Weyl group orders."""

import pytest

from gkmslice.rootdata import (
    identity_mat,
    mat_mul,
    mat_vec,
    root_datum,
    weyl_elements,
)

ALL_LABELS = ["GL1", "GL2", "GL3", "GL4", "SL2", "SL3", "SL4",
              "A1", "A1xA1", "A2", "B2", "G2"]

WEYL_ORDERS = {
    "GL1": 1, "GL2": 2, "GL3": 6, "GL4": 24,
    "SL2": 2, "SL3": 6, "SL4": 24,
    "A1": 2, "A1xA1": 4, "A2": 6, "B2": 8, "G2": 12,
}


@pytest.mark.parametrize("label", ALL_LABELS)
def test_root_coroot_pairing_is_two(label):
    rd = root_datum(label)
    for i in range(rd.npos):
        assert rd.pair_coroot(rd.roots[i], rd.coroots[i]) == 2


@pytest.mark.parametrize("label", ALL_LABELS)
def test_reflections_are_involutions(label):
    rd = root_datum(label)
    eye = identity_mat(rd.rank)
    for i in range(rd.npos):
        s = rd.reflection_on_lattice(i)
        assert mat_mul(s, s) == eye


@pytest.mark.parametrize("label", ALL_LABELS)
def test_reflections_permute_roots(label):
    rd = root_datum(label)
    closed = {r for r in rd.roots} | {tuple(-c for c in r) for r in rd.roots}
    for i in range(rd.npos):
        m = rd.reflection_on_roots(i)
        for r in rd.roots:
            assert tuple(mat_vec(m, r)) in closed


@pytest.mark.parametrize("label", ALL_LABELS)
def test_weyl_group_order(label):
    rd = root_datum(label)
    assert len(weyl_elements(rd)) == WEYL_ORDERS[label]


def test_reflection_fixes_pairing():
    rd = root_datum("B2")
    for i in range(rd.npos):
        s_lat = rd.reflection_on_lattice(i)
        s_y = rd.reflection_on_roots(i)
        for r in rd.roots:
            for c in rd.coroots:
                lhs = rd.pair_coroot(r, c)
                rhs = rd.pair_coroot(tuple(mat_vec(s_y, r)), tuple(mat_vec(s_lat, c)))
                assert lhs == rhs


def test_label_parsing():
    assert root_datum("GL", 3).label == "GL3"
    assert root_datum(" sl2 ").label == "SL2"
    with pytest.raises(ValueError):
        root_datum("E8")
    with pytest.raises(ValueError):
        root_datum("GL", 7)


def test_gl2_lattice_pairing():
    rd = root_datum("GL2")
    # single positive root, coroot e1 - e2, pairing <alpha, alpha^vee> = 2
    assert rd.coroots == ((1, -1),)
    lam = (3, 1)
    assert rd.pair(0, lam) == 2
