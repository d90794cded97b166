"""Acceptance gate: thirteen exact end-to-end checks, tolerance zero.

Each test prints one summary line on success; a failed assertion marks
the criterion failed. Timings use wall-clock monotonic time.
"""

import subprocess
import sys
import time
from functools import lru_cache

from gkmslice.arrangement import (
    alternant_slice,
    catalan_quotient,
    freeness_check,
    jd_slice,
    ordinary_homology_quotient_slice,
    vanishing_slice,
)
from gkmslice.curves import (
    conjecture_vs_msv,
    knot_compare,
    msv_assemble,
    quotient_hilbert_slice,
    tacnode_closed_form,
    tacnode_spec,
    three_lines_closed_form,
    three_lines_spec,
)
from gkmslice.gkm import (
    build_flag_rank1_graph,
    build_gkm_graph,
    flag_constant_class,
    flag_rank1_classes,
    perturb_numerator,
    perturb_with_unit_pole,
    residue_antisymmetry_check,
    sl2_classes,
    specialize_t0,
    verify_residue_conditions,
)
from gkmslice.rings import MultiPoly
from gkmslice.rootdata import root_datum

BIDEGREES_8 = [(a, t - a) for t in range(9) for a in range(t + 1)]


@lru_cache(maxsize=None)
def cached_jd(n, d, deg):
    return jd_slice(n, d, deg)


def test_criterion_01_catalan_totals():
    t0 = time.monotonic()
    assert catalan_quotient(2).total == 2
    assert catalan_quotient(3).total == 5
    small = time.monotonic() - t0
    assert small < 10.0
    t1 = time.monotonic()
    assert catalan_quotient(4).total == 14
    big = time.monotonic() - t1
    assert big < 300.0
    print(f"criterion 01 PASS: totals 2/5/14 (n<=3 in {small:.1f}s, n=4 in {big:.1f}s)")


def test_criterion_02_qt_symmetry():
    table = catalan_quotient(3).table
    assert table == {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1, (1, 1): 1}
    assert all(table.get((b, a)) == v for (a, b), v in table.items())
    print("criterion 02 PASS: n=3 table symmetric, entries {(3,0),(2,1),(1,2),(0,3),(1,1)}")


def test_criterion_03_alternant_rank_equality():
    checked = 0
    for n in (2, 3):
        for d in (1, 2):
            for deg in BIDEGREES_8:
                assert (
                    alternant_slice(n, d, deg).rank == cached_jd(n, d, deg).rank
                ), (n, d, deg)
                checked += 1
    print(f"criterion 03 PASS: alternant rank = intersection rank on {checked} slices")


def test_criterion_04_oracle_equivalence():
    checked = 0
    for n in (2, 3):
        for d in (1, 2):
            for deg in BIDEGREES_8:
                assert (
                    cached_jd(n, d, deg).space == vanishing_slice(n, d, deg).space
                ), (n, d, deg)
                checked += 1
    print(f"criterion 04 PASS: spanning pipeline = vanishing-oracle pipeline on {checked} slices")


def test_criterion_05_freeness_witness():
    for n, d in ((2, 1), (2, 2), (3, 1)):
        report = freeness_check(n, d, 8)
        assert report.ok, (n, d, report.failures[:3])
    print("criterion 05 PASS: regular-sequence checks (2,1), (2,2), (3,1) through degree 8")


def test_criterion_06_gkm_classes():
    rd = root_datum("SL2")
    checked = perturbed = 0
    for d in (1, 2, 3):
        graph = build_gkm_graph(rd, d, [(-9, 9)])
        for k in range(-3, 4):
            cls = sl2_classes(d, k)
            assert verify_residue_conditions(graph, cls).ok, (d, k)
            bad = perturb_numerator(cls, next(iter(sorted(cls))))
            assert not verify_residue_conditions(graph, bad).ok, (d, k)
            checked += 1
            perturbed += 1
    flag = build_flag_rank1_graph((-5, 5))
    for kind in ("pair", "step"):
        for k in range(-3, 4):
            cls = flag_rank1_classes(kind, k)
            assert verify_residue_conditions(flag, cls).ok, (kind, k)
            bad = perturb_numerator(cls, next(iter(sorted(cls))))
            assert not verify_residue_conditions(flag, bad).ok, (kind, k)
            checked += 1
            perturbed += 1
    const = flag_constant_class(flag)
    assert verify_residue_conditions(flag, const).ok
    y = MultiPoly.gen(flag.ring, "y")
    assert not verify_residue_conditions(
        flag, perturb_with_unit_pole(const, (0, "e"), y)
    ).ok
    anti = 0
    for d in (1, 2, 3, 4):
        for k in (-3, 0, 2):
            for j in range(d + 1):
                for jp in range(j + 1, d + 1):
                    ok, _, _ = residue_antisymmetry_check(d, k, j, jp)
                    assert ok, (d, k, j, jp)
                    anti += 1
    print(
        f"criterion 06 PASS: {checked} classes verified, {perturbed + 1} perturbations fail, "
        f"{anti} antisymmetry pairs"
    )


def test_criterion_07_t0_specialization():
    for d in (1, 2, 3):
        for k in range(-3, 4):
            got = specialize_t0(sl2_classes(d, k))
            rg = got.ring
            x = MultiPoly.gen(rg, "x")
            one = MultiPoly.one(rg)
            expected = MultiPoly.monomial(rg, (k, -d)) * (one - x) ** d
            assert got == expected, (d, k)
    print("criterion 07 PASS: t=0 specialization is x^k (1-x)^d / y^d for d<=3, |k|<=3")


def test_criterion_08_msv_golden_identities():
    t0 = time.monotonic()
    assert msv_assemble(three_lines_spec()) == three_lines_closed_form()
    assert msv_assemble(tacnode_spec()) == tacnode_closed_form()
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 08 PASS: both golden identities exact in {elapsed:.3f}s")


def test_criterion_09_knot_comparisons():
    r24 = knot_compare("T(2,4)")
    assert r24.ok and r24.shift == 0
    r33 = knot_compare("T(3,3)")
    assert r33.ok and r33.shift == 3
    print("criterion 09 PASS: T(2,4) equal at T^0, T(3,3) equal at T^3")


def test_criterion_10_conjecture_cross_check():
    for n, d in ((3, 1), (2, 1)):
        report = conjecture_vs_msv(n, d, order=6)
        assert report.ok, (n, d, report.mismatches[:3])
    experiment = conjecture_vs_msv(2, 2, order=6)
    assert experiment.table, "the (2,2) run must produce a populated report"
    finding = (
        "matches through q-order 6"
        if experiment.ok
        else f"first mismatch {experiment.mismatches[0]}"
    )
    print(f"criterion 10 PASS: (3,1) and (2,1) match through q-order 6; (2,2) {finding}")


def test_criterion_11_h2_coefficient():
    for n in (2, 3):
        assert quotient_hilbert_slice(n, 1, (2, 2)) == n + 1
    print("criterion 11 PASS: two-point degree-2 slice has dimension n+1 for n=2,3")


def test_criterion_12_ordinary_quotient():
    rd = root_datum("GL2")
    result = ordinary_homology_quotient_slice(rd, 1, 0, [(0, 1), (0, 1)])
    assert result.status == "stabilized"
    assert result.quotient_dim == 3
    rows = result.submodule.row_polys()
    assert len(rows) == 1
    rg = result.submodule.ring
    x2 = MultiPoly.gen(rg, "x2")
    ratio = MultiPoly.monomial(rg, (1, -1) + (0,) * (rg.nvars - 2))  # x1 / x2
    generator = x2 * (MultiPoly.one(rg) - ratio)
    assert rows[0] == generator or rows[0] == -generator
    print("criterion 12 PASS: GL2 window quotient dim 3, generator (1 - x1/x2) up to a unit")


CLI_CONFIGS = [
    ["catalan", "--n", "3"],
    ["jd-series", "--group", "GL", "--n", "2", "--d", "1", "--maxdeg", "4"],
    ["freeness", "--n", "2", "--d", "2", "--maxdeg", "6"],
    ["gkm-graph", "--group", "SL2", "--d", "2", "--window=-3:3", "--format", "dot"],
    ["gkm-verify", "--group", "SL2", "--d", "2", "--class", "b1"],
    ["msv", "--curve", "2,4", "--punctual"],
    ["conjecture-check", "--n", "2", "--d", "1", "--order", "4"],
    ["compare-knot", "--link", "T33"],
    ["ordinary-quotient", "--group", "GL2", "--window", "0:1"],
    ["flag-rank1", "--window", "0:3"],
]


def run_cli_bytes(config):
    proc = subprocess.run(
        [sys.executable, "-m", "gkmslice.cli", *config],
        capture_output=True,
    )
    return proc.returncode, proc.stdout


def test_criterion_13_cli_determinism():
    for config in CLI_CONFIGS:
        code1, out1 = run_cli_bytes(config)
        code2, out2 = run_cli_bytes(config)
        assert code1 == code2 == 0, (config, code1, code2)
        assert out1 == out2, config
        assert out1, config
    print(f"criterion 13 PASS: {len(CLI_CONFIGS)} configs byte-identical across runs")
