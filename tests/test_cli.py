"""CLI contract: exit codes, canonical output, formats, determinism."""

import json

import pytest

from gkmslice import __version__, cli
from gkmslice.arrangement import QuotientResult
from gkmslice.gkm import class_to_json, perturb_numerator, sl2_classes
from gkmslice.rationals import HAVE_GMPY2


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_catalan_json(capsys):
    code, out = run_cli(capsys, ["catalan", "--n", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 2
    assert payload["table"] == {"0,1": 1, "1,0": 1}


def test_json_is_canonical_and_deterministic(capsys):
    _, first = run_cli(capsys, ["catalan", "--n", "3"])
    _, second = run_cli(capsys, ["catalan", "--n", "3"])
    assert first == second
    assert first == json.dumps(json.loads(first), sort_keys=True, indent=2) + "\n"


def test_gkm_verify_pass(capsys):
    code, out = run_cli(
        capsys, ["gkm-verify", "--group", "SL2", "--d", "2", "--class", "b0"]
    )
    assert code == 0
    assert json.loads(out)["status"] == "PASS"


def test_gkm_verify_perturbed_class_exits_one(capsys, tmp_path):
    cls = sl2_classes(1, 0)
    bad = perturb_numerator(cls, next(iter(cls)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(class_to_json(bad)))
    code, out = run_cli(
        capsys,
        ["gkm-verify", "--group", "SL2", "--d", "1", "--classes-file", str(path)],
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "FAIL"
    assert payload["failures"]


def test_compare_knot(capsys):
    code, out = run_cli(capsys, ["compare-knot", "--link", "T33"])
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["normalization"] == "T^3"


def test_msv_golden(capsys):
    code, out = run_cli(capsys, ["msv", "--curve", "3,3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form_match"] is True
    assert payload["punctual_factor"] == "(1-q*L)^r"
    assert payload["alternate_factor"] == "(1-L^2)^r"


def test_conjecture_check(capsys):
    code, out = run_cli(capsys, ["conjecture-check", "--n", "2", "--d", "1", "--order", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "PASS"
    assert payload["table"]["2,2"] == 3


def test_flag_rank1(capsys):
    code, out = run_cli(capsys, ["flag-rank1", "--window", "0:3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["quotient_dim"] == 1
    assert payload["pair_classes_in_module"] is True


def test_ordinary_quotient(capsys):
    code, out = run_cli(capsys, ["ordinary-quotient", "--group", "GL2", "--window", "0:1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["quotient_dim"] == 3
    assert payload["submodule_rows"] == ["x2 - x1"]


class _EmptySubmodule:
    def row_polys(self):
        return []


def test_inconclusive_status_maps_to_exit_two(capsys, monkeypatch):
    def fake_slice(rd, d, ydeg, bounds, margin=None):
        return QuotientResult(
            ambient_dim=4,
            submodule_rank=1,
            quotient_dim=3,
            status="inconclusive",
            margin=None,
            submodule=_EmptySubmodule(),
        )

    monkeypatch.setattr(cli.arrangement, "ordinary_homology_quotient_slice", fake_slice)
    code = cli.main(
        ["ordinary-quotient", "--group", "GL2", "--window", "0:1", "--format", "human"]
    )
    capsys.readouterr()
    assert code == 2


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["catalan"])  # missing --n
    assert exc.value.code == 64
    capsys.readouterr()
    code = cli.main(["msv", "--curve", "bogus"])
    capsys.readouterr()
    assert code == 64
    code = cli.main(["gkm-graph", "--group", "SL2", "--window", "1:0"])
    capsys.readouterr()
    assert code == 64


def test_version_names_the_rational_backend(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    backend = "gmpy2" if HAVE_GMPY2 else "Fraction"
    assert capsys.readouterr().out == f"gkmslice {__version__} (rationals: {backend})\n"


def test_csv_and_dot_and_human_formats(capsys):
    code, out = run_cli(
        capsys, ["jd-series", "--group", "GL", "--n", "2", "--maxdeg", "2",
                 "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "xdeg,ydeg,rank"
    assert len(lines) == 7  # header + six bidegrees

    code, out = run_cli(
        capsys, ["gkm-graph", "--group", "SL2", "--window=-1:1", "--format", "dot"]
    )
    assert code == 0
    assert out.startswith("graph moment {")

    code, out = run_cli(capsys, ["freeness", "--n", "2", "--maxdeg", "4",
                                 "--format", "human"])
    assert code == 0
    assert "stage 1: PASS" in out


def test_output_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out = run_cli(capsys, ["catalan", "--n", "2", "--output", str(path)])
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["total"] == 2


def test_gkm_verify_flag_constant(capsys):
    code, out = run_cli(
        capsys,
        ["gkm-verify", "--group", "FLAG", "--window=-3:3", "--class", "constant"],
    )
    assert code == 0
    assert json.loads(out)["status"] == "PASS"


def test_gkm_verify_constant_class_fits_every_graph(capsys):
    code, out = run_cli(capsys, ["gkm-verify", "--group", "SL2", "--class", "constant"])
    assert code == 0
    assert json.loads(out)["status"] == "PASS"


@pytest.mark.parametrize(
    "argv",
    [
        ["jd-series", "--n", "1"],
        ["jd-series", "--n", "0"],
        ["catalan", "--n", "1"],
        ["flag-rank1", "--margin", "-3"],
        ["jd-series", "--n", "2", "--d", "-1"],
        ["ordinary-quotient", "--group", "GL2", "--ydeg", "-1"],
        ["freeness", "--n", "2", "--maxdeg", "-1"],
        ["conjecture-check", "--n", "2", "--d", "1", "--order", "-1"],
        ["jd-series", "--n", "2", "--maxdeg", "-1"],
        ["gkm-verify", "--group", "SL2", "--d", "0", "--class", "b0"],
        ["gkm-verify", "--group", "SL2", "--classes-file", "/nonexistent.json"],
        ["jd-series", "--n", "2", "--maxdeg", "1", "--output", "/nonexistent/dir/x.json"],
        ["gkm-verify", "--group", "B2", "--class", "b0"],
        ["gkm-verify", "--group", "GL2", "--d", "2", "--class", "b0"],
        ["gkm-verify", "--group", "FLAG", "--class", "b0"],
        ["gkm-verify", "--group", "SL2", "--class", "pair0"],
    ],
    ids=[
        "jd-n1",
        "jd-n0",
        "catalan-n1",
        "flag-negative-margin",
        "jd-negative-d",
        "oq-negative-ydeg",
        "freeness-negative-maxdeg",
        "conjecture-negative-order",
        "jd-negative-maxdeg",
        "gkm-verify-d0",
        "gkm-verify-missing-classes-file",
        "output-in-missing-dir",
        "gkm-verify-b-on-B2",
        "gkm-verify-b-on-GL2",
        "gkm-verify-b-on-flag",
        "gkm-verify-pair-on-SL2",
    ],
)
def test_out_of_domain_arguments_exit_64(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err.startswith("gkmslice: error: ")
    if argv[0] == "gkm-verify" and "--d" in argv and argv[argv.index("--d") + 1] == "0":
        assert "d must be >= 1" in captured.err


def test_internal_error_exits_70_with_traceback(capsys, monkeypatch):
    def broken(n, method="spanning"):
        raise RuntimeError("broken handler")

    monkeypatch.setattr(cli.arrangement, "catalan_quotient", broken)
    code = cli.main(["catalan", "--n", "2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 70
    assert "Traceback" in captured.err
    assert "RuntimeError: broken handler" in captured.err
