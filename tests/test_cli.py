"""CLI contract: exit codes, canonical output, formats, determinism."""

import hashlib
import json

import pytest

from gkmslice import __version__, arrangement, cli, curves
from gkmslice.arrangement import QuotientResult
from gkmslice.gkm import class_to_json, flag_rank1_classes, perturb_numerator, sl2_classes
from gkmslice.rationals import HAVE_GMPY2
from gkmslice.rootdata import root_datum
from test_gkm import _b2_graph, _b2_line_class


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


@pytest.mark.parametrize(
    "text",
    [
        '{"foo": 1}',
        '{"entries": [{"vertex": [0]}]}',
        "[1, 2]",
        '{"entries": [{"vertex": 5, "num": {}, "den": []}]}',
        '{"entries": [{"vertex": [0], "num": 5, "den": []}]}',
        '{"entries": [{"vertex": [0], "den": [],'
        ' "num": {"vars": ["y", "t"], "terms": [{"exp": [0]}]}}]}',
        '{"entries": [{"vertex": [0], "den": [],'
        ' "num": {"vars": ["y", "t"], "terms": [{"exp": [0, 0], "num": 1.5, "den": 1}]}}]}',
    ],
    ids=["no-entries", "entry-without-num", "list", "integer-vertex", "integer-num",
         "term-without-den", "fractional-coefficient"],
)
def test_gkm_verify_malformed_classes_file_exits_64(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = cli.main(["gkm-verify", "--group", "SL2", "--classes-file", str(path)])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err.startswith("gkmslice: error: ")


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


def test_conjecture_check_reports_the_first_mismatch(capsys, monkeypatch):
    real = curves.quotient_table

    def off_by_one(n, d, order):
        table = real(n, d, order)
        table[(2, 2)] += 1
        return table

    monkeypatch.setattr(curves, "quotient_table", off_by_one)
    argv = ["conjecture-check", "--n", "2", "--d", "1", "--order", "3"]
    code, out = run_cli(capsys, argv)
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "MISMATCH"
    assert payload["first_mismatch"] == {
        "bidegree": [2, 2], "series_coefficient": "3", "quotient_dim": 4
    }
    code, out = run_cli(capsys, [*argv, "--format", "human"])
    assert code == 1
    assert out.startswith("MISMATCH at [2, 2]: (2,1) vs node")


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


def test_flag_rank1_inconclusive_maps_to_exit_two(capsys, monkeypatch):
    real = arrangement.flag_rank1_module_slice

    def fake_slice(bounds, margin=None):
        result = real(bounds, margin)
        result.status = "inconclusive"
        return result

    monkeypatch.setattr(cli.arrangement, "flag_rank1_module_slice", fake_slice)
    code = cli.main(["flag-rank1", "--window", "0:3", "--format", "human"])
    assert capsys.readouterr().out.startswith("inconclusive: quotient dim 1,")
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
        ["gkm-verify", "--group", "GL1", "--class", "b0"],
        ["gkm-verify", "--group", "SL2", "--class", "b100"],
        ["gkm-verify", "--group", "FLAG", "--class", "pair99"],
        ["compare-knot", "--link", "T22"],
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
        "gkm-verify-b-on-edgeless-GL1",
        "gkm-verify-b-outside-window",
        "gkm-verify-pair-outside-window",
        "compare-knot-unpinned-link",
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


@pytest.mark.parametrize("label", ["GL", "SL", "SLx", "GLx"])
def test_group_label_without_an_integer_size_is_named_in_the_error(capsys, label):
    with pytest.raises(ValueError, match=f"^unknown root datum label '{label}'$"):
        root_datum(label)
    assert cli.main(["gkm-graph", "--group", label]) == 64
    assert capsys.readouterr().err == f"gkmslice: error: unknown root datum label '{label}'\n"


# sha256 of stdout in the json, csv and human formats. The curve side's
# output bytes are part of the CLI contract.
CURVE_SIDE_DIGESTS = {
    "msv --curve 3,3": (
        "2845458760197a740c7c82f16b04ba795ed85fa6e9832dd8458893f5fedd0b10",
        "2a5494686bdf5e33c64c63f23fe5de378804eb169b00abbd6165c852d4ca320e",
        "f150e8335ac3876f5d515217c733450a9a3892b10ae55f9f5918122a540c0e35",
    ),
    "msv --curve 3,3 --punctual": (
        "71cdb402c5a9e96577456b8b3154577d14360506f666252b1412b8e504b42fb6",
        "2a5494686bdf5e33c64c63f23fe5de378804eb169b00abbd6165c852d4ca320e",
        "f150e8335ac3876f5d515217c733450a9a3892b10ae55f9f5918122a540c0e35",
    ),
    "msv --curve 2,4": (
        "51a068fe00545777e8cb5ae4f8c3d7d61d2f83eea0cdc0ecaab36c9ddf05cf62",
        "266078b212d0dcd12421a0cb759e908c950e8ebba159a322721866911b5e298c",
        "2bb7c25620f827c0ea871b7bedba951a51cec6169874601544e1856a2d0c26c9",
    ),
    "msv --curve 2,4 --punctual": (
        "4961d402e929ea0508a0b7359476d74e29fb63f400e131be87b974b72c0e678f",
        "266078b212d0dcd12421a0cb759e908c950e8ebba159a322721866911b5e298c",
        "2bb7c25620f827c0ea871b7bedba951a51cec6169874601544e1856a2d0c26c9",
    ),
    "msv --curve 2,2": (
        "46bee3945bc8c9cd4b8ceb4c3d6f7d44ba44c91509a80e4d346fdf4cc34e5cf2",
        "35cff5ecb57b63b8a62303a9316e6ccd700a68e2c102f8a5134f3db2ff1fa977",
        "807ab6a975f1ce61e30a33127799a7561c7c3e56c0cc9830b5885637c3bba1ce",
    ),
    "msv --curve 2,2 --punctual": (
        "1f609354818931a1d5cacb550de876a08bf79eba118ed5d1888b251f5496fced",
        "35cff5ecb57b63b8a62303a9316e6ccd700a68e2c102f8a5134f3db2ff1fa977",
        "807ab6a975f1ce61e30a33127799a7561c7c3e56c0cc9830b5885637c3bba1ce",
    ),
    "compare-knot --link T24": (
        "d27652f402fabd7829ec30e965c40e08902bb1287852b15be885a5509994bc44",
        "e6a79e00eb83a6911dc8e6876fba767d24b9ad2bdaaf5e59cecdafec5c5b733a",
        "74ee2f673429d64c9c504d1095d16791b2f52570f904ec7a7dc370df206229ae",
    ),
    "compare-knot --link T(3,3)": (
        "4618e3eb0c915d12b35c437536fb6d1b584131b6509141775275c1c445d9515c",
        "79ed07f9b72447985e542d907486b1089b5a7ea122b659350ce124122b5e1784",
        "5f601a1ab914b36fbc7eff28f35609f00f403ac5979b999e0c98fdf0333f1907",
    ),
    "conjecture-check --n 2 --d 1": (
        "2bb1374e91aa78360189b36620b6ed6a4f3bf41a5a7a1d3af605e9c591111d8b",
        "4b565d32dec5b90d73ed6f94d0d658231214d7a1cfbf7e10c67c84f23cd716e5",
        "3975c59b532a161721136c1846087a557699e02727f5f0e9106b109dbc5c0d0a",
    ),
    "conjecture-check --n 3 --d 1": (
        "0bf996fa27ae9378aa093b540b23d43dd78bb6cc3b9ba1b7e19e03e4506b6ef2",
        "9139d26a94abbe40c11f0be1710061f329126a11938a28224ac6206e9d584987",
        "b91e9e0de4784ed4238d3acabf45ff777c89ecc490d2ad4b0f23ea6b89d6e93a",
    ),
    "conjecture-check --n 2 --d 2": (
        "dc0ad43d786205cd53c99681bcf1dd8f19e07fe91b62f0014a8c94edfa998fdb",
        "d4e00d303c32c09af963a7cd71d78bfa06aa387bfe0d0b59faf20719bd46bfc0",
        "0cf6b5089b5fc8c883c4fb64312b61241832d6ba98f7ade742fd5d3ad7586f17",
    ),
}


@pytest.mark.parametrize("command", list(CURVE_SIDE_DIGESTS))
def test_curve_side_stdout_is_pinned(capsys, command):
    for fmt, expected in zip(("json", "csv", "human"), CURVE_SIDE_DIGESTS[command]):
        code, out = run_cli(capsys, command.split() + ["--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, (command, fmt)


def _perturbed_class(name):
    """(gkm-verify graph arguments, class) for each pinned failing class:
    a known class with 1 added to one numerator."""
    if name.startswith("SL2"):
        d = int(name[-1])
        return ["--group", "SL2", "--d", str(d)], perturb_numerator(sl2_classes(d, 0), (1,))
    if name == "B2 line":
        cls = _b2_line_class(_b2_graph())
        return ["--group", "B2", "--d", "2", "--window=-1:1"], perturb_numerator(cls, (0, 0))
    cls = flag_rank1_classes("pair", 1)
    return ["--group", "FLAG"], perturb_numerator(cls, (1, "e"))


# sha256 of `gkm-verify --classes-file bad.json` stdout in the json, csv
# and human formats: the failure records, residue strings included.
GKM_VERIFY_FAILURE_DIGESTS = {
    "SL2 d=1": (
        "5cb0467461142e5c7d2c898e38873cc06c7918ad72c853d7075148d12bfbd2b8",
        "5a6476d75bb3d380bacc5c8dd894030cd95f0d9d86c3d96378a90aa5772cff2b",
        "563057817d92c73c3f569b0842b964df17265f03f84eb52b8b15e9d818ffd30d",
    ),
    "SL2 d=2": (
        "5aa9bcfefc556e84827b4f780979a4b1f2f6c44c1365edab18dad22e2c356e17",
        "3e3b35f3128221055768710f86b7628b675f8092df5f0063d021da7cc13c93de",
        "1d4e8940437ccded7b9d06b97cf9d23e2c71f7efd5179ea37b4715d5d748210c",
    ),
    "SL2 d=3": (
        "70374e589a878e179878634793ec0eb9f77e333baa3852d8cfc24b9f2ac24a46",
        "2535a3ba845b8a512b76fbe2152fc7ac849a10f19dfd9fbfaaee330eb2f8bd87",
        "6116b59d06ae94e1074fb76e739c3aa9658a0ade8c117eae46749081be1eac34",
    ),
    "B2 line": (
        "392537678b457893f3138cd4ce47af3b9e82b764acd2aa78d28a7e18b9f3b298",
        "1d84ecc5aba634c3357ba98f58cafbc0e7633bab5bc7c25d931f0bb3329c894d",
        "4065efa4653e8dd04d4363dc8685a679b2dad0a02fceef2e2a9d5acf69d98b03",
    ),
    "FLAG pair1": (
        "c65d38041289923699441101dea773774c7be48f2dfedc16cfa643af0dbc0763",
        "14162b7cf59fe8f6623d3d92778a4130e31c4ac705bce271021a33332dcc986f",
        "94b9fb3160e47969a95115cc88903669770bfd0403abbf520fda2b8e8da5fdfc",
    ),
}


@pytest.mark.parametrize("name", list(GKM_VERIFY_FAILURE_DIGESTS))
def test_gkm_verify_failure_stdout_is_pinned(capsys, tmp_path, monkeypatch, name):
    graph_args, cls = _perturbed_class(name)
    (tmp_path / "bad.json").write_text(json.dumps(class_to_json(cls)))
    monkeypatch.chdir(tmp_path)  # the file name is part of the output
    for fmt, expected in zip(("json", "csv", "human"), GKM_VERIFY_FAILURE_DIGESTS[name]):
        argv = ["gkm-verify", *graph_args, "--classes-file", "bad.json", "--format", fmt]
        code, out = run_cli(capsys, argv)
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == expected, (name, fmt)


def test_gkm_verify_class_label_ignores_the_path_spelling(capsys, tmp_path, monkeypatch):
    graph_args, cls = _perturbed_class("SL2 d=1")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(class_to_json(cls)))
    monkeypatch.chdir(tmp_path)
    for fmt in ("json", "csv", "human"):
        outs = {
            run_cli(capsys, ["gkm-verify", *graph_args, "--classes-file", spelling,
                             "--format", fmt])
            for spelling in ("bad.json", "./bad.json", str(path))
        }
        assert len(outs) == 1, fmt
    _, out = run_cli(capsys, ["gkm-verify", *graph_args, "--classes-file", str(path)])
    assert json.loads(out)["class"] == "bad.json"

# sha256 of stdout in each format, and the exit code, for the subcommands
# and formats that the digests above leave out.
REPORT_DIGESTS = {
    "jd-series --n 3 --d 2 --maxdeg 4": (
        0,
        {
            "json": "a8e320f171948a3ce17050f6a6aeef3a912e4079112283e3f5300511b76c59ff",
            "csv": "b2ebe7617ca00272966a6bcf4a46a6f71b6de8bdb97ff4610d32827fb89d677f",
            "human": "2a307eef1edd08f1c560d566d6dc70ba286b4ae2c0fe63a2a7980c0595f12d94",
        },
    ),
    "catalan --n 3": (
        0,
        {
            "json": "648e8a760674d6b5ded39ceb528628eda78237179bde2b2ce41a73d14f94d910",
            "csv": "c6f6f5d8529d8e3fb0b2114b7920bff86f7965323c8c837672f09a87ad72edaa",
            "human": "45d9df71119a4ac3271ff2aac15445753bb55c6e993b25320b5f7eb2c2daf035",
        },
    ),
    "catalan --n 3 --method vanishing": (
        0,
        {
            "json": "132391a7cd4adb8aa76f0dc747702e08c8cc61fd317a002fc1e0b739b5881289",
            "csv": "c6f6f5d8529d8e3fb0b2114b7920bff86f7965323c8c837672f09a87ad72edaa",
            "human": "45d9df71119a4ac3271ff2aac15445753bb55c6e993b25320b5f7eb2c2daf035",
        },
    ),
    "freeness --n 3 --maxdeg 4": (
        0,
        {
            "json": "a4437092143d2dcedb4494c87f7a8631dfc46c8099a0dffcb5a401e4f8d0a015",
            "csv": "cf31d8f2812a9e385982bb48702078e0619ba46b0d91aca5b6e16fb9e6808f19",
            "human": "62cdc97465872806f223f38950ba494066778c1d24908ddeb393df53dc202914",
        },
    ),
    "gkm-graph --group SL2 --d 2": (
        0,
        {
            "json": "896033db6423b88aa9b6c0d1d8a5808df71e9a68b241d6c8734802f8361995d1",
            "csv": "05857f8b2fb5e6a3b12ff2bf254229156f83599366793932cac6954ef914a589",
            "human": "d3e709c0b0c0d6eb576a584e097e2b0c0181aff52782b51f1875a1c3cca8df70",
            "dot": "7362ee4c128f118b3be455de2f50b27046e5bea3e6a2a33c0b44853b3e80b734",
        },
    ),
    "gkm-graph --group FLAG": (
        0,
        {
            "json": "70e4a597e26d7f412780028df5f1bf48d5585dfbad297ac2b1d44cd4cf7906f4",
            "csv": "31a96e3329fbef33fc81034525e68ca2757af629eb8c055efb220f228acd45ef",
            "human": "91e68437d812182f4eaf2cacdd8abec54b98db7ab78a61b277f3f88dae0b84fc",
            "dot": "53934844b7efe0b992934d010a3249de257fbb0beedc3679ab327a9854292c93",
        },
    ),
    "gkm-verify --group SL2 --d 2 --class b0": (
        0,
        {
            "json": "ac08eaedb11c1682d07c80d7b4d8c69ab3c7b9cbc07fc0a11c2a28c193f323be",
            "csv": "24fad301b0b840e66002a38032a8c94c5f2827f1373435b8c81b8d377cd1ff2b",
            "human": "0e15f4c1a0030438a7adfc00d24dcc98d8ef3a46cbf9f4ba0aa50545cec42508",
        },
    ),
    "ordinary-quotient --group GL2 --window=0:1": (
        0,
        {
            "json": "510f6052d6135d6e2d36f07489b4542855279201dc35f4aa067d5a6f37ec20be",
            "csv": "97126813667fbe7cb6d527b212a1650fc8fbdf9dc7f814be10533a3bbc102fa0",
            "human": "a18cdda4a32db7e7a7e2612f73a1fbc8876c6d7b9e2eb99067875605f107e79d",
        },
    ),
    "ordinary-quotient --group B2 --window=0:1": (
        0,
        {
            "json": "4a7271f5c7b22b475b2dcc9702f667f893d068770bf71189c97e08ac3ae474a1",
            "csv": "903b342e60abcf41e8283d5198a9337c7fc336538449b5c5cd3d6ee3d6d05e95",
            "human": "842a4af13b4665013805fb3b3458245540170bb879dd42be328f1f3828e63fe2",
        },
    ),
    "flag-rank1 --window 0:3": (
        0,
        {
            "json": "811792b8c62a03e3e67643e2951e1ba958d5171f6b7c626e19bb62be6d7fca14",
            "csv": "1533c22fa458522bd8961c3d75a8309b0ad9de4cfbc0e2014b5ad8f88650e0ad",
            "human": "ba7c539204a88720dd787356baca8ce95b9a73f82559cec7a9b3326ddeed136e",
        },
    ),
    # The slice tables that jd-series and catalan read, by both methods.
    "jd-series --n 3 --d 2 --maxdeg 8": (
        0,
        {
            "json": "430cdcceb08ce61b7ad2ca45f35b940ccc03d85444eaff9ff7ac9bc7b5ec6e3d",
            "csv": "bf8e5cdc11028483b6a25c83bf8e3e7d3bff14313eee8b1ecb67757cfe6e920d",
        },
    ),
    "jd-series --n 3 --d 2 --maxdeg 8 --method vanishing": (
        0,
        {
            "json": "b002c2db600bc70cf252765111878d0f59db046106ff5de4536b48d6804ded4f",
            "csv": "bf8e5cdc11028483b6a25c83bf8e3e7d3bff14313eee8b1ecb67757cfe6e920d",
        },
    ),
    "jd-series --n 4 --d 1 --maxdeg 5": (
        0,
        {
            "json": "e036353970db606f2062fa31f269b6bd17b68a7093ad33010498f1b6e5c84512",
            "csv": "fe36fcaf4aaf3b6063f138791684113af3451a4a04da0054ab7899528d913c94",
        },
    ),
    "jd-series --n 2 --d 0 --maxdeg 3": (
        0,
        {
            "json": "6a776ab0c9c5c0231adc0a0cf7b48d9924dc96b46b2567acc64fabb15e262230",
            "csv": "005787fd8715d5690da40a93bf631b98c6f5cafb4d90381f16ffa5c10644bfdc",
        },
    ),
    "catalan --n 4": (
        0,
        {
            "json": "7cd0d48ca693a577bfd396771a407fa162c33b107e55cab1f69ca0440234f84f",
            "csv": "c31a35e7b052259dd6743cec47defb16607e2d1114b10ffdc14d909d9752c078",
        },
    ),
    "catalan --n 4 --method vanishing": (
        0,
        {
            "json": "63fbfaccd10267470b49f6320a6172a01c52beec8b6b50a64b77d8cc6c8233bb",
            "csv": "c31a35e7b052259dd6743cec47defb16607e2d1114b10ffdc14d909d9752c078",
        },
    ),
    # freeness by both methods, and the n = 4 jd-series table by vanishing.
    "freeness --n 3 --maxdeg 8": (
        0,
        {
            "json": "2da4ed3ade927a85cfcec182d26b919cbe3d000d9a5594bc218ecc495dc6bd82",
            "csv": "cf31d8f2812a9e385982bb48702078e0619ba46b0d91aca5b6e16fb9e6808f19",
            "human": "62cdc97465872806f223f38950ba494066778c1d24908ddeb393df53dc202914",
        },
    ),
    "freeness --n 3 --maxdeg 8 --method vanishing": (
        0,
        {
            "json": "2da4ed3ade927a85cfcec182d26b919cbe3d000d9a5594bc218ecc495dc6bd82",
            "csv": "cf31d8f2812a9e385982bb48702078e0619ba46b0d91aca5b6e16fb9e6808f19",
            "human": "62cdc97465872806f223f38950ba494066778c1d24908ddeb393df53dc202914",
        },
    ),
    "freeness --n 3 --d 2 --maxdeg 6": (
        0,
        {
            "json": "bb67e9dc88414debd46ddd9a8f09abf7e4e3afc3279a7161a61d1b3a42ea9e5b",
            "csv": "cf31d8f2812a9e385982bb48702078e0619ba46b0d91aca5b6e16fb9e6808f19",
            "human": "62cdc97465872806f223f38950ba494066778c1d24908ddeb393df53dc202914",
        },
    ),
    "freeness --n 3 --d 2 --maxdeg 6 --method vanishing": (
        0,
        {
            "json": "bb67e9dc88414debd46ddd9a8f09abf7e4e3afc3279a7161a61d1b3a42ea9e5b",
            "csv": "cf31d8f2812a9e385982bb48702078e0619ba46b0d91aca5b6e16fb9e6808f19",
            "human": "62cdc97465872806f223f38950ba494066778c1d24908ddeb393df53dc202914",
        },
    ),
    "freeness --n 4 --d 1 --maxdeg 5": (
        0,
        {
            "json": "50faab91a5d1c987d5857c5ed8cc491e1701a41912f85af69091009421f9909a",
            "csv": "2d1d970a9f0bfae23e6737d2ddf8637afdb15d0e97e50ab00e37d947b5798b3a",
            "human": "0e9bee4ffc5fab737cde888c140879ddf0dbd0e302fe7b0a0052464d8c71f86a",
        },
    ),
    "freeness --n 4 --d 1 --maxdeg 5 --method vanishing": (
        0,
        {
            "json": "50faab91a5d1c987d5857c5ed8cc491e1701a41912f85af69091009421f9909a",
            "csv": "2d1d970a9f0bfae23e6737d2ddf8637afdb15d0e97e50ab00e37d947b5798b3a",
            "human": "0e9bee4ffc5fab737cde888c140879ddf0dbd0e302fe7b0a0052464d8c71f86a",
        },
    ),
    "freeness --n 4 --d 2 --maxdeg 10": (
        0,
        {"json": "86acaaebdca0b1fce54b1b81b420278a7b3604cf4098f3fe2b0dc1ce87548f62"},
    ),
    "freeness --n 4 --d 2 --maxdeg 10 --method vanishing": (
        0,
        {"json": "86acaaebdca0b1fce54b1b81b420278a7b3604cf4098f3fe2b0dc1ce87548f62"},
    ),
    "freeness --n 2 --d 0 --maxdeg 3": (
        0,
        {
            "json": "b004bf1a70bc55aada47e728e4e5518daf51112e376c2bb5b666532694b2c932",
            "csv": "4d44e34b9e1131ccc552a48ae454fd31154c725d88a0797ebd935124dff836b9",
            "human": "3257a45011db0ad4526894a2f4cbec1fd760df776f2f97ed39fff3ea81d5ae6e",
        },
    ),
    "freeness --n 2 --d 0 --maxdeg 3 --method vanishing": (
        0,
        {
            "json": "b004bf1a70bc55aada47e728e4e5518daf51112e376c2bb5b666532694b2c932",
            "csv": "4d44e34b9e1131ccc552a48ae454fd31154c725d88a0797ebd935124dff836b9",
            "human": "3257a45011db0ad4526894a2f4cbec1fd760df776f2f97ed39fff3ea81d5ae6e",
        },
    ),
    "jd-series --n 4 --d 1 --maxdeg 5 --method vanishing": (
        0,
        {
            "json": "8936ff9ba9febb5c6200032ba50fc8010b292d1a188298c00a4c652dddf9716c",
            "csv": "fe36fcaf4aaf3b6063f138791684113af3451a4a04da0054ab7899528d913c94",
            "human": "602ef730ef519522b9a3328fae38d369677d5b5e1de997be797efd660af08470",
        },
    ),
}


# The same for the relation quotients at k = 2 and at non-unit pairings:
# the curve quotient at order 12 and the lattice quotient of SL3, A1xA1
# and B2.
RELATION_DIGESTS = {
    "conjecture-check --n 2 --d 1 --order 12": (
        0,
        {
            "json": "c6925e2cdc2284f2b25353d740b2175a857676b8167d888c9870a4dcb50e0c03",
            "csv": "0cf9089b9d3efc028a31403863e26eee7e728fdde53e6c7c03766e46d190884d",
            "human": "b16cc5cdaf5820174b6454feb8b547345dfd695494709ab20dbdab2d4605db1a",
        },
    ),
    "conjecture-check --n 3 --d 1 --order 12": (
        0,
        {
            "json": "55cded48acb925ddc231529bc7dece108157296b3bd144f6c093d2e1763b1713",
            "csv": "77a747493e615fb584fd9506c717f3d0a2c88038392ffbb8d7a192e25eef87dd",
            "human": "17ab34ffc116a9e0e62a9d73a419fa3c014ed1f17f2aa292b098812aa6baf64a",
        },
    ),
    "conjecture-check --n 2 --d 2 --order 12": (
        0,
        {
            "json": "12987da7c47536fe0ff13e8447948d212dcb7b035f2ad4981a35ab5a396a8def",
            "csv": "a42e33e9430cdd003e92901a938929fa163b23a45590959df83375ad0552272a",
            "human": "ed612c4f0ac8c825c0035824591a05e813ee365429e177f7a9ad13f9073ad7b7",
        },
    ),
    "conjecture-check --n 3 --d 1 --order 16": (
        0,
        {
            "json": "a15a8e4582834ce402cefb2bf6b98e338078fe1b9651508641f487bf47702124",
            "csv": "cc7c7995896d44514fa3f04032da1b3207a44cba52ad01a29ceb25863cf20595",
            "human": "a6312a49dc96040b8ae6dcdbf91d20bbf83d5fdff4e446bfa39352dc3119bb1e",
        },
    ),
    "conjecture-check --n 2 --d 2 --order 16": (
        0,
        {
            "json": "d01737b4b36852e2d9abe86f17bba64710c76caf2e090ecf18a266285a76acc7",
            "csv": "6a9258d519978d00d2d6361c4d7ea6df89edf3f80ec2136ac3a525b3257f3d54",
            "human": "753a13104e822b1bf4589cfc10b2b919b614cb2a7a2e78b95e499f7c868e5ab9",
        },
    ),
    "ordinary-quotient --group SL3 --ydeg 2 --window 0:1": (
        0,
        {
            "json": "534a3410a79f6614e397fff7619ba4063321613d121cdfeab98fa12262d0108c",
            "csv": "69d6250df73804b6a9823915fe685f754ca75d93bc3f98a72ea367819b265bd7",
            "human": "c69b94776e4c7391b1f728a7a9812bab47b262e31127af67cd4d5f7ea28acf89",
        },
    ),
    "ordinary-quotient --group A1xA1 --d 2 --ydeg 3 --window 0:2": (
        0,
        {
            "json": "fb60ec412da8c311191c3452eaf08d0087f915f88b6fd953ee402025486285e0",
            "csv": "32ff8767715b7fad0f481e0f816a2d4288c6c5cd0798085f50ac7fb706ae3ee8",
            "human": "e8ea2cac39e32347878a9a35bc8fffd48f61743a00053fbd5f1731f78bdbfb17",
        },
    ),
    "ordinary-quotient --group B2 --d 2 --ydeg 3 --window 0:1": (
        0,
        {
            "json": "710b4412610ea7de74908c6db673ab34f2d5a9368275b6db285b72cf1827b5a2",
            "csv": "55fa64dd00e4bdbb990b86203135281564d5b2af6aa662958b26eccc03c4b7f3",
            "human": "765580ce93d90d93145d3630d0e9b7a9dbf2c72a998a597e7e6c107275f0cc02",
        },
    ),
}


def _assert_pinned(capsys, command, expected_code, digests):
    for fmt, expected in digests.items():
        code, out = run_cli(capsys, command.split() + ["--format", fmt])
        assert code == expected_code, (command, fmt)
        assert hashlib.sha256(out.encode()).hexdigest() == expected, (command, fmt)


@pytest.mark.parametrize(
    "argv, message",
    [
        ("--n 2 --d 1 --order -1", "order must be >= 0, got -1"),
        ("--n 1 --d -1 --order -1", "order must be >= 0, got -1"),
        ("--n 1", "no curve series pinned for (n, d) = (1, 1)"),
        ("--n 2 --d 0", "no curve series pinned for (n, d) = (2, 0)"),
        ("--n 2 --d -1", "no curve series pinned for (n, d) = (2, -1)"),
    ],
)
def test_conjecture_check_rejections_keep_their_order(capsys, argv, message):
    # the order is checked first, then the pinned curve, then the power
    assert cli.main(["conjecture-check", *argv.split()]) == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"gkmslice: error: {message}\n")


@pytest.mark.parametrize("command", list(REPORT_DIGESTS))
def test_report_stdout_and_exit_code_are_pinned(capsys, command):
    _assert_pinned(capsys, command, *REPORT_DIGESTS[command])


@pytest.mark.parametrize("command", list(RELATION_DIGESTS))
def test_relation_stdout_and_exit_code_are_pinned(capsys, command):
    _assert_pinned(capsys, command, *RELATION_DIGESTS[command])


@pytest.mark.parametrize("fmt", ["json", "csv", "human", "dot"])
def test_output_file_holds_the_stdout_bytes(capsys, tmp_path, fmt):
    commands = ["gkm-graph --group FLAG"]
    if fmt != "dot":
        commands += ["catalan --n 2", "gkm-verify --group SL2 --class b0", "flag-rank1"]
    for command in commands:
        argv = command.split() + ["--format", fmt]
        code, out = run_cli(capsys, argv)
        path = tmp_path / f"report.{fmt}"
        assert run_cli(capsys, argv + ["--output", str(path)]) == (code, "")
        assert path.read_bytes() == out.encode(), (command, fmt)


@pytest.mark.parametrize("key", list(curves.CURVES))
def test_curve_spellings_resolve_to_one_catalogue_entry(capsys, key):
    n, dn = key
    curve = curves.CURVES[key]
    by_key = run_cli(capsys, ["msv", "--curve", f"{n},{dn}"])
    assert by_key == run_cli(capsys, ["msv", "--curve", curve.name])
    assert json.loads(by_key[1])["curve"] == curve.name
    assert dn % n == 0
    name, series = curves.reference_series(n, dn // n)
    assert name == curve.name and series == curve.series()
    if curve.link is None:
        return
    link = f"T({n},{dn})"
    for spelling in (link, f"T{n}{dn}"):
        code, out = run_cli(capsys, ["compare-knot", "--link", spelling])
        assert code == 0 and json.loads(out)["link"] == link
    rejected = f"T{n},{dn}"
    assert cli.main(["compare-knot", "--link", rejected]) == 64
    assert f"unknown link {rejected!r} (use T24 or T33)" in capsys.readouterr().err
    with pytest.raises(ValueError):
        curves.knot_compare(rejected)
    report = curves.knot_compare(link)
    assert report.ok
    expected = curves.knot_substitution(curves.punctual_series(curve.series(), n))
    assert report.punctual == expected


def test_internal_error_exits_70_with_traceback(capsys, monkeypatch):
    def broken(n, method="spanning"):
        raise RuntimeError("broken handler")

    monkeypatch.setattr(cli.arrangement, "catalan_quotient", broken)
    code = cli.main(["catalan", "--n", "2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 70
    assert "Traceback" in captured.err
    assert "RuntimeError: broken handler" in captured.err
