"""CLI subcommands, exit codes, and output stability."""

import json
import os

import pytest

from vknot.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bracket_unknot(capsys):
    code, out, _ = run(capsys, "bracket", "U")
    assert code == 0 and out.strip() == "1"


def test_bracket_unreduced(capsys):
    code, out, _ = run(capsys, "bracket", "U", "--convention", "unreduced")
    assert code == 0 and out.strip() == "-A^2 - A^-2"


def test_bracket_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "bracket", "O1+U1-")
    assert code == 2
    assert "sign mismatch" in err


def test_jones_kishino_json(capsys):
    code, out, _ = run(capsys, "jones", "--catalog", "kishino", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"0": 1}


def test_fpoly_trefoil(capsys):
    code, out, _ = run(capsys, "fpoly", "--catalog", "trefoil", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"-4": 1, "-12": 1, "-16": -1}


def test_genus_classical(capsys):
    code, out, _ = run(capsys, "genus", "O1+U2+O3+U1+O2+U3+")
    assert code == 0 and out.strip() == "0"


def test_genus_kishino(capsys):
    code, out, _ = run(capsys, "genus", "--catalog", "kishino")
    assert code == 0 and out.strip() == "2"


def test_certify_kishino(capsys):
    code, out, _ = run(capsys, "certify", "--catalog", "kishino")
    assert code == 0 and out.strip() == "NonClassical(2)"


def test_certify_inconclusive_exits_zero(capsys):
    code, out, _ = run(capsys, "certify", "--catalog", "trefoil")
    assert code == 0 and out.strip() == "Inconclusive"


def test_certify_p_family(capsys):
    code, out, _ = run(capsys, "certify", "--catalog", "p_family", "--n", "2")
    assert code == 0 and out.strip() == "NonClassical(2)"


def test_certify_json_schema(capsys):
    code, out, _ = run(capsys, "certify", "--catalog", "virtual_trefoil", "--format", "json")
    obj = json.loads(out)
    assert obj["verdict"] == "NonClassical" and obj["genus"] == 1


def test_surface_bracket_json(capsys):
    code, out, _ = run(capsys, "surface-bracket", "--catalog", "virtual_trefoil", "--format", "json")
    obj = json.loads(out)
    assert obj["convention"] == "unreduced"
    assert obj["genus"] == 1
    assert obj["entries"]


def test_tangle_expand_single_crossing(capsys):
    code, out, _ = run(capsys, "tangle-expand", "B1O1+B3;B2U1+B4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"(1-4)(2-3)": {"1": 1}, "(1-2)(3-4)": {"-1": 1}}


def test_tangle_expand_bad_input(capsys):
    code, _, err = run(capsys, "tangle-expand", "B1O1+")
    assert code == 2 and "bad tangle" in err


def test_virtualize_report(capsys):
    code, out, _ = run(capsys, "virtualize-report", "--catalog", "trefoil", "--crossing", "1", "--format", "json")
    obj = json.loads(out)
    assert obj["verdict"] == "NonClassical(1)"


def test_virtualize_report_default_crossing(capsys):
    code, out, _ = run(capsys, "virtualize-report", "--catalog", "linkL", "--format", "json")
    obj = json.loads(out)
    assert obj["verdict"] == "Undetected" and obj["alpha"] == {}


def test_double_virtualize_report(capsys):
    code, out, _ = run(capsys, "double-virtualize-report", "--catalog", "section5_knot", "--format", "json")
    obj = json.loads(out)
    assert obj["verdict"] == "NonClassical(2)"
    assert obj["tangle_closure_consistent"] is True


def test_catalog_list_and_show(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0 and "kishino" in out.split()
    code, out, _ = run(capsys, "catalog", "show", "trefoil", "--format", "json")
    assert json.loads(out)["code"] == "O1+U2+O3+U1+O2+U3+"


def test_catalog_show_unknown(capsys):
    code, _, err = run(capsys, "catalog", "show", "nope")
    assert code == 2 and "unknown catalog entry" in err


def test_max_crossings_env(capsys, monkeypatch):
    monkeypatch.setenv("VKNOT_MAX_CROSSINGS", "2")
    code, _, err = run(capsys, "bracket", "--catalog", "trefoil")
    assert code == 2 and "VKNOT_MAX_CROSSINGS" in err


def test_byte_identical_json_and_parallel(capsys):
    outs = set()
    for par in ("1", "4"):
        code, out, _ = run(capsys, "certify", "--catalog", "kishino", "--format", "json", "--parallel", par)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, "bracket")
    assert code == 2
    code, _, err = run(capsys, "bracket", "U", "--catalog", "trefoil")
    assert code == 2


@pytest.mark.parametrize("value", ["0", "-1"])
def test_parallel_below_one_exits_2(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--catalog", "kishino", "--parallel", value])
    assert exc.value.code == 2
    assert "--parallel" in capsys.readouterr().err


def test_tangle_expand_respects_crossing_cap(capsys, monkeypatch):
    monkeypatch.setenv("VKNOT_MAX_CROSSINGS", "1")
    code, out, err = run(capsys, "tangle-expand", "B1O1+U2-B3;B2U1+O2-B4")
    assert code == 2 and out == ""
    assert "error: 2 crossings exceeds VKNOT_MAX_CROSSINGS=1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["genus", "--catalog", "kishino", "--parallel", "2"],
        ["certify", "--catalog", "kishino", "--convention", "reduced"],
        ["tangle-expand", "B1O1+B3;B2U1+B4", "--parallel", "2"],
        ["jones", "--catalog", "kishino", "--parallel", "2"],
        ["bracket", "--catalog", "kishino", "--parallel", "2"],
    ],
    ids=["genus-parallel", "certify-convention", "tangle-expand-parallel", "jones-parallel", "bracket-parallel"],
)
def test_unhonoured_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_virtualize_report_virtual_complement(capsys):
    # the tangle complementary to crossing 1 is virtual: alpha and beta are
    # not Laurent polynomials, the rest of the report stands
    code, out, _ = run(capsys, "virtualize-report", "--catalog", "virtual_trefoil", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["alpha"] is None and rep["beta"] is None
    assert rep["verdict"] == "Undetected"
    assert rep["bracket_K"] == {"-4": -1, "0": 1, "2": 1}
    assert rep["bracket_Ks"] == rep["bracket_Kv"] == {"0": 1}
    assert rep["zerocor"] == "NeitherZero"
    assert rep["certificate"]["verdict"] == "Inconclusive"


@pytest.mark.parametrize(
    "argv",
    [
        ["virtualize-report", "--crossing", "1"],
        ["double-virtualize-report", "--crossings", "1,3"],
    ],
    ids=["virtualize", "double-virtualize"],
)
def test_reports_on_p_family(capsys, argv):
    code, out, _ = run(capsys, *argv, "--catalog", "p_family", "--n", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["diagram"] == "O1+O5+U6-U2-O3+U4-O2-O6-U5+U1+O4-U3+"
    code, out, err = run(capsys, argv[0], "--catalog", "p_family", "--n", "0")
    assert code == 2 and out == ""
    assert "--crossing" in err
