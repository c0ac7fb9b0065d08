"""CLI subcommands, exit codes, and output stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from randgen import GENUS_THREE_CODE

import vknot.cli as cli
import vknot.diagram as diagram
import vknot.surface as surface
from vknot.analysis import certify, surface_bracket
from vknot.catalog import catalog, catalog_p_family
from vknot.cli import main
from vknot.diagram import format_gauss_code, parse_gauss_code


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
    code, _, err = run(capsys, "bracket", ";O1+U1+")
    assert code == 2 and "empty component" in err


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
    code, _, err = run(capsys, "tangle-expand", "B1O1+B3;B2U1+B4;")
    assert code == 2 and "bad tangle: empty component" in err


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


@pytest.mark.parametrize("pair,has_tangle", [("1,3", True), ("3,1", True), ("2,4", False), ("1,4", False)])
def test_catalog_tangle_only_for_its_own_pair(capsys, pair, has_tangle):
    # section5_knot's tangle is the complement of crossings 1 and 3, in
    # either order, and of no other pair
    code, out, _ = run(
        capsys, "double-virtualize-report", "--catalog", "section5_knot", "--crossings", pair, "--format", "json"
    )
    obj = json.loads(out)
    assert code == 0 and obj["crossings"] == [int(x) for x in pair.split(",")]
    assert ("tangle_expansion" in obj) == ("tangle_closure_consistent" in obj) == has_tangle
    if has_tangle:
        assert obj["tangle_closure_consistent"] is True


def test_double_virtualize_report_refuses_an_equal_pair(capsys):
    code, out, err = run(capsys, "double-virtualize-report", "--catalog", "section5_knot", "--crossings", "1,1")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: --crossings expects two distinct ids, got 1 twice"]


def test_catalog_list_and_show(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0 and "kishino" in out.split()
    code, out, _ = run(capsys, "catalog", "show", "trefoil", "--format", "json")
    assert json.loads(out)["code"] == "O1+U2+O3+U1+O2+U3+"


def test_catalog_show_unknown(capsys):
    code, _, err = run(capsys, "catalog", "show", "nope")
    assert code == 2 and "unknown catalog entry" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["catalog", "list", "trefoil"], "catalog list takes no entry name, got 'trefoil'"),
        (["catalog", "show"], "catalog show requires an entry name"),
        (["catalog", "show", "--format", "json"], "catalog show requires an entry name"),
    ],
    ids=["list-with-name", "show-without-name", "show-without-name-json"],
)
def test_catalog_refuses_a_misplaced_or_missing_name(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "call",
    [
        lambda: certify(catalog("kishino")),
        lambda: main(["surface-bracket", "--catalog", "kishino", "--format", "json"]),
    ],
    ids=["certify", "surface-bracket"],
)
def test_one_carter_surface_per_call(capsys, monkeypatch, call):
    # the surface sum runs on the caller's SurfaceRep, so nothing rebuilds it
    built = []
    init = surface.SurfaceRep.__init__

    def counted_init(self, diagram):
        built.append(diagram)
        init(self, diagram)

    monkeypatch.setattr(surface.SurfaceRep, "__init__", counted_init)
    call()
    assert len(built) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: certify(catalog("kishino")),
        lambda: certify(catalog_p_family(2)),
        lambda: surface_bracket(surface.build_carter_surface(catalog("kishino"))),
    ],
    ids=["certify-kishino", "certify-p_family-2", "surface-bracket-genus-2"],
)
def test_one_crossing_rotation_per_call(monkeypatch, call):
    # the Carter surface, its refinement and the surface sweeps read the
    # StateTables the surface builds, so the arc ends are numbered once
    calls = []
    arc_ends = diagram.arc_ends

    def counted(*args):
        calls.append(args)
        return arc_ends(*args)

    binders = [
        name
        for name, module in sys.modules.items()
        if name.split(".")[0] == "vknot" and vars(module).get("arc_ends") is arc_ends
    ]
    for name in binders:
        monkeypatch.setattr(sys.modules[name], "arc_ends", counted)
    assert {"vknot.diagram", "vknot.bracket"} <= set(binders)
    call()
    assert len(calls) == 1


def test_max_crossings_env(capsys, monkeypatch):
    monkeypatch.setenv("VKNOT_MAX_CROSSINGS", "2")
    code, _, err = run(capsys, "bracket", "--catalog", "trefoil")
    assert code == 2 and "VKNOT_MAX_CROSSINGS" in err


def test_family_cap_is_checked_before_the_build(capsys, monkeypatch):
    # p_family(n) has 6 + 2n crossings, so a huge --n is refused without
    # building the diagram
    monkeypatch.delenv("VKNOT_MAX_CROSSINGS", raising=False)

    def refuse_build(n):
        raise AssertionError(f"p_family({n}) was built")

    monkeypatch.setattr(cli, "catalog_p_family", refuse_build)
    code, out, err = run(capsys, "bracket", "--catalog", "p_family", "--n", "1000000000")
    assert (code, out, err) == (2, "", "error: 2000000006 crossings exceeds VKNOT_MAX_CROSSINGS=20\n")


def _prepended_p_family_code(n):
    """The twist-family code as first built, each clasp's tail prepended."""
    toks = ["O1+", "U2-", "O3+", "U4-", "O2-", "U1+", "O4-", "U3+"]
    left, tail = [toks[0]], []
    for k in range(n + 1):
        a, b = 5 + 2 * k, 6 + 2 * k
        left += [f"O{a}+", f"U{b}-"]
        tail = [f"O{b}-", f"U{a}+"] + tail
    return "".join(left + toks[1:5] + tail + toks[5:])


def test_p_family_codes_are_unchanged():
    assert format_gauss_code(catalog_p_family(1)) == "O1+O5+U6-O7+U8-U2-O3+U4-O2-O8-U7+O6-U5+U1+O4-U3+"
    for n in range(21):
        expected = format_gauss_code(parse_gauss_code(_prepended_p_family_code(n)))
        assert format_gauss_code(catalog_p_family(n)) == expected, n


def test_json_is_byte_identical_across_runs(capsys):
    # the same bytes on every run
    outs = set()
    for cmd in ("certify", "surface-bracket"):
        for _ in range(2):
            code, out, _ = run(capsys, cmd, "--catalog", "kishino", "--format", "json")
            assert code == 0
            outs.add((cmd, out))
    assert len(outs) == 2


def test_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, "bracket")
    assert code == 2
    code, _, err = run(capsys, "bracket", "U", "--catalog", "trefoil")
    assert code == 2


def test_tangle_expand_respects_crossing_cap(capsys, monkeypatch):
    monkeypatch.setenv("VKNOT_MAX_CROSSINGS", "1")
    code, out, err = run(capsys, "tangle-expand", "B1O1+U2-B3;B2U1+O2-B4")
    assert code == 2 and out == ""
    assert "error: 2 crossings exceeds VKNOT_MAX_CROSSINGS=1" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["certify", "--catalog", "p_family", "--n", "-1"], "--n must be at least 0, got -1"),
        (["certify", "--catalog", "kishino", "--n", "2"], "--n applies only to --catalog p_family"),
        (["bracket", "O1+U1+", "--n", "0"], "--n applies only to --catalog p_family"),
        (["virtualize-report", "--catalog", "trefoil", "--n", "1"], "--n applies only to --catalog p_family"),
    ],
    ids=["negative", "catalog-entry", "inline-code", "report-catalog-entry"],
)
def test_family_index_is_refused_unless_it_applies(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("value", ["-5", "-1"])
def test_negative_crossing_cap_is_refused(capsys, monkeypatch, value):
    monkeypatch.setenv("VKNOT_MAX_CROSSINGS", value)
    for argv in (["bracket", "--catalog", "unknot"], ["tangle-expand", "B1O1+B3;B2U1+B4"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: VKNOT_MAX_CROSSINGS must be at least 0, got {value}\n")
    monkeypatch.setenv("VKNOT_MAX_CROSSINGS", "0")
    assert run(capsys, "bracket", "--catalog", "unknot") == (0, "1\n", "")
    code, _, err = run(capsys, "bracket", "--catalog", "kink")
    assert code == 2 and err == "error: 1 crossings exceeds VKNOT_MAX_CROSSINGS=0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["genus", "--catalog", "kishino", "--parallel", "2"],
        ["certify", "--catalog", "kishino", "--convention", "reduced"],
        ["tangle-expand", "B1O1+B3;B2U1+B4", "--parallel", "2"],
        ["jones", "--catalog", "kishino", "--parallel", "2"],
        ["bracket", "--catalog", "kishino", "--parallel", "2"],
        ["certify", "--catalog", "kishino", "--parallel", "2"],
        ["surface-bracket", "--catalog", "kishino", "--parallel", "2"],
    ],
    ids=[
        "genus-parallel",
        "certify-convention",
        "tangle-expand-parallel",
        "jones-parallel",
        "bracket-parallel",
        "certify-parallel",
        "surface-bracket-parallel",
    ],
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


def test_parser_is_built_once_and_reused(capsys):
    # one parser serves every call in the process; an argparse error or
    # --help in between leaves later calls unchanged
    from vknot.cli import build_parser

    assert build_parser() is build_parser()
    first = run(capsys, "certify", "--catalog", "kishino", "--format", "json")
    for argv, status in ((["certify", "--format", "xml"], 2), (["jones", "--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == status
        capsys.readouterr()
    assert run(capsys, "certify", "--catalog", "kishino", "--format", "json") == first
    assert run(capsys, "certify", "--catalog", "kishino") == (0, "NonClassical(2)\n", "")


SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args):
    """Run a fresh interpreter on this checkout's sources."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


@pytest.mark.parametrize(
    "argv",
    [["--catalog", "kishino"], ["--catalog", "p_family", "--n", "1"], [GENUS_THREE_CODE]],
    ids=["kishino", "p_family-1", "genus-3"],
)
def test_certify_under_python_O_is_byte_identical(argv):
    plain = _python("-m", "vknot.cli", "certify", *argv, "--format", "json")
    optimized = _python("-O", "-m", "vknot.cli", "certify", *argv, "--format", "json")
    assert plain.returncode == 0 and json.loads(plain.stdout)["verdict"] == "NonClassical"
    assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)


#: Class steps off by a factor, and a zero sum for a curve of nonzero class.
WRONG_STEPS = """
import vknot.analysis as analysis
from vknot.catalog import catalog
from vknot.surface import build_carter_surface

assert False, "asserts must be stripped"
class_steps = analysis._class_steps


def tripled_steps(rep):
    steps, width = class_steps(rep)
    return {join: 3 * x for join, x in steps.items()}, width


def zeroed_steps(rep):
    steps, width = class_steps(rep)
    return dict.fromkeys(steps, 0), width
"""

WALK_CHECKS = WRONG_STEPS + """
d = catalog("kishino")
rep = build_carter_surface(d)
rep.refined.join_side.popitem()
try:
    analysis._bracket_sum(rep)
except AssertionError as exc:
    print("refused:", exc)

for wrong_steps in (tripled_steps, zeroed_steps):
    analysis._class_steps = wrong_steps
    try:
        analysis._bracket_sum(build_carter_surface(d))
    except ArithmeticError as exc:
        print("refused:", exc)
"""


def test_walk_checks_raise_under_python_O():
    proc = _python("-O", "-c", WALK_CHECKS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == [
        "refused: state loop jumps between crossings",
        "refused: packed class sum disagrees with loop_homology",
        "refused: packed class sum disagrees with loop_homology",
    ]


#: The same wrong steps under `surface_bracket` at genus 1, where it sweeps
#: the d-image and checks its classes on traced states.
IMAGE_CHECKS = WRONG_STEPS + """
for wrong_steps in (tripled_steps, zeroed_steps):
    analysis._class_steps = wrong_steps
    try:
        analysis.surface_bracket(build_carter_surface(catalog("virtual_trefoil")))
    except ArithmeticError as exc:
        print("refused:", exc)
"""


def test_image_class_checks_raise_under_python_O():
    proc = _python("-O", "-c", IMAGE_CHECKS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == ["refused: packed class sum disagrees with loop_homology"] * 2
