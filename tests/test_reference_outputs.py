"""Every op of the benchmark's workloads, run through `vknot.cli.main` in
process, prints exactly what perfbench/reference.json records: its exit
code and the SHA-256 of its stdout.  So do `certify`, `surface-bracket`,
`jones`, `bracket` and `tangle-expand` on the seeded random codes and
tangles of tests/golden_outputs.json.

perfbench/workloads.py and perfbench/reference.json are read, never
changed or run as scripts.  `python tests/test_reference_outputs.py`
rewrites tests/golden_outputs.json from the code it runs.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import random
from pathlib import Path

import pytest
from randgen import braid_closure, random_braid_word, random_gauss_code, random_tangle

from vknot.cli import main
from vknot.diagram import format_gauss_code, parse_gauss_code, virtualize_crossing
from vknot.surface import genus
from vknot.tangle import format_tangle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"

#: Ops that reference.json records as raised, which now exit 0, with the
#: digest of their output.  `virtualize-report` on the virtual trefoil
#: raised NoLaurentSolutionError when reference.json was made; it now
#: prints alpha and beta as null with an `Undetected` verdict.
PINNED = {
    "virtualize-report --catalog virtual_trefoil --format json": (
        "exit=0 sha256=d88a482e0c9016f713bbfdc3d3d500edec74c54addbbc607dc908c69c205c16b"
    ),
}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return f"exit={code} sha256={hashlib.sha256(out.getvalue().encode()).hexdigest()}"


@pytest.mark.parametrize("workload", ["family_certify", "random_certify", "planar_jones", "catalog_reports"])
def test_workload_ops_match_reference(workload):
    reference = json.loads((PERFBENCH / "reference.json").read_text())[workload]
    argvs = {" ".join(argv): argv for argv, _ in _workloads().all_ops(workload)}
    assert set(argvs) == set(reference)
    expected = {}
    for key in argvs:
        if key in PINNED:
            assert reference[key].startswith("raise=") or reference[key] == PINNED[key], key
            expected[key] = PINNED[key]
        else:
            assert not reference[key].startswith("raise="), f"unpinned raise record: {key}"
            expected[key] = reference[key]
    assert [key for key, argv in argvs.items() if _digest(argv) != expected[key]] == []


def _golden_ops() -> list[list[str]]:
    """`certify` and `surface-bracket` in JSON on 200 distinct seeded random
    codes of 1-10 crossings and 1-3 components, then `certify` on 40 of
    11-13 crossings and Carter genus at least 3.  The witnesses of a
    certificate and the keys of a surface bracket are coordinates in the
    symplectic basis that `surface.MapHomology` builds, and the benchmark's
    reference covers only about 110 diagrams for these commands.  On most of
    the larger codes the per-torus scan is satisfied before it has read
    every class of the d-image, so they pin the witnesses and ranks that a
    scan stopping early must still give.

    Then `jones` and `bracket` on 60 codes of 12-18 crossings and 1-3
    components, and `tangle-expand` on 40 seeded random tangles of 0-9
    crossings and 2-8 boundary points: the planar sweep on codes beyond the
    benchmark's pools, and the sweep whose terminal ends (the ~b of
    boundary end b) stay open to the end."""
    rng = random.Random(20261019)
    codes: dict[str, None] = {}
    while len(codes) < 200:
        n = rng.randint(1, 10)
        codes[random_gauss_code(rng, n, rng.randint(1, min(3, 2 * n)))] = None
    ops = [[cmd, code, "--format", "json"] for code in codes for cmd in ("certify", "surface-bracket")]
    rng = random.Random(20261020)
    large: dict[str, None] = {}
    while len(large) < 40:
        code = random_gauss_code(rng, rng.randint(11, 13), rng.randint(1, 3))
        if genus(parse_gauss_code(code)) >= 3:
            large[code] = None
    ops += [["certify", code, "--format", "json"] for code in large]
    rng = random.Random(20261021)
    planar: dict[str, None] = {}
    while len(planar) < 60:
        planar[random_gauss_code(rng, rng.randint(12, 18), rng.randint(1, 3))] = None
    ops += [[cmd, code, "--format", "json"] for code in planar for cmd in ("jones", "bracket")]
    rng = random.Random(20261022)
    tangles: dict[str, None] = {}
    while len(tangles) < 40:
        tangles[format_tangle(random_tangle(rng, rng.randint(0, 9), rng.choice((2, 4, 6, 8))))] = None
    ops += [["tangle-expand", code, "--format", "json"] for code in tangles]
    rng = random.Random(20261023)
    braids: dict[str, None] = {}
    while len(braids) < 20:
        strands = rng.randint(2, 5)
        d = parse_gauss_code(braid_closure(random_braid_word(rng, strands, rng.randint(10, 14)), strands))
        virtual = virtualize_crossing(d, rng.choice(d.crossing_ids))
        braids.update(dict.fromkeys([format_gauss_code(d), format_gauss_code(virtual)]))
    return ops + [["surface-bracket", code, "--format", "json"] for code in braids]


def test_random_codes_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    argvs = {" ".join(argv): argv for argv in _golden_ops()}
    assert list(argvs) == list(golden)
    assert [key for key, argv in argvs.items() if _digest(argv) != golden[key]] == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({" ".join(argv): _digest(argv) for argv in _golden_ops()}, indent=1) + "\n")
