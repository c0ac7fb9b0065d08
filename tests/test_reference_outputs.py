"""Every op of the benchmark's workloads, run through `vknot.cli.main` in
process, prints exactly what perfbench/reference.json records: its exit
code and the SHA-256 of its stdout.

perfbench/workloads.py and perfbench/reference.json are read, never
changed or run as scripts.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from vknot.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

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
