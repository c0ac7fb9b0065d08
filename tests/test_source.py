"""Checks on the package source itself."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import vknot

SRC = Path(vknot.__file__).parent


def test_no_assert_statements():
    """Every check must survive `python -O`, which strips assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements under src/vknot: {found}"


#: Retired names, each with what replaced it, so that none comes back.
RETIRED_NAMES = {
    # the count format of the state sums, its Horner-rule expander and its
    # field reader: every state sum carries one packed polynomial per label
    "StateSum": "frontier.packed_fields",
    "expand": "frontier.read_packed",
    "_unpack": "frontier.read_packed",
    # the per-call class reader: the field bias is computed once per sweep
    "_unpack_class": "analysis._class_reader",
    # the field-reading closure and the per-torus scan run once per torus:
    # fields are biased and read apart, and one scan finds every torus's pair
    "field_reader": "frontier.SignedFields",
    "_crossing_pair": "analysis._crossing_pairs",
    # the state-by-state surface tracer, its curve memo and the 2^n Gray walk
    # with its tally: `analysis._bracket_sum` sweeps the full surface bracket
    # with the kernel of the d-image, and only `_CurveLabels` knows the
    # join-key layout
    "SurfaceState": "analysis._CurveLabels",
    "enumerate_surface_states": "analysis._CurveLabels",
    "_trace_state": "analysis._CurveLabels",
    "_CurveMemo": "analysis._CurveLabels",
    "join_bits": "analysis._CurveLabels",
    "_GrayWalk": "frontier.labelled_state_sum",
    "_gray_moves": "frontier.labelled_state_sum",
    "class_tuples": "analysis._relabel",
    "count_width": "frontier.packed_fields",
    "family_report": "certify(catalog_p_family(n))",
    # the depth sort of the cotree faces and the per-component form blocks:
    # faces are eliminated in reversed BFS order, and the form is written
    # once, from the walk around the tree
    "face_depth": "surface.MapHomology._process_component",
    "comp_faces": "surface.MapHomology._process_component",
    # the torus projection and its index error, which only a test called:
    # classes are read whole, or field by field from their packed ints
    "project_to_torus": "surface.HomologyClass.coords",
    "IndexOutOfRange": "surface.HomologyClass.coords",
    # the token generator, the pass tally of a reversed segment, the sign
    # flag every caller set and the crossing numbering only a test read:
    # one strand reader and one reversal rule serve Gauss codes and tangles
    "tokenize": "diagram.read_strands",
    "_pass_counts": "diagram.reverse_signs",
    "flip_sign": "diagram._replace_crossing",
    "crossing_index": "bracket.StateTables.joins",
    # the surface's own copy of the crossing rotation: `SurfaceRep` keeps the
    # diagram's StateTables, whose B-joins are the rotation, and the 2-2
    # matchings only tests named
    "crossing_rotation": "bracket.StateTables.joins",
    "IDENTITY_2_2": "tests/test_tangle.py IDENTITY_2_2",
    "CUPCAP_2_2": "tests/test_tangle.py CUPCAP_2_2",
    # the table-writing constructor of the refined map: `RefinedMap` writes
    # its tables into itself, in its own constructor
    "_from_tables": "surface.RefinedMap",
    # API only tests called, now in tests/oracle.py: the generic map the
    # refined map is checked against, the homology cycles, the skew-form and
    # Jones helpers and the matching test.  `SkewForm.pair` and
    # `SurfaceRep.map` left as well, but `pair` is a common local name and
    # `map` a builtin, so neither is listed.
    "CombinatorialMap": "tests/oracle.py CombinatorialMap",
    "fundamental_cycles": "tests/oracle.py fundamental_cycles",
    "_tree_path": "tests/oracle.py _tree_path",
    "intersection_number": "tests/oracle.py intersection_number",
    "BasisMismatch": "tests/oracle.py BasisMismatch",
    "det_int": "tests/oracle.py det_int",
    "standard_form": "tests/oracle.py standard_form",
    "determinant": "tests/oracle.py det_int",
    "is_unimodular": "tests/oracle.py is_unimodular",
    "jones_divisibility": "tests/oracle.py jones_divisibility",
    "is_noncrossing": "tests/oracle.py is_noncrossing",
    "support_is_noncrossing": "tests/oracle.py is_noncrossing",
    # wrappers whose callers call the code behind them
    "homology_basis": "SurfaceRep.homology",
    "cut_along_loop": "surface._cut_map",
    "signed_fields": "frontier.SignedFields",
    # the None-returning division, which only the 2x2 solver called: it
    # raises its own error from `laurent_divide_exact`'s
    "try_divide_exact": "tests/oracle.py try_divide_exact",
    # the homology's BFS parent table, which only tests read: the oracle
    # rebuilds it by the package's rule
    "_tree_parent_dart": "tests/oracle.py tree_parents",
    # the op-string congruence step, which also tracked the inverse, and the
    # boolean postcondition: the reduction updates the form and `change`
    # only, and reads the inverse off the product its check computes
    "_transform": "symplectic._swap, _negate and _add",
    "_check_standard": "symplectic._certified_inverse",
    # the genus switch between the two surface sums, which also returned
    # their layout: `surface_bracket` picks the sum, and `_surface_bracket`
    # reads the layout off `rep.tables`.  `SurfaceRep.free_loops` left as
    # well, but `diagram.free_loops` is the same live name, so it is not
    # listed.
    "_surface_sum": "analysis.surface_bracket",
    # the dict walk of the closure check's cycle counts: the check counts
    # them on partner arrays, and the walk is the reference
    "_union_cycles": "tests/oracle.py union_cycles",
}


def _identifiers(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.alias):
            yield node.lineno, node.asname or node.name.rpartition(".")[2]
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            yield node.lineno, node.arg


def test_no_retired_names():
    """Nothing under src/vknot defines, imports, uses or cites, as a
    `quoted` name in a docstring or comment, a name of RETIRED_NAMES."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text, str(path))
        found += [f"{path.name}:{line} {name}" for line, name in _identifiers(tree) if name in RETIRED_NAMES]
        found += [
            f"{path.name}:{text.count(chr(10), 0, m.start()) + 1} {m.group(0)}"
            for m in re.finditer(r"`(?:[\w.]+\.)?(\w+)`", text)
            if m.group(1) in RETIRED_NAMES
        ]
    assert not found, f"retired names under src/vknot: {found}"


def test_refined_map_alias_is_left_to_the_tracer():
    """`RefinedMap.map`, the map itself, is kept only for perfbench/tracing.py,
    which reads `rep.refined.map`: no code under src/vknot or tests reads
    `.map` off a `.refined`."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted([*SRC.glob("*.py"), *Path(__file__).parent.glob("*.py")])
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "map"
        and isinstance(node.value, ast.Attribute) and node.value.attr == "refined"
    ]
    assert not found, f"reads of the RefinedMap.map alias: {found}"


ROOT = Path(__file__).resolve().parents[1]


def _hooks() -> list[tuple[str, str, str]]:
    """(span, module, attribute path) of each function the benchmark's
    tracer wraps: `HOOKS`, read from perfbench/tracing.py as a literal; the
    file is neither imported nor run."""
    path = ROOT / "perfbench" / "tracing.py"
    (hooks,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["HOOKS"]
    ]
    return hooks


def test_perfbench_hooks_resolve():
    """Every function the benchmark's tracer wraps still exists in vknot, so
    a change that deletes or renames one shows here, not only in a traced run."""
    hooks = _hooks()
    missing = []
    for _, module, attr_path in hooks:
        # as the tracer resolves them: a method must be defined on its class
        target = importlib.import_module(module)
        for attr in attr_path.split("."):
            target = target.__dict__.get(attr) if isinstance(target, type) else getattr(target, attr, None)
        if not callable(target):
            missing.append(f"{module}.{attr_path}")
    assert hooks and not missing, f"hook targets absent: {missing}"


#: Public names that nothing but tests names, each kept for its reason.
UNCALLED_PUBLIC_NAMES = {
    # `certify`'s documented readout: the labels `certify` reads, with their
    # polynomials; the rational-span and destabilization bounds build on it
    "d_image_bracket",
}


def _public_definitions(tree: ast.Module, exported: set[str]) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of each public module-level function, class and
    assigned name, and of each public method of a module-level class not in
    `exported`."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name) and not t.id.startswith("_")]
            continue
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef) and node.name not in exported:
            found += [
                (f"{node.name}.{item.name}", item)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
            ]
    return found


def _name_counts(tree: ast.AST) -> Counter:
    """How often each name is read or assigned, or named as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _uncalled_public_names(
    trees: dict[str, ast.Module], exported: set[str], named_elsewhere: set[str], hooked: set[str]
) -> list[str]:
    """`module.qualname` of each of the `_public_definitions` of `trees`,
    keyed by module, that no Name or Attribute of `trees` names outside the
    definition itself, that is not in `named_elsewhere` and whose
    `module.qualname` is not in `hooked`; module-level names in `exported`
    pass."""
    counts = sum(map(_name_counts, trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree, exported):
            name = qualname.rpartition(".")[2]
            if qualname in exported or name in named_elsewhere or f"{module}.{qualname}" in hooked:
                continue
            if counts[name] == _name_counts(node)[name]:
                found.append(f"{module}.{qualname}")
    return found


def test_no_public_names_only_tests_call():
    """Every public function, class and module-level assigned name under
    src/vknot, and every public method of a class `vknot.__all__` does not
    export, is named by the package outside its own definition, by a demo
    or the benchmark, or is a hook of the benchmark's tracer: what only
    tests name belongs in the tests.  `vknot.__all__` and
    UNCALLED_PUBLIC_NAMES pass."""
    trees = {f"vknot.{path.stem}": ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    elsewhere = set()
    for path in sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]):
        elsewhere |= set(_name_counts(ast.parse(path.read_text(), str(path))))
    hooked = {f"{module}.{attr_path}" for _, module, attr_path in _hooks()}
    exported = set(vknot.__all__) | UNCALLED_PUBLIC_NAMES
    uncalled = _uncalled_public_names(trees, exported, elsewhere, hooked)
    assert elsewhere and hooked and not uncalled, f"public names only tests call: {uncalled}"
    # the scan sees each form of definition and use
    planted = {
        "vknot.a": ast.parse(
            "LIMIT = 3\nSIZE: int = LIMIT\n_HIDDEN = 4\n"
            "class Kept:\n    def m(self): return helper()\n    def unused(self): pass\n    def _p(self): pass\n"
            "def helper(): return Kept().m\ndef alone(): return alone()\ndef hooked(): pass\n"
            "class _Private:\n    def run(self): pass\n"
        ),
        "vknot.b": ast.parse(
            "def demoed(): pass\ndef public(): pass\nclass Exported:\n    def method(self): pass\nSHOWN = 5\n"
        ),
    }
    assert _uncalled_public_names(planted, {"public", "Exported"}, {"demoed", "SHOWN"}, {"vknot.a.hooked"}) == [
        "vknot.a.SIZE",
        "vknot.a.Kept.unused",
        "vknot.a.alone",
        "vknot.a._Private.run",
    ]


#: Stdlib modules no answer needs, each of which costs milliseconds of cold
#: start: `dataclasses` pulls in `inspect` (and with it `ast`, `dis` and
#: `tokenize`), `fractions` pulls in `decimal`.
HEAVY_MODULES = ("dataclasses", "fractions", "decimal", "inspect")

IMPORT_CHECK = f"""
import json, sys
heavy = {HEAVY_MODULES!r}
startup = {{m for m in heavy if m in sys.modules}}
found = []
for module in ("vknot.cli", "vknot"):
    __import__(module)
    found.append([module, [m for m in heavy if m in sys.modules and m not in startup]])
print(json.dumps([sys.modules["vknot"].__file__, found]))
"""


def test_import_loads_no_heavy_stdlib_modules():
    """A fresh `import vknot.cli`, then `import vknot`, loads none of
    HEAVY_MODULES beyond what interpreter startup already loaded: every CLI
    call is a new process and pays for every module on the import path."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", IMPORT_CHECK], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    origin, found = json.loads(proc.stdout)
    assert Path(origin).resolve().parent == src / "vknot"
    assert found == [["vknot.cli", []], ["vknot", []]]


#: The only environment variable the package reads: the CLI's crossing cap.
ALLOWED_ENVIRONMENT_READS = {("cli.py", "VKNOT_MAX_CROSSINGS")}
ENVIRONMENT_NAMES = ("environ", "environb", "getenv", "getenvb")


def _environment_reads(tree: ast.AST) -> list[tuple[int, str | None]]:
    """(line, variable name) of each read of the process environment
    through `os`; the name is None unless it is a string literal given to
    `os.getenv`, `os.environ.get` or `os.environ[...]`."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [(node.lineno, None) for alias in node.names if alias.name in ENVIRONMENT_NAMES]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ENVIRONMENT_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            use = parents.get(node)
            if isinstance(use, ast.Attribute) and use.attr == "get":
                use = parents.get(use)
            arg = None
            if isinstance(use, ast.Call) and use.args:
                arg = use.args[0]
            elif isinstance(use, ast.Subscript):
                arg = use.slice
            name = arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str) else None
            reads.append((node.lineno, name))
    return reads


def test_no_environment_knobs():
    """No environment variable steers a computation: a tuning value is a
    module constant, so the same input always takes the same path.  Only the
    CLI's crossing cap is read from the environment."""
    found = {
        (path.name, lineno, name)
        for path in sorted(SRC.glob("*.py"))
        for lineno, name in _environment_reads(ast.parse(path.read_text(), str(path)))
    }
    assert {(path, name) for path, _, name in found} >= ALLOWED_ENVIRONMENT_READS
    extra = sorted(
        f"{path}:{lineno} {name or '?'}" for path, lineno, name in found if (path, name) not in ALLOWED_ENVIRONMENT_READS
    )
    assert not extra, f"environment reads under src/vknot: {extra}"
    # the scan sees each form of read
    planted = "import os\nfrom os import getenv\nos.getenv('A')\nos.environ['B']\nos.environ.get('C', '')\nx = os.environ\n"
    assert sorted(_environment_reads(ast.parse(planted))) == [(2, None), (3, "A"), (4, "B"), (5, "C"), (6, None)]


#: Modules that would start threads or processes, and calls that read the
#: machine's CPU count: a result must not depend on the machine it runs on.
CONCURRENCY_MODULES = ("multiprocessing", "concurrent", "threading")
CPU_CALLS = ("cpu_count", "sched_getaffinity")


def _machine_dependence(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of each import of a CONCURRENCY_MODULES module and each
    use of `os.cpu_count` or `os.sched_getaffinity`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.module == "os":
                names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
            names = [node.attr]
        else:
            continue
        found += [
            (node.lineno, name)
            for name in names
            if name.split(".")[0] in CONCURRENCY_MODULES or name in CPU_CALLS
        ]
    return found


def test_no_concurrency_or_cpu_count():
    """The same input takes the same code path on any machine: no module
    starts threads or processes or asks how many CPUs there are."""
    found = sorted(
        f"{path.name}:{lineno} {name}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, name in _machine_dependence(ast.parse(path.read_text(), str(path)))
    )
    assert not found, f"machine-dependent code under src/vknot: {found}"
    # the scan sees each form
    planted = (
        "import os, multiprocessing\nfrom concurrent.futures import ProcessPoolExecutor\n"
        "import threading as t\nos.cpu_count()\nlen(os.sched_getaffinity(0))\n"
        "from os import cpu_count\nimport concurrent.futures\nimport osmium\nos.path.join('a')\n"
    )
    assert sorted(_machine_dependence(ast.parse(planted))) == [
        (1, "multiprocessing"),
        (2, "concurrent.futures"),
        (3, "threading"),
        (4, "cpu_count"),
        (5, "sched_getaffinity"),
        (6, "cpu_count"),
        (7, "concurrent.futures"),
    ]


def _private_definitions(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of each function, method or class whose name starts with
    one underscore."""
    return [
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def test_no_unreferenced_private_helpers():
    """Every private function, method or class under src/vknot is named again
    somewhere under src/vknot: a helper that only tests or nothing call is
    dead code, or belongs in tests/oracle.py."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    used = set(sum(map(_name_counts, trees.values()), Counter()))
    defined = [(name, lineno, helper) for name, tree in trees.items() for lineno, helper in _private_definitions(tree)]
    unused = [f"{name}:{lineno} {helper}" for name, lineno, helper in defined if helper not in used]
    assert defined and not unused, f"private helpers nothing under src/vknot names: {unused}"
    # the scan sees each form of definition and use
    planted = (
        "class _A:\n    def _m(self): self._n()\n    def _n(self): pass\n"
        "def _f(): return _A\ndef __init__(): pass\nasync def _g(): pass\n"
    )
    tree = ast.parse(planted)
    assert _private_definitions(tree) == [(1, "_A"), (4, "_f"), (6, "_g"), (2, "_m"), (3, "_n")]
    assert {name for _, name in _private_definitions(tree)} - set(_name_counts(tree)) == {"_m", "_f", "_g"}


def test_layer_split_script_runs():
    """tests/layer_split.py, which pytest does not collect, still runs on
    this checkout: one pass over family_certify prints every `certify`
    layer, one over planar_jones every `jones` layer and the frontier keys
    of its sweeps, and one over catalog_reports every `certify`, every
    `surface-bracket` and every `double-virtualize-report` layer."""
    script = [sys.executable, str(Path(__file__).with_name("layer_split.py"))]
    certify_layers = ["carter", "refined", "homology", "tables", "certify"]
    for workload, blocks in (
        ("family_certify", [("3 certify ops", certify_layers)]),
        ("planar_jones", [("97 jones ops", ["parse", "tables", "order", "schedule", "state_sum", "jones", "keys"])]),
        (
            "catalog_reports",
            [
                ("11 certify ops", certify_layers),
                ("11 surface-bracket ops", ["carter", "sweep", "readout"]),
                ("1 double-virtualize-report ops", ["schedule", "brackets", "left", "certify", "report"]),
            ],
        ),
    ):
        proc = subprocess.run([*script, workload, "--repeat", "1"], capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        expected = []
        for header, layers in blocks:
            expected += [f"{workload}: {header}, best of 1, ms", *layers]
        got = [line if line.startswith(workload) else line.split()[0] for line in proc.stdout.decode().splitlines()]
        assert got == expected
