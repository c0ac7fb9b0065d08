"""Checks on the package source itself."""

import ast
import importlib
import json
import os
import subprocess
import sys
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


def test_perfbench_hooks_resolve():
    """Every function the benchmark's tracer wraps still exists in vknot, so
    a change that deletes or renames one shows here, not only in a traced run.

    `HOOKS` is read from perfbench/tracing.py as a literal; the file is
    neither imported nor run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    (hooks,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["HOOKS"]
    ]
    missing = []
    for _, module, attr_path in hooks:
        # as the tracer resolves them: a method must be defined on its class
        target = importlib.import_module(module)
        for attr in attr_path.split("."):
            target = target.__dict__.get(attr) if isinstance(target, type) else getattr(target, attr, None)
        if not callable(target):
            missing.append(f"{module}.{attr_path}")
    assert hooks and not missing, f"hook targets absent: {missing}"


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
