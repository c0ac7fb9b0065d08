"""Checks on the package source itself."""

import ast
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
