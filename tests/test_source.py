"""Checks on the library source itself."""

import ast
from pathlib import Path

import fiberfields

SOURCES = sorted(Path(fiberfields.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # would vanish; the library raises a named error instead.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
