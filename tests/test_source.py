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


def test_library_functions_take_no_private_parameters():
    # A parameter named `_x` is a private switch: a second code path that
    # only a test selects and no workload runs.
    found = [
        f"{path.name}:{node.lineno}:{arg.arg}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in (
            node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            + [a for a in (node.args.vararg, node.args.kwarg) if a]
        )
        if arg.arg.startswith("_")
    ]
    assert found == []
