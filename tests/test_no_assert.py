"""Library checks must survive ``python -O``, which strips assert statements."""

import ast
from pathlib import Path

import gsl

SRC = Path(gsl.__file__).parent


def test_library_has_no_assert_statements():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
