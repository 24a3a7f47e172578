"""Source-level guards on the package code."""

import ast
from pathlib import Path

import qotsim

PACKAGE = Path(qotsim.__file__).parent


def test_no_assert_statements_in_package():
    """Invariants must not rest on `assert`, which `python -O` strips."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
