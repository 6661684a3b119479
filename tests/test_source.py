"""Checks on the package's own source."""

import ast
import pathlib

import treesum

PACKAGE = pathlib.Path(treesum.__file__).parent


def test_no_module_checks_with_assert():
    # `python -O` strips assert statements, so a check must raise instead
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
