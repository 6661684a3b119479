"""Checks on the package's own source."""

import ast
import pathlib
import re

import treesum

PACKAGE = pathlib.Path(treesum.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_no_module_checks_with_assert():
    # `python -O` strips assert statements, so a check must raise instead
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _public_definitions():
    """(place, name) of each public module-level function or class of the
    package, and of each public method of its classes."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            members = [node] + (node.body if isinstance(node, ast.ClassDef)
                                else [])
            for member in members:
                if isinstance(member, (ast.FunctionDef, ast.ClassDef)) \
                        and not member.name.startswith("_"):
                    yield (f"{path.relative_to(PACKAGE)}:{member.lineno}",
                           member.name)


def test_every_public_name_has_a_caller_outside_the_tests():
    # library code only the tests call belongs in the tests
    used = set(treesum.__all__)
    for top in (PACKAGE, ROOT / "tools", ROOT / "perfbench", ROOT / "demos"):
        for path in top.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    readme = (ROOT / "README.md").read_text()
    unused = [f"{place} {name}" for place, name in _public_definitions()
              if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert unused == []
