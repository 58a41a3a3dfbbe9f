"""Every private name in ``mpst`` is used: each module-level name and
each method whose name starts with an underscore (dunders aside) is
referred to somewhere in ``src/`` outside its own definition.

A reference is a name read, an attribute read or a name imported;
tests do not count, so code kept alive only by tests fails the lint.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mpst"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def definitions(tree: ast.Module) -> list:
    """``(name, qualified name, node)`` of the private module-level
    names and methods."""
    found = []
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            found.append((node.name, node.name, node))
        elif isinstance(node, ast.Assign):
            found.extend((t.id, t.id, node) for t in node.targets
                         if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.append((node.target.id, node.target.id, node))
        if isinstance(node, ast.ClassDef):
            found.extend((item.name, f"{node.name}.{item.name}", item)
                         for item in node.body if isinstance(item, FUNCTIONS))
    return [entry for entry in found if private(entry[0])]


def references(tree: ast.AST) -> Counter:
    """How often each name is read or imported in ``tree``."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def unused(trees: dict) -> list:
    """``module.name`` of each private definition in ``trees`` (module
    name to syntax tree) that nothing refers to outside itself."""
    total = sum((references(tree) for tree in trees.values()), Counter())
    return [f"{module}.{qualified}"
            for module, tree in trees.items()
            for name, qualified, node in definitions(tree)
            if total[name] == references(node)[name]]


def test_the_lint_sees_dead_code():
    a = ast.parse(
        "_TABLE = {}\n"
        "_UNREAD: int = 1\n"
        "def _helper():\n    return _TABLE\n"
        "def _shared():\n    return 0\n"
        "def _alone(n):\n    return _alone(n - 1)\n"
        "class _Box:\n"
        "    def _get(self):\n        return _helper()\n"
        "    def _dead(self):\n        return self._dead()\n"
        "    def __repr__(self):\n        return ''\n"
        "def public():\n    return _Box()._get()\n")
    b = ast.parse("from a import _shared\n")
    assert sorted(unused({"a": a, "b": b})) == [
        "a._Box._dead", "a._UNREAD", "a._alone"]


def test_no_private_name_is_dead():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert not unused(trees), f"unused private names: {unused(trees)}"
