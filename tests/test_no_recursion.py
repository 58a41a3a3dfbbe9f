"""No function in ``mpst`` lies on a cycle of calls, so no input is too
deep for the interpreter's stack.

Each module's call graph has an edge for every call by a plain name,
to the innermost function of that name in scope, and for every
``self.`` or ``cls.`` call, to the method of the enclosing class.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mpst"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def call_graph(tree: ast.Module) -> dict:
    """Maps each function's qualified name (``f``, ``Class.method``,
    ``f.inner``) to the qualified names of the functions it calls."""
    scopes = {}  # function -> (its body, enclosing class, enclosing function)
    stack = [(tree, "", None, None)]
    while stack:
        node, prefix, cls, func = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                name = prefix + child.name
                scopes[name] = (child, cls, func)
                stack.append((child, name + ".", cls, name))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, prefix + child.name + ".",
                              prefix + child.name, func))
            else:
                stack.append((child, prefix, cls, func))
    graph = {}
    for name, (func, cls, _) in scopes.items():
        callees = graph[name] = set()
        # the calls in the body, not in the functions defined there
        todo = list(ast.iter_child_nodes(func))
        while todo:
            node = todo.pop()
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                continue
            todo.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name):
                scope = name
                while scope is not None and f"{scope}.{callee.id}" not in scopes:
                    scope = scopes[scope][2]
                target = callee.id if scope is None else f"{scope}.{callee.id}"
            elif (isinstance(callee, ast.Attribute) and cls is not None
                  and isinstance(callee.value, ast.Name)
                  and callee.value.id in ("self", "cls")):
                target = f"{cls}.{callee.attr}"
            else:
                continue
            if target in scopes:
                callees.add(target)
    return graph


def on_cycles(graph: dict) -> list:
    """The functions that can reach themselves."""
    found = []
    for start in graph:
        seen = set()
        todo = list(graph[start])
        while todo:
            name = todo.pop()
            if name == start:
                found.append(start)
                break
            if name not in seen:
                seen.add(name)
                todo.extend(graph[name])
    return found


def test_the_lint_sees_recursion():
    tree = ast.parse(
        "def f(n):\n    return f(n - 1)\n"
        "def g():\n    def inner():\n        return h()\n    return inner()\n"
        "def h():\n    return g()\n"
        "class C:\n    def a(self):\n        return self.b()\n"
        "    def b(self):\n        def go():\n            return self.a()\n"
        "        return go()\n"
        "def loop():\n    return [loop for _ in ()]\n")
    assert sorted(on_cycles(call_graph(tree))) == [
        "C.a", "C.b", "C.b.go", "f", "g", "g.inner", "h"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_recurses(path):
    graph = call_graph(ast.parse(path.read_text()))
    assert not on_cycles(graph), f"recursive in {path.name}: {on_cycles(graph)}"
