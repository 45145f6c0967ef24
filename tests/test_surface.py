"""The public surface and the private helpers: every exported name exists
once, and every ``_``-prefixed helper has a caller in the library."""

import ast
from pathlib import Path

import algseeds

SRC = Path(algseeds.__file__).parent


def test_every_export_resolves_once():
    names = algseeds.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(algseeds, n)] == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _uncalled_helpers(trees: dict) -> list[str]:
    """file:name of each private function, method or class defined in trees
    that no name, attribute or import anywhere in trees refers to, outside
    the lines of its own definition."""
    uses: dict[str, list[tuple[str, int]]] = {}
    defs = []
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _is_private(node.name):
                    defs.append((fname, node))
            elif isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((fname, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((fname, node.lineno))
            elif isinstance(node, ast.alias):
                uses.setdefault(node.name, []).append((fname, node.lineno))
    found = []
    for fname, node in defs:
        own = range(node.lineno, node.end_lineno + 1)
        if not any(f != fname or line not in own for f, line in uses.get(node.name, ())):
            found.append(f"{fname}:{node.name}")
    return sorted(found)


ORPHAN = """
def _used(x):
    return x


def _recursive(n):
    return _recursive(n - 1) if n else 0


class Box:
    def _unused_method(self):
        return _used(1)

    def __repr__(self):
        return "Box"
"""


def test_guard_catches_helpers_that_nothing_calls():
    trees = {"orphan.py": ast.parse(ORPHAN), "user.py": ast.parse("from orphan import _used")}
    assert _uncalled_helpers(trees) == ["orphan.py:_recursive", "orphan.py:_unused_method"]


def test_every_private_helper_has_a_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert "algebraic.py" in trees
    assert _uncalled_helpers(trees) == []
