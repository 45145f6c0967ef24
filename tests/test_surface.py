"""The public surface and the private helpers: every exported name exists
once, every ``_``-prefixed helper and every public function outside
``__all__`` has a caller in the library, every public method has a caller in
the library or the benchmark, every imported name is used in the file that
imports it, and the benchmark, which patches and reads library names from
outside, still runs."""

import ast
import subprocess
import sys
from pathlib import Path

import algseeds

SRC = Path(algseeds.__file__).parent
TESTS = Path(__file__).parent


def test_every_export_resolves_once():
    names = algseeds.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(algseeds, n)] == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _uses(trees: dict) -> dict[str, list[tuple[str, int]]]:
    """(file, line) of every name, attribute and import in trees, by name."""
    uses: dict[str, list[tuple[str, int]]] = {}
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((fname, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((fname, node.lineno))
            elif isinstance(node, ast.alias):
                uses.setdefault(node.name, []).append((fname, node.lineno))
    return uses


def _unreferenced(defs: list, uses: dict) -> list[str]:
    """file:label of each (file, label, node) in defs whose name no use
    refers to outside the lines of its own definition."""
    found = []
    for fname, label, node in defs:
        own = range(node.lineno, node.end_lineno + 1)
        if not any(f != fname or line not in own for f, line in uses.get(node.name, ())):
            found.append(f"{fname}:{label}")
    return sorted(found)


def _uncalled_helpers(trees: dict, exported: set[str] | None = None) -> list[str]:
    """file:name of each private function, method or class defined in trees,
    and with exported given of each public module-level function not in it,
    that no name, attribute or import anywhere in trees refers to, outside
    the lines of its own definition."""
    defs = []
    for fname, tree in trees.items():
        if exported is not None:
            defs += [(fname, node.name, node) for node in tree.body
                     if isinstance(node, ast.FunctionDef) and not _is_private(node.name)
                     and node.name not in exported]
        defs += [(fname, node.name, node) for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and _is_private(node.name)]
    return _unreferenced(defs, _uses(trees))


def _uncalled_methods(trees: dict, callers: dict) -> list[str]:
    """file:Class.method of each public method of a class defined in trees
    that no name, attribute or import in trees or callers refers to, outside
    the lines of its own definition.  Dunder methods are called by Python."""
    defs = [(fname, f"{cls.name}.{node.name}", node)
            for fname, tree in trees.items() for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]
    return _unreferenced(defs, _uses({**trees, **callers}))


ORPHAN = """
def _used(x):
    return x


def _recursive(n):
    return _recursive(n - 1) if n else 0


def exported():
    return 0


def public_orphan():
    return 0


class Box:
    def _unused_method(self):
        return _used(1)

    def public_method(self):
        return 0

    def called_method(self):
        return self.public_method

    def __repr__(self):
        return "Box"
"""


def test_guard_catches_helpers_that_nothing_calls():
    trees = {"orphan.py": ast.parse(ORPHAN), "user.py": ast.parse("from orphan import _used")}
    assert _uncalled_helpers(trees) == ["orphan.py:_recursive", "orphan.py:_unused_method"]
    assert _uncalled_helpers(trees, {"exported"}) == [
        "orphan.py:_recursive", "orphan.py:_unused_method", "orphan.py:public_orphan"]


def test_guard_catches_public_methods_that_nothing_calls():
    """public_method is read only inside called_method, which a caller tree
    reads; __repr__ is Python's to call, and _unused_method is the private
    rule's."""
    trees = {"orphan.py": ast.parse(ORPHAN)}
    callers = {"bench.py": ast.parse("from orphan import Box\nBox().called_method()")}
    assert _uncalled_methods(trees, callers) == []
    assert _uncalled_methods(trees, {}) == ["orphan.py:Box.called_method"]
    lone = {"orphan.py": ast.parse(ORPHAN.replace("return self.public_method", "return 0"))}
    assert _uncalled_methods(lone, callers) == ["orphan.py:Box.public_method"]


# Public functions that only the tests call.  None is kept: the tests' own
# independent oracles live in tests/oracles.py.
TEST_ORACLES: set[str] = set()


def _library_trees() -> dict:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert "algebraic.py" in trees
    return trees


def test_every_private_helper_has_a_caller():
    assert _uncalled_helpers(_library_trees()) == []


def test_every_public_function_is_exported_or_called():
    assert _uncalled_helpers(_library_trees(), set(algseeds.__all__)) == sorted(TEST_ORACLES)


# Public methods that nothing in the library or the benchmark calls, kept by name.
KEPT_METHODS = {
    # perfbench/spans.py wraps it by name, as a string
    "algebraic.py:AlgebraicNumber.refine",
}


def test_every_public_method_has_a_caller():
    """The benchmark calls the library from outside, so its files count as
    callers; their own definitions are not checked."""
    bench = {f"perfbench/{path.name}": ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((TESTS.parent / "perfbench").glob("*.py"))}
    assert "perfbench/workloads.py" in bench
    assert _uncalled_methods(_library_trees(), bench) == sorted(KEPT_METHODS)


def _unused_imports(trees: dict) -> list[str]:
    """file:name of each name bound by an import in trees that its own file
    never reads.  ``from __future__`` imports and the names a file lists in
    ``__all__`` (the re-exports of ``__init__.py``) are exempt."""
    found = []
    for fname, tree in trees.items():
        bound: list[str] = []
        used: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                # import a.b binds a
                bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used.update(elt.value for elt in node.value.elts)
        found += [f"{fname}:{name}" for name in bound if name not in used]
    return sorted(found)


UNUSED = """
from __future__ import annotations

import os
import json as js
import xml.dom
from math import gcd, isqrt
from fractions import Fraction

__all__ = ["gcd"]


def half(x: Fraction) -> int:
    return isqrt(4) + len(xml.dom.Node.__name__)
"""


def test_guard_catches_imports_that_nothing_reads():
    assert _unused_imports({"mod.py": ast.parse(UNUSED)}) == ["mod.py:js", "mod.py:os"]


def test_every_imported_name_is_used():
    trees = {f"{path.parent.name}/{path.name}": ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))}
    assert "algseeds/__init__.py" in trees and "tests/test_surface.py" in trees
    assert _unused_imports(trees) == []


def test_benchmark_smoke_run_passes():
    """perfbench wraps the functions it times through their module
    attributes and reads the ``cache_info()`` of the enclosure caches of
    ``fields``; a rename or deletion there makes every benchmark run fail."""
    run = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=TESTS.parent,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "smoke: ok"
