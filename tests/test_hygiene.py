"""Source hygiene checks that need no linter: every import is used, every
top-level definition is named somewhere, and no package module imports
another's private names."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "unionsearch"
# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# Everything that may use the package: itself, its tests, its benchmark.
USERS = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                *(ROOT / "perfbench").glob("*.py")])


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports but never uses: {unused}"


def test_scan_finds_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\nprint(d)\n")
    imported = _imported_names(tree)
    assert set(imported) - _used_names(tree) == {"os", "b"}


def _defined_names(tree: ast.Module) -> dict[str, int]:
    """Top-level functions, classes and constants, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return {n: line for n, line in names.items() if not n.startswith("__")}


def _named(tree: ast.Module) -> set[str]:
    """Names read, attributes accessed and names imported anywhere in tree."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name.rsplit(".", 1)[-1])
    return named


@pytest.fixture(scope="module")
def named_by_users() -> set[str]:
    return set().union(*(_named(ast.parse(p.read_text(encoding="utf-8")))
                         for p in USERS))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unnamed_top_level_definitions(path, named_by_users):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    dead = sorted(f"{name} (line {line})"
                  for name, line in _defined_names(tree).items()
                  if name not in named_by_users)
    assert not dead, f"{path.name} defines but nothing names: {dead}"


def test_scan_finds_an_unnamed_definition():
    tree = ast.parse("A = 1\nB: int = 2\ndef f(): return g()\n"
                     "def g(): return A\nclass C: pass\nx.B\n")
    assert set(_defined_names(tree)) - _named(tree) == {"f", "C"}


def _private_package_imports(tree: ast.Module) -> list[str]:
    """Underscore names imported from a module of this package."""
    return [f"{node.module or '.'}.{alias.name} (line {node.lineno})"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == PACKAGE.name)
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = _private_package_imports(tree)
    assert not private, f"{path.name} imports private names: {private}"


def test_scan_finds_a_private_import():
    tree = ast.parse("from .search import _a, b\nfrom unionsearch.x import _c\n"
                     "from os import _exit\nfrom __future__ import annotations\n")
    assert _private_package_imports(tree) == ["search._a (line 1)",
                                              "unionsearch.x._c (line 2)"]
