"""Source hygiene checks that need no linter: every import is used, every
top-level definition is named somewhere, every attribute the package
stores is read somewhere, every config is frozen and checked only when
made, no package module imports another's private names, every CLI option
is read by its command, and CLI defaults are the library's own."""

import argparse
import ast
import inspect
from pathlib import Path

import pytest

from unionsearch.bench import BenchmarkSpec
from unionsearch.cli import build_parser, parse_measures
from unionsearch.encoder import EncoderConfig
from unionsearch.projection import TrainConfig
from unionsearch.search import SearchConfig

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


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def _stored_attributes(tree: ast.Module) -> list[tuple[str, str]]:
    """(attribute, "Class.attribute (line n)") for every dataclass field and
    every self.<attribute> assignment in a class."""
    stored = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        found = []   # (attribute, line)
        if _is_dataclass(cls):
            found.extend((node.target.id, node.lineno) for node in cls.body
                         if isinstance(node, ast.AnnAssign)
                         and isinstance(node.target, ast.Name))
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            found.extend((attr.attr, attr.lineno)
                         for target in targets for attr in ast.walk(target)
                         if isinstance(attr, ast.Attribute)
                         and isinstance(attr.value, ast.Name)
                         and attr.value.id == "self")
        stored.extend((name, f"{cls.name}.{name} (line {line})")
                      for name, line in found)
    return stored


def _read_attributes(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


@pytest.fixture(scope="module")
def attributes_read_by_users() -> set[str]:
    return set().union(*(_read_attributes(ast.parse(p.read_text(encoding="utf-8")))
                         for p in USERS))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_write_only_attributes(path, attributes_read_by_users):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = sorted(label for name, label in _stored_attributes(tree)
                    if name not in attributes_read_by_users)
    assert not unread, f"{path.name} stores but nothing reads: {unread}"


def test_scan_finds_a_write_only_attribute():
    tree = ast.parse(
        "@dataclass\nclass A:\n    kept: int\n    lost: int\n"
        "class B:\n    def __init__(self):\n        self.read = 1\n"
        "        self.unread = 2\n        self.read += 1\n"
        "    def f(self, a):\n        return self.read + a.kept\n")
    read = _read_attributes(tree)
    assert sorted(label for name, label in _stored_attributes(tree)
                  if name not in read) == ["A.lost (line 4)", "B.unread (line 8)"]


def _unfrozen_configs(tree: ast.Module) -> list[str]:
    """Config and spec dataclasses not declared frozen or with a validate
    method, and every ``.validate()`` call: a config is checked once, when
    it is made, and cannot change after."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and getattr(node.func, "attr", None) == "validate":
            found.append(f"validate() call (line {node.lineno})")
        if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)
                and node.name.endswith(("Config", "Spec"))):
            continue
        if not any(keyword.arg == "frozen"
                   and getattr(keyword.value, "value", None) is True
                   for deco in node.decorator_list
                   if isinstance(deco, ast.Call)
                   for keyword in deco.keywords):
            found.append(f"{node.name} is not frozen (line {node.lineno})")
        found.extend(f"{node.name}.validate (line {item.lineno})"
                     for item in node.body
                     if isinstance(item, ast.FunctionDef)
                     and item.name == "validate")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_configs_are_frozen_and_have_no_validate(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = _unfrozen_configs(tree)
    assert not found, f"{path.name}: {found}"


def test_scan_finds_an_unfrozen_config():
    tree = ast.parse(
        "@dataclass\nclass AConfig:\n    a: int = 0\n"
        "@dataclass(frozen=True)\nclass BSpec:\n"
        "    def validate(self):\n        pass\n"
        "@dataclass(frozen=True)\nclass CConfig:\n    c: int = 0\n"
        "@dataclass\nclass Bundle:\n    d: int = 0\n"
        "def f(cfg):\n    cfg.validate()\n")
    assert sorted(_unfrozen_configs(tree)) == [
        "AConfig is not frozen (line 2)", "BSpec.validate (line 6)",
        "validate() call (line 15)"]


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


def _commands(parser: argparse.ArgumentParser
              ) -> dict[str, argparse.ArgumentParser]:
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def _unread_options(parser: argparse.ArgumentParser) -> list[str]:
    """command/dest for each option whose command's function never reads
    args.<dest>."""
    unread = []
    for name, sub in _commands(parser).items():
        source = inspect.getsource(sub.get_default("func"))
        unread.extend(f"{name}/{action.dest}" for action in sub._actions
                      if action.dest != "help"
                      and f"args.{action.dest}" not in source)
    return unread


def test_every_cli_option_is_read_by_its_command():
    assert _unread_options(build_parser()) == []


def test_scan_finds_an_unread_option():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    p = sub.add_parser("go")
    p.add_argument("--used")
    p.add_argument("--ignored")
    p.set_defaults(func=lambda args: args.used)
    assert _unread_options(parser) == ["go/ignored"]


# Each option whose default is a config field's, listed by hand: a name
# match would pair train --seed, the master seed, with TrainConfig.seed.
# The last item turns the option's default into the field's type.
_DEFAULTS_FROM_FIELDS = [
    ("train", "dim", EncoderConfig, "dim", int),
    ("train", "temperature", TrainConfig, "temperature", float),
    ("train", "learning_rate", TrainConfig, "learning_rate", float),
    ("train", "momentum", TrainConfig, "momentum", float),
    ("train", "epochs", TrainConfig, "epochs", int),
    ("train", "batch_size", TrainConfig, "batch_size", int),
    ("train", "sample_size", TrainConfig, "sample_size", int),
    ("train", "validation_fraction", TrainConfig, "validation_fraction", float),
    ("train", "offline_floor", TrainConfig, "offline_floor", float),
    ("query", "k", SearchConfig, "k", int),
    ("query", "threshold", SearchConfig, "threshold", float),
    ("query", "measures", SearchConfig, "measures", parse_measures),
    ("eval", "k", SearchConfig, "k", int),
    ("eval", "threshold", SearchConfig, "threshold", float),
    ("eval", "measures", SearchConfig, "measures", parse_measures),
    ("benchgen", "bases", BenchmarkSpec, "n_bases", int),
    ("benchgen", "derivations", BenchmarkSpec, "derivations_per_base", int),
    ("benchgen", "topics", BenchmarkSpec, "n_topics", int),
    ("benchgen", "rows", BenchmarkSpec, "base_rows", int),
]


@pytest.mark.parametrize("command, dest, cls, name, convert",
                         _DEFAULTS_FROM_FIELDS,
                         ids=[f"{c}/{d}" for c, d, *_ in _DEFAULTS_FROM_FIELDS])
def test_cli_default_is_the_config_fields(command, dest, cls, name, convert):
    default = _commands(build_parser())[command].get_default(dest)
    assert default is not None, f"{command} has no option {dest}"
    assert convert(default) == getattr(cls(), name)
