"""Mutation scan of the checks in ``src/unionsearch/modelfile.py``.

Each ``raise`` statement in turn is replaced by ``pass`` in a temporary copy
of ``src/`` and ``tests/``, and ``tests/test_modelfile.py`` and
``tests/test_cli.py`` are run against the copy. A check whose removal no
test notices survives. The scan fails if the unchanged copy fails its
tests, or if a check survives that ``EQUIVALENT`` does not list with the
reason no test can notice its removal.

    python tests/scan_modelfile_checks.py

Pytest does not collect this file; the scan takes a few minutes.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULE = Path("src/unionsearch/modelfile.py")
TESTS = ["tests/test_modelfile.py", "tests/test_cli.py"]

# Checks whose removal no test can notice, by the function that holds the
# raise and a piece of its source, with the reason.
EQUIVALENT = {
    ("_Reader.strings", "truncated file"):
        "the blob's own read raises the same 'truncated file' for any length "
        "past the bytes left; the guard only keeps the sum of the lengths "
        "from wrapping in int64, which takes about 2**28 of them",
}


def raises(source: str) -> list[tuple[str, ast.Raise]]:
    """Each raise statement, with the dotted name of the function and class
    it lies in."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Raise):
                found.append((".".join(scope), child))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def without(source: str, node: ast.Raise) -> str:
    """source with the raise statement node replaced by ``pass``, every
    other line where it was."""
    lines = source.splitlines()
    first = node.lineno - 1
    indent = lines[first][:node.col_offset]
    assert not indent.strip(), f"line {node.lineno} holds more than a raise"
    lines[first] = indent + "pass"
    for i in range(first + 1, node.end_lineno):
        lines[i] = ""
    return "\n".join(lines) + "\n"


def tests_pass(copy: Path) -> bool:
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *TESTS],
        cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return result.returncode == 0


def main() -> int:
    source = (ROOT / MODULE).read_text(encoding="utf-8")
    found = raises(source)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if not tests_pass(copy):
            print("the tests fail on the unchanged copy")
            return 1
        caught, failures = 0, []
        equivalent = dict.fromkeys(EQUIVALENT, 0)
        for scope, node in found:
            text = ast.get_source_segment(source, node)
            (copy / MODULE).write_text(without(source, node), encoding="utf-8")
            listed = [key for key in EQUIVALENT
                      if key[0] == scope and key[1] in text]
            for key in listed:
                equivalent[key] += 1
            if not tests_pass(copy):
                caught += 1
                status = "caught"
                if listed:
                    failures.append(f"listed as equivalent, but caught: "
                                    f"line {node.lineno}")
            elif listed:
                status = f"survives, equivalent: {EQUIVALENT[listed[0]]}"
            else:
                status = "SURVIVES"
                failures.append(f"no test notices line {node.lineno} removed")
            print(f"line {node.lineno} ({scope}): {status}")
        failures += [f"EQUIVALENT entry {key} names {count} raises, not 1"
                     for key, count in equivalent.items() if count != 1]
    print(f"caught {caught} of {len(found)} raise statements")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
