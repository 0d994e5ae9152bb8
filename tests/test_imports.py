"""hybridkit is a numpy-only package: every module under src/hybridkit/
imports from the standard library, numpy and hybridkit itself, nothing
else.  scipy, pytest and hypothesis are installed for the tests, so an
import of one would otherwise work here and slip into the package."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hybridkit"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "hybridkit"}


def foreign_imports(source: str) -> list[str]:
    """(line: module) of every absolute import of a top-level package
    outside ALLOWED; relative imports are the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names
                  if name.split(".")[0] not in ALLOWED]
    return found


def test_the_check_sees_absolute_imports_anywhere():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "from . import tensor\nfrom .positional import RopeParams\n"
              "import json, scipy.linalg\n"
              "def f():\n    from pytest import raises\n")
    assert foreign_imports(source) == ["5: scipy.linalg", "7: pytest"]


def test_package_imports_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5  # the package was found
    bad = {p.name: foreign_imports(p.read_text()) for p in modules}
    assert not {name: lines for name, lines in bad.items() if lines}
