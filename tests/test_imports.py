"""Every name a module of ``charcalc`` imports is used in it, and every name
the package exports has a reader.

A stdlib stand-in for a linter's unused-import rule: it walks each module's
syntax tree, takes the names its imports bind, and fails on any that no
expression reads.  A name listed in ``__all__`` is a re-export and counts
as used; ``from __future__`` imports bind nothing.  An exported name must be
read or imported by another module of the package, or be named in the
README, so that no export serves only the tests."""

import ast
import re
from pathlib import Path

import pytest

import charcalc

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "charcalc"
README = PACKAGE.parent.parent / "README.md"


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import comb, prod as product_of\n"
        "from .series import GradedSeries, dominant_exponents\n"
        "__all__ = ['GradedSeries']\n"
        "def f(x: int) -> int:\n"
        "    return comb(x, 2)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: product_of", "line 4: dominant_exponents"]


def names_read(source: str) -> set[str]:
    """The names ``source`` loads, and those it imports from another module."""
    tree = ast.parse(source)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_export_has_a_reader():
    modules = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    read = set().union(*(names_read(path.read_text()) for path in modules))
    readme = README.read_text(encoding="utf-8")
    unread = [name for name in charcalc.__all__
              if name not in read and not re.search(rf"\b{name}\b", readme)]
    assert unread == []
