"""Every name a module of ``charcalc`` imports is used in it, and every name
the package exports has a reader.

A stdlib stand-in for a linter's unused-import rule: it walks each module's
syntax tree, takes the names its imports bind, and fails on any that no
expression reads.  A name listed in an ``__all__`` that is a list or tuple
literal is a re-export and counts as used; a computed ``__all__`` vouches
for no import.  ``from __future__`` imports bind nothing.  An exported name
must be read or imported by another module of the package, or be named in
the README, so that no export serves only the tests; a public method or
property of a package class must likewise be read by the package, named in
the README or read by the acceptance tests.  Every absolute import names a
module of the standard library, so the core stays stdlib-only, the test
oracles import no module of ``charcalc``, so they stay a second route, and
the CLI imports no private name of the package and reads no verifier: it
runs each check through the table of checks in ``verify``, which imports no
weights of a class: the exp kernel reads them off the class's line value."""

import ast
import re
import sys
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
        if isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple)) and any(
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
    computed = (
        "from .series import GradedSeries\n"
        "_HOME = {'GradedSeries': 'series'}\n"
        "__all__ = sorted(_HOME)\n"
    )
    assert unused_imports(computed) == ["line 1: GradedSeries"]


def absolute_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) for each module that ``source`` imports by absolute
    name; relative imports name the package itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append((node.lineno, node.module))
    return found


def non_stdlib_imports(source: str) -> list[str]:
    """The top-level modules of the absolute imports of ``source`` that are
    not in the standard library."""
    return [f"line {line}: {module}" for line, module in absolute_imports(source)
            if module.split(".")[0] not in sys.stdlib_module_names]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text()) == []


def test_non_stdlib_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from sympy.core import Symbol\n"
        "from .series import GradedSeries\n"
        "from fractions import Fraction\n"
    )
    assert non_stdlib_imports(source) == ["line 2: numpy", "line 3: sympy.core"]


def package_imports(source: str) -> list[str]:
    """The modules of ``charcalc`` that ``source`` imports."""
    return [f"line {line}: {module}" for line, module in absolute_imports(source)
            if module.split(".")[0] == "charcalc"]


def test_oracles_import_no_package_module():
    oracles = Path(__file__).resolve().parent / "oracles.py"
    assert package_imports(oracles.read_text()) == []


def test_package_imports_are_found():
    source = (
        "import charcalc.series as series, math\n"
        "from charcalc.lambda_ring import todd_line\n"
        "from fractions import Fraction\n"
    )
    assert package_imports(source) == ["line 1: charcalc.series", "line 2: charcalc.lambda_ring"]


def private_package_imports(source: str) -> list[str]:
    """The names starting with ``_`` that ``source`` imports from a module of
    ``charcalc``, by relative or absolute name."""
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.split(".")[0] == "charcalc")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_cli_imports_only_public_names():
    assert private_package_imports((PACKAGE / "cli.py").read_text()) == []


def test_cli_reads_no_verifier():
    # the CLI dispatches through verify.CHECKS, so naming a verifier or its
    # input lines would start a second list of checks
    source = (PACKAGE / "cli.py").read_text()
    read = names_read(source) | attributes_read(source)
    assert sorted(name for name in read if name.startswith("verify_")
                  or name in {"generic_lines", "repeated_root_lines"}) == []


def test_verify_reads_lambda_only_through_the_packed_kernel():
    # no check builds or multiplies a TSeries: each reads lambda_t and gamma_t
    # through the packed kernel, and names neither them nor the unpacking
    source = (PACKAGE / "verify.py").read_text()
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = imported | attributes_read(source)
    assert read & {"TSeries", "lambda_t", "gamma_t", "_tseries"} == set()


def test_verify_imports_no_class_weights():
    # every class reaches the exp kernel by its line value, which looks up its
    # own weights; the gamma weights of the lambda fold are the only ones read
    source = (PACKAGE / "verify.py").read_text()
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(name for name in imported if name.endswith("_weights")) == ["_gamma_weights"]


def test_private_package_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "from ._private import public\n"
        "from .conductor import ConductorReport, _derive\n"
        "from charcalc.series import _TermMap\n"
        "from os import _exit\n"
    )
    assert private_package_imports(source) == ["line 3: _derive", "line 4: _TermMap"]


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


def attributes_read(source: str) -> set[str]:
    """The attribute names ``source`` loads, as in ``x.name``."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def public_methods(source: str) -> set[str]:
    """The public methods and properties defined in the classes of ``source``."""
    return {
        item.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }


def test_every_public_method_has_a_reader():
    """Matched by name only: a read of ``component.multiplicity`` counts for
    ``KElement.multiplicity`` as well, since the class of ``x`` in ``x.name``
    is not known to the syntax tree."""
    modules = sorted(PACKAGE.glob("*.py"))
    acceptance = Path(__file__).resolve().parent / "test_acceptance.py"
    read = set().union(*(attributes_read(path.read_text()) for path in [*modules, acceptance]))
    readme = README.read_text(encoding="utf-8")
    defined = set().union(*(public_methods(path.read_text()) for path in modules))
    unread = [name for name in sorted(defined)
              if name not in read and not re.search(rf"\b{name}\b", readme)]
    assert unread == []
