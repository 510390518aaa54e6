"""The package's exports are lazy, and each command imports only its own modules.

``charcalc/__init__.py`` imports no module of the package: each name of
``__all__`` is imported on first access (PEP 562), and each command of the CLI
imports the modules it runs when it runs.  The module sets are read in fresh
interpreters, since this test process has imported every module already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import charcalc

ROOT = Path(__file__).resolve().parent.parent
MODEL = str(ROOT / "models" / "elliptic_i3.json")

LOADED = (
    "import contextlib, io, json, sys\n"
    "{statement}\n"
    "json.dump(sorted(m for m in sys.modules if m == 'charcalc' or m.startswith('charcalc.')),"
    " sys.stderr)\n"
)


def loaded_after(statement: str) -> set[str]:
    """The ``charcalc`` modules a fresh interpreter holds after ``statement``."""
    done = subprocess.run(
        [sys.executable, "-c", LOADED.format(statement=statement)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stderr))


def command(*argv: str) -> str:
    return ("from charcalc import cli\n"
            "quiet = io.StringIO()\n"
            "with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):\n"
            f"    assert cli.main({list(argv)!r}) == 0\n")


CLI = {"charcalc", "charcalc.cli"}
CONDUCTOR = CLI | {"charcalc.conductor", "charcalc.modelfile"}
VERIFY = CLI | {"charcalc.verify", "charcalc.lambda_ring", "charcalc.series"}


@pytest.mark.parametrize("statement, modules", [
    ("import charcalc", {"charcalc"}),
    ("import charcalc.cli", CLI),
    (command("conductor", "--model", MODEL), CONDUCTOR),
    (command("conductor", "--model", MODEL, "--output", "machine"), CONDUCTOR),
    (command("explain", "--model", MODEL), CONDUCTOR),
    (command("verify", "--rank-max", "1"), VERIFY),
    (command("--help"), CLI),
    (command("conductor", "--help"), CLI),
    (command("verify", "--help"), VERIFY),
], ids=["package", "cli", "conductor", "conductor-machine", "explain", "verify", "help",
        "conductor-help", "verify-help"])
def test_each_command_imports_only_its_modules(statement, modules):
    assert loaded_after(statement) == modules


def test_an_export_imports_only_its_module():
    assert loaded_after("from charcalc import todd") == {
        "charcalc", "charcalc.lambda_ring", "charcalc.series"}


def test_every_export_resolves():
    namespace = {}
    exec("from charcalc import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == sorted(charcalc.__all__)
    for name in charcalc.__all__:
        value = getattr(charcalc, name)
        assert namespace[name] is value
        assert value.__module__.startswith("charcalc.")
    assert set(charcalc.__all__) <= set(dir(charcalc))
    # one home per export: a name listed under two modules would keep only the last
    assert sum(map(len, charcalc._HOMES.values())) == len(charcalc._HOME)
    with pytest.raises(AttributeError, match="^module 'charcalc' has no attribute 'nonesuch'$"):
        charcalc.nonesuch  # noqa: B018


def test_the_conductor_export_is_the_function():
    # importing the module charcalc.conductor binds it on the package, over the
    # function of that name that the package exports; the function stays
    import importlib

    module = importlib.import_module("charcalc.conductor")
    assert charcalc.conductor is module.conductor
    assert loaded_after(
        "import charcalc.conductor, charcalc\n"
        "assert charcalc.conductor is sys.modules['charcalc.conductor'].conductor"
    ) == {"charcalc", "charcalc.conductor"}
