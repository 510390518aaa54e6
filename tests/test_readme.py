"""The README's examples run as written: the "Library use" Python block
prints what its comment says, and every ``charcalc`` command in its shell
blocks exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from charcalc import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
FLAGS = re.MULTILINE | re.DOTALL


def commands():
    """Each ``charcalc ...`` command of the shell blocks, continuation lines joined."""
    found = []
    for block in re.findall(r"^```sh\n(.*?)^```", README, FLAGS):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("charcalc "):
                found.append(shlex.split(line)[1:])
    return found


def test_library_use_prints_its_comment(capsys):
    section = README.split("## Library use", 1)[1]
    code = re.search(r"^```python\n(.*?)^```", section, FLAGS).group(1)
    expected = re.search(r"print\(.*\)\s+# (.+)", code).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == expected


def test_readme_shows_each_subcommand():
    assert {argv[0] for argv in commands()} == {"verify", "conductor", "explain"}


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_readme_command_exits_zero(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert cli.main(argv) == 0, capsys.readouterr().err
