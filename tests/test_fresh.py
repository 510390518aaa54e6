"""The fresh-process timer ``tools/fresh.py``, one pair against this checkout."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_fresh_times_every_command_in_pairs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fresh.py"), str(ROOT), "--pairs", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "fresh processes, 1 pairs, bytecode not written"
    side = r" +[\d.]+ ms \[[\d.]+, [\d.]+\]"
    row = (rf"base{side}  change{side}  [+-][\d.]+%  "
           r"change faster in [01] of 1; claim rule (met|not met)")
    assert [line.split()[0] for line in lines[1:5]] == ["import", "conductor", "explain", "verify"]
    assert all(re.fullmatch(r"\w+ +" + row, line) for line in lines[1:5]), lines
    assert lines[5].startswith("(claim rule (faster in at least 9 of 10 pairs")


def test_fresh_refuses_a_checkout_without_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fresh.py"), str(tmp_path), "--pairs", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr == f"no charcalc sources under {tmp_path / 'src'}\n"
