"""Golden transcripts of ``conductor``, ``explain`` and ``verify``: exact
stdout, stderr and exit code.

``conductor`` and ``explain`` run on the sample models and a few edge-case
models; each transcript lives in ``tests/golden/<model>.<mode>.txt``.
``verify`` runs the default suite, a raised ``--max-degree``, a
``--max-degree`` below the clamp, four refusals, and rank 12 of the checks
that read gamma^k off lambda_t; each transcript lives in
``tests/golden/verify.<case>.txt``.  argparse's own help and usage errors
(no command, top-level and per-command help, an unknown command, option or
value, an ambiguous abbreviation, a missing ``--model`` and a stray
argument) run at ``COLUMNS=80``; each transcript lives in
``tests/golden/usage.<case>.txt``.  After a deliberate change to the
output, rewrite them with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from charcalc.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

MODELS = [
    ROOT / "models" / "elliptic_i3.json",
    ROOT / "models" / "good_reduction.json",
    ROOT / "models" / "wild.json",
    GOLDEN / "models" / "two_primes_inferred.json",
    GOLDEN / "models" / "chi_open_declared.json",
    GOLDEN / "models" / "depth3_dim2.json",
    GOLDEN / "models" / "inconsistent.json",
    GOLDEN / "models" / "cycle_i40_closed.json",
    GOLDEN / "models" / "sphere_v20_open.json",
    GOLDEN / "models" / "wide_edges.json",
]

MODES = {
    "conductor": ["conductor"],
    "conductor-machine": ["conductor", "--output", "machine"],
    "explain": ["explain"],
}

CASES = [(model, mode) for model in MODELS for mode in MODES]

DEGREE_6 = ["--rank-max", "3", "--max-degree", "6"]
VERIFY_CASES = {
    "default": [],
    "default-machine": ["--output", "machine"],
    "max-degree-6": DEGREE_6,
    "max-degree-6-machine": [*DEGREE_6, "--output", "machine"],
    "max-degree-clamped": ["--rank-max", "3", "--max-degree", "1"],
    "max-degree-negative": ["--checks", "borel_serre", "--rank-max", "2", "--max-degree", "-5"],
    "unknown-check": ["--checks", "gala,nonsense"],
    "rank-over-cap": ["--rank-max", "13"],
    "rank-min-zero": ["--rank-min", "0"],
    "rank-12-machine": ["--checks", "gala,ch_gamma,prop_chtd", "--rank-min", "12",
                        "--rank-max", "12", "--output", "machine"],
}

USAGE_CASES = {
    "no-command": [],
    "help": ["--help"],
    "unknown-command": ["frobnicate"],
    "verify-help": ["verify", "--help"],
    "conductor-help": ["conductor", "--help"],
    "explain-h": ["explain", "-h"],
    "verify-unknown-option": ["verify", "--bogus"],
    "verify-invalid-int": ["verify", "--rank-max", "x"],
    "verify-ambiguous-option": ["verify", "--rank-m", "3"],
    "conductor-no-model": ["conductor"],
    "conductor-invalid-output": ["conductor", "--model", "m", "--output", "xml"],
    "verify-extra-argument": ["verify", "extra"],
}
# argparse wraps help and usage to the terminal width, which it reads from COLUMNS.
USAGE_COLUMNS = "80"


def run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return f"exit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def transcript(model: Path, mode: str) -> str:
    command, *options = MODES[mode]
    return run([command, "--model", str(model), *options])


def golden_path(model: Path, mode: str) -> Path:
    return GOLDEN / f"{model.stem}.{mode}.txt"


def verify_golden_path(case: str) -> Path:
    return GOLDEN / f"verify.{case}.txt"


def usage_golden_path(case: str) -> Path:
    return GOLDEN / f"usage.{case}.txt"


@pytest.mark.parametrize(
    "model, mode", CASES, ids=[f"{model.stem}-{mode}" for model, mode in CASES]
)
def test_golden_transcript(model, mode):
    expected = golden_path(model, mode).read_text(encoding="utf-8")
    assert transcript(model, mode) == expected


@pytest.mark.parametrize("case", VERIFY_CASES)
def test_golden_verify(case):
    expected = verify_golden_path(case).read_text(encoding="utf-8")
    assert run(["verify", *VERIFY_CASES[case]]) == expected


@pytest.mark.parametrize("case", USAGE_CASES)
def test_golden_usage(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", USAGE_COLUMNS)
    expected = usage_golden_path(case).read_text(encoding="utf-8")
    assert run(USAGE_CASES[case]) == expected


if __name__ == "__main__":
    for model, mode in CASES:
        golden_path(model, mode).write_text(transcript(model, mode), encoding="utf-8")
    for case, options in VERIFY_CASES.items():
        verify_golden_path(case).write_text(run(["verify", *options]), encoding="utf-8")
    os.environ["COLUMNS"] = USAGE_COLUMNS
    for case, argv in USAGE_CASES.items():
        usage_golden_path(case).write_text(run(argv), encoding="utf-8")
