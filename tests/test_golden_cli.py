"""Golden transcripts of ``conductor`` and ``explain``: exact stdout, stderr
and exit code for the sample models and a few edge-case models.

Each transcript lives in ``tests/golden/<model>.<mode>.txt``.  After a
deliberate change to the output, rewrite them with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff.
"""

import io
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
]

MODES = {
    "conductor": ["conductor"],
    "conductor-machine": ["conductor", "--output", "machine"],
    "explain": ["explain"],
}

CASES = [(model, mode) for model in MODELS for mode in MODES]


def transcript(model: Path, mode: str) -> str:
    command, *options = MODES[mode]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--model", str(model), *options])
    return f"exit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def golden_path(model: Path, mode: str) -> Path:
    return GOLDEN / f"{model.stem}.{mode}.txt"


@pytest.mark.parametrize(
    "model, mode", CASES, ids=[f"{model.stem}-{mode}" for model, mode in CASES]
)
def test_golden_transcript(model, mode):
    expected = golden_path(model, mode).read_text(encoding="utf-8")
    assert transcript(model, mode) == expected


if __name__ == "__main__":
    for model, mode in CASES:
        golden_path(model, mode).write_text(transcript(model, mode), encoding="utf-8")
