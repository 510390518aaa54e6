"""Smoke test of the benchmark at tiny sizes.

    python3 bench/smoke_test.py

For every workload in BENCHMARK.json, runs bench/run.py untraced and traced
on tiny inputs and checks the result line: its keys, that every metric
BENCHMARK.json names is there with its unit, that nothing else is, that the
header gives the environment and the workload's reason as BENCHMARK.json
does, and that the error rate is 0.  Then checks that a copy of the
benchmark without the program's sources exits non-zero without a result
line.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def fail(message: str) -> None:
    print(f"FAIL {message}", file=sys.stderr)
    sys.exit(1)


def run(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        fail(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    header = json.loads(lines[-2])["header"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if header["error_rate"] != 0 or result["failed"] != 0 or result["correct"] is not True:
        fail(f"{where}: error rate {header['error_rate']}, failures {header['failures']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{where}: attempted {result['attempted']!r}")
    for key in ("python", "nproc", "cpu_model", "git_commit", "seed"):
        if key not in header:
            fail(f"{where}: header lacks {key}")
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    if header.get("why") != why:
        fail(f"{where}: header gives why {header.get('why')!r}, BENCHMARK.json {why!r}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(expected):
        fail(f"{where}: missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        value = got[name]
        if value.get("unit") != unit or not isinstance(value.get("value"), (int, float)):
            fail(f"{where}: metric {name} is {value}, expected unit {unit}")
    print(f"ok {where}: {len(got)} metrics, {result['attempted']} operations")


def check_without_sources(spec: dict) -> None:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print(f"ok without sources: exit {proc.returncode}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, workload["name"], trace)
    check_without_sources(spec)


if __name__ == "__main__":
    main()
