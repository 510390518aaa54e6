"""charcalc benchmark: the user-facing jobs timed end to end, and a separate
traced run that times each layer.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-frontier --seed 1 --seconds 30 --trace 0

Workloads are listed in ``bench/workloads.py``.  With ``--trace 0`` the
last line of stdout is a JSON object whose metrics are the end-to-end ones
(setup_s, wall_probes, op_p50_probes, op_tail_probes, peak_rss_mb); with
``--trace 1`` they are the per-layer ones of ``bench/layers.py``.  The
``*_probes`` metrics are times in units of a fixed reference kernel timed
alongside them (``bench/probe.py``), which cancels the shared host's drift
in speed; the raw seconds are in the header.  The line before it is
a header with the environment, the run's shape and the error rate.  The
program is imported from ``src/`` of the checkout, and the benchmark fails
(exit 2, no result line) if it is not there.

The load is a closed loop: one client, one operation at a time, in this
process, with no threads.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Fresh interpreters started to time the import; setup_s is their median.
SETUP_RUNS = 21
SETUP_ENV = dict(os.environ, PYTHONPATH=str(SRC))


def check_setup() -> None:
    """A first, untimed start compiles the bytecode and confirms that the
    import resolves to this checkout."""
    found = subprocess.run(
        [sys.executable, "-c", "import sys, charcalc.cli; sys.stdout.write(charcalc.cli.__file__)"],
        env=SETUP_ENV, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    if not Path(found).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"charcalc.cli resolved to {found}, outside {SRC}")


def time_setup() -> float:
    """Wall time for a fresh interpreter to ``import charcalc.cli``, which
    every CLI call pays."""
    start = perf_counter()
    # No timeout: waiting with one makes subprocess poll at up to 50 ms
    # intervals, which would quantize the measurement.
    subprocess.run(
        [sys.executable, "-c", "import charcalc.cli"],
        env=SETUP_ENV, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
    )
    return perf_counter() - start


def run_pass(ops, tracer=None, between=None):
    """Run every operation once, calling ``between`` before each; return
    ((start, end) of the pass, [(label, start, end)] of each operation,
    failures)."""
    spans, failures = [], []
    started = perf_counter()
    for op in ops:
        if between is not None:
            between()
        if tracer is not None:
            tracer.begin_op(op.label)
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception:
            spans.append((op.label, t0, perf_counter()))
            failures.append(f"{op.label}: {traceback.format_exc(limit=4)}")
            continue
        spans.append((op.label, t0, perf_counter()))
        try:
            problem = op.check(result)
        except Exception:
            problem = traceback.format_exc(limit=4)
        if problem:
            failures.append(f"{op.label}: {problem}")
    return (started, perf_counter()), spans, failures


def nearest_rank(values, fraction: float):
    """(value, samples above it) at the nearest-rank percentile."""
    ordered = sorted(values)
    k = max(1, math.ceil(fraction * len(ordered)))
    return ordered[k - 1], len(ordered) - k


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny inputs for the smoke test; the metrics are meaningless at this size",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "charcalc" / "__init__.py").is_file():
        print(f"error: no charcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import charcalc.cli  # noqa: F401  (imports every layer before tracing)
    from layers import layer_metrics
    from probe import Speedometer
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    ops_for = workload.build(args.seed, args.size, OUT / args.workload)
    passes = max(1, round(workload.passes * args.seconds / 30)) if args.size == "full" else 1

    samples, failures = [], []
    warmed = 0
    if args.trace:
        # Each operation of the first pass runs once untraced and once
        # traced, in alternating order, so that drift in the machine's speed
        # falls on both sides of the tracing overhead alike.
        tracer = Tracer()
        ops = ops_for(0)
        wall = traced_wall = 0.0
        for index, op in enumerate(ops):
            for traced in ((True, False) if index % 2 else (False, True)):
                if traced:
                    tracer.install()
                try:
                    (start, end), spans, fail = run_pass([op], tracer if traced else None)
                finally:
                    tracer.uninstall()
                if traced:
                    traced_wall += end - start
                else:
                    wall += end - start
                samples += [(label, t1 - t0, None) for label, t0, t1 in spans]
                failures += fail
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz")
        metrics = layer_metrics(tracer, ops, traced_wall, wall)
        shape = {"passes": 1, "traced_passes": 1, "traced_wall_s": traced_wall, "untraced_wall_s": wall}
    else:
        check_setup()
        # One untimed pass over the tiny inputs first, so that lazy imports
        # and first-call costs fall outside the timed passes.  Its answers
        # are checked all the same.
        warmup = workload.build(args.seed, "tiny", OUT / f"{args.workload}-warmup")(0)
        _, spans, failures = run_pass(warmup)
        warmed = len(spans)
        # The interpreter starts for setup_s are spread over the timed
        # passes, before every k-th operation, so that their median covers
        # the host's fast and slow spells as the passes do.  The probes are
        # held off meanwhile, and the starts are taken out of the passes.
        speed = Speedometer()
        setup: list[float] = []
        every = max(1, passes * len(ops_for(0)) // SETUP_RUNS)
        op_count = itertools.count()

        def between():
            if next(op_count) % every == 0 and len(setup) < SETUP_RUNS:
                with speed.paused():
                    setup.append(time_setup())

        speed.start()
        try:
            passes_done = [run_pass(ops_for(index), between=between) for index in range(passes)]
        finally:
            speed.stop()
        while len(setup) < SETUP_RUNS:
            setup.append(time_setup())
        walls, costs = [], []
        for (start, end), spans, fail in passes_done:
            walls.append(speed.net(start, end))
            costs.append(speed.probes(start, end))
            samples += [(label, speed.net(t0, t1), speed.probes(t0, t1)) for label, t0, t1 in spans]
            failures += fail
        # Both order statistics rest on each kind of operation's median
        # over the passes, not on single samples.  The median is taken over
        # the kinds; the tail is the cost of the kind into which the tail
        # percentile falls when every sample stands for its kind.  Every
        # kind has as many samples as there are passes, so the kinds weigh
        # as they do in the pooled statistics, while the noise of one sample
        # cannot decide them.
        by_kind: dict[str, list[float]] = {}
        for label, _, cost in samples:
            by_kind.setdefault(label, []).append(cost)
        kind_cost = {label: statistics.median(values) for label, values in by_kind.items()}
        p50 = statistics.median(kind_cost.values())
        tail, beyond = nearest_rank([kind_cost[label] for label, _, _ in samples], workload.tail_percentile)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_probes": (statistics.median(costs), "probe"),
            "op_p50_probes": (p50, "probe"),
            "op_tail_probes": (tail, "probe"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        probe_ms = [seconds * 1000 for _, _, seconds in speed.samples]
        shape = {
            "passes": passes,
            "warmup_ops": warmed,
            "pass_walls_s": walls,
            "pass_costs_probes": costs,
            "tail_percentile": workload.tail_percentile,
            "tail_samples_beyond": beyond,
            "setup_runs_s": setup,
            "probe_count": len(probe_ms),
            "probe_ms_quartiles": statistics.quantiles(probe_ms, n=4),
        }

    attempted = len(samples) + warmed
    by_label: dict[str, list[float]] = {}
    cost_by_label: dict[str, list[float]] = {}
    for label, seconds, cost in samples:
        by_label.setdefault(label, []).append(round(seconds * 1000, 2))
        if cost is not None:
            cost_by_label.setdefault(label, []).append(round(cost, 2))
    header = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "load": "closed loop, one client, one operation at a time",
        "op_samples": len(samples),
        **shape,
        "op_latency_ms": {label: sorted(ms) for label, ms in sorted(by_label.items())},
        "op_cost_probes": {label: sorted(c) for label, c in sorted(cost_by_label.items())},
        "error_rate": len(failures) / attempted,
        "failures": failures[:5],
    }
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"header": header}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
