"""Time one statement on two checkouts of charcalc, in one process, in pairs.

Both checkouts are imported into this interpreter: each side's ``charcalc``
modules are imported from its ``src/`` and kept aside, and ``sys.modules``
is switched to one side's modules before each of its runs, so a statement
that imports from ``charcalc`` gets that side.  The sides run in alternating
order, pair after pair, so that a slow spell of the host lands on both.  The
output is the median of the paired ratios (change over base), the pairs the
change won, each side's fastest run, the base's quartiles and the drop of the
median run, and whether the change meets the rule a claimed gain is held to:
faster in at least 9 of every 10 pairs, and a median drop above the
interquartile range (IQR) of the base's runs.

This sizes a change before it is benchmarked; a claim of a gain comes from
``bench/run.py``.  Run from anywhere, for example with the parent commit
unpacked in ``../parent``::

    python tools/pairs.py ../parent --pairs 50

The default statement is the work of six passes of the ``verify-laws``
workload: ``verify_hom_laws(n, cases=20, seed=s)`` for n = 3..6 and six seeds.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent.parent

SETUP = "from charcalc.verify import verify_hom_laws"
STATEMENT = "for s in range(6):\n    for n in (3, 4, 5, 6):\n        verify_hom_laws(n, cases=20, seed=s)"


def _ours(name: str) -> bool:
    return name == "charcalc" or name.startswith("charcalc.")


def load(root: Path, setup: str) -> tuple[dict, dict]:
    """The ``charcalc`` modules of the checkout at ``root``, and a namespace
    in which ``setup`` has run against them; ``sys.modules`` is left without
    any ``charcalc`` module."""
    src = str((root / "src").resolve())
    for name in [name for name in sys.modules if _ours(name)]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        import charcalc  # noqa: F401  (the package itself, from src)

        if not Path(charcalc.__file__).resolve().is_relative_to(Path(src)):
            raise SystemExit(f"charcalc resolved to {charcalc.__file__}, outside {src}")
        namespace: dict = {}
        exec(setup, namespace)
    finally:
        sys.path.remove(src)
    modules = {name: module for name, module in sys.modules.items() if _ours(name)}
    for name in modules:
        del sys.modules[name]
    return modules, namespace


def timed(side: tuple[dict, dict], code) -> float:
    """Seconds of one run of ``code`` with ``side``'s modules in place.  A module
    the run imports, as the CLI imports each command's modules when it runs, is
    kept aside with the side's others, so it is imported once, not on every run."""
    modules, namespace = side
    sys.modules.update(modules)
    try:
        gc.collect()
        start = perf_counter()
        exec(code, namespace)
        return perf_counter() - start
    finally:
        for name in [name for name in sys.modules if _ours(name)]:
            modules[name] = sys.modules.pop(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="root of the checkout to compare against")
    parser.add_argument("change", type=Path, nargs="?", default=HERE,
                        help="root of the checkout under test (default: this one)")
    parser.add_argument("--setup", default=SETUP, help="run once per side, untimed")
    parser.add_argument("--stmt", default=STATEMENT, help="the statement timed in each run")
    parser.add_argument("--pairs", type=int, default=30, help="pairs of runs (default 30)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    base, change = load(args.base, args.setup), load(args.change, args.setup)
    code = compile(args.stmt, "<stmt>", "exec")
    timed(base, code), timed(change, code)  # warm both sides' caches
    ratios, base_s, change_s = [], [], []
    for i in range(args.pairs):
        if i % 2:
            b, c = timed(base, code), timed(change, code)
        else:
            c, b = timed(change, code), timed(base, code)
        base_s.append(b)
        change_s.append(c)
        ratios.append(c / b)
    wins = sum(r < 1 for r in ratios)
    print(f"median ratio {statistics.median(ratios):.3f}  (change / base, {args.pairs} pairs)")
    print(f"change faster in {wins} of {args.pairs} pairs")
    print(f"fastest run: base {min(base_s):.4f} s, change {min(change_s):.4f} s")
    q1, q2, q3 = quartiles(base_s)
    drop = q2 - statistics.median(change_s)
    print(f"base quartiles {q1:.4f} {q2:.4f} {q3:.4f} s (IQR {q3 - q1:.4f} s); "
          f"median drop {drop:.4f} s")
    print(f"{RULE}: {'met' if claim_met(base_s, change_s, wins) else 'not met'}")
    return 0


RULE = "claim rule (faster in at least 9 of 10 pairs, median drop above the base IQR)"


def claim_met(base_runs: list[float], change_runs: list[float], wins: int) -> bool:
    """Whether the change, faster in ``wins`` of the pairs, meets the rule a
    claimed gain is held to (:data:`RULE`)."""
    q1, q2, q3 = quartiles(base_runs)
    return 10 * wins >= 9 * len(base_runs) and q2 - statistics.median(change_runs) > q3 - q1


def quartiles(runs: list[float]) -> tuple[float, float, float]:
    """The lower quartile, median and upper quartile of ``runs``."""
    if len(runs) < 2:
        return runs[0], runs[0], runs[0]
    q1, q2, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return q1, q2, q3


if __name__ == "__main__":
    sys.exit(main())
