"""Time charcalc's commands as fresh processes on two checkouts, in pairs.

The fresh-process twin of ``tools/pairs.py``: each run starts a new
interpreter, so it times what one call of the CLI pays, the import included.
The commands are ``import charcalc.cli`` alone and ``charcalc conductor``,
``charcalc explain`` and ``charcalc verify --rank-max 1``, the first two on
``models/elliptic_i3.json`` of this checkout.  In each pair every command runs
once on each side, the side that goes first alternating from pair to pair, so
that a slow spell of the host lands on both.

Each side's ``charcalc`` package is copied into a temporary directory, without
its ``__pycache__``, and imported from there.  By default the copies are never
compiled to bytecode (``PYTHONDONTWRITEBYTECODE=1``), so every run compiles the
package from source, as a checkout does when nothing writes bytecode; with
``--bytecode`` an untimed first run of each command writes it, and every timed
run reads it.  The standard library is read as installed either way.

For each command the output gives each side's median and quartiles, the pairs
the change won, and whether it meets the rule a claimed gain is held to:
faster in at least 9 of every 10 pairs, and a median drop above the
interquartile range (IQR) of the base's runs.  Run from anywhere, for example
with the parent commit unpacked in ``../parent``::

    python tools/fresh.py ../parent --pairs 21
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from pairs import RULE, claim_met, quartiles

HERE = Path(__file__).resolve().parent.parent
MODEL = str(HERE / "models" / "elliptic_i3.json")

COMMANDS = {
    "import": ["-c", "import charcalc.cli"],
    "conductor": ["-m", "charcalc.cli", "conductor", "--model", MODEL],
    "explain": ["-m", "charcalc.cli", "explain", "--model", MODEL],
    "verify": ["-m", "charcalc.cli", "verify", "--rank-max", "1"],
}


def stage(root: Path, into: Path, bytecode: bool) -> dict:
    """The environment of a run of the ``charcalc`` of the checkout at ``root``,
    copied into ``into``."""
    package = root / "src" / "charcalc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no charcalc sources under {root / 'src'}")
    shutil.copytree(package, into / "charcalc", ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(into))
    if bytecode:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def timed(env: dict, argv: list[str]) -> float:
    """Wall seconds of one fresh interpreter running ``argv``, which must exit 0."""
    start = perf_counter()
    # No timeout: waiting with one makes subprocess poll at up to 50 ms intervals.
    subprocess.run([sys.executable, *argv], env=env, cwd=env["PYTHONPATH"],
                   stdout=subprocess.DEVNULL, check=True)
    return perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="root of the checkout to compare against")
    parser.add_argument("change", type=Path, nargs="?", default=HERE,
                        help="root of the checkout under test (default: this one)")
    parser.add_argument("--pairs", type=int, default=21, help="pairs of runs (default 21)")
    parser.add_argument("--bytecode", action="store_true",
                        help="compile each side to bytecode first, and time runs that read it")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="charcalc-fresh-") as tmp:
        sides = [stage(root, Path(tmp, name), args.bytecode)
                 for name, root in (("base", args.base), ("change", args.change))]
        for env in sides:  # untimed: checks each command, and writes bytecode if asked to
            for command in COMMANDS.values():
                timed(env, command)
        runs = {name: ([], []) for name in COMMANDS}
        for i in range(args.pairs):
            for name, command in COMMANDS.items():
                order = (1, 0) if i % 2 else (0, 1)
                for side in order:
                    runs[name][side].append(timed(sides[side], command))
    bytecode = "read" if args.bytecode else "not written"
    print(f"fresh processes, {args.pairs} pairs, bytecode {bytecode}")
    for name, (base_s, change_s) in runs.items():
        wins = sum(c < b for b, c in zip(base_s, change_s))
        b1, b2, b3 = (1000 * q for q in quartiles(base_s))
        c1, c2, c3 = (1000 * q for q in quartiles(change_s))
        print(f"{name:<9} base {b2:6.1f} ms [{b1:.1f}, {b3:.1f}]  change {c2:6.1f} ms "
              f"[{c1:.1f}, {c3:.1f}]  {100 * (c2 / b2 - 1):+.1f}%  "
              f"change faster in {wins} of {args.pairs}; "
              f"claim rule {'met' if claim_met(base_s, change_s, wins) else 'not met'}")
    print(f"({RULE}; medians [quartiles])")
    return 0


if __name__ == "__main__":
    sys.exit(main())
