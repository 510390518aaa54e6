"""The three workloads: their inputs, their operations and the checks on
every answer.

An operation is one call a user would make: one ``charcalc verify`` for one
check at one rank, one ``verify_hom_laws`` call, or one ``charcalc
conductor`` / ``charcalc explain`` on one model file.  The CLI runs in this
process through ``charcalc.cli.main(argv)`` with stdout and stderr captured.
"""

from __future__ import annotations

import io
import json
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import models

FRONTIER_CHECKS = ("gala", "borel_serre", "ch_gamma", "prop_chtd")


@dataclass(frozen=True)
class Op:
    """``call`` is the timed user call; ``check`` takes its result and
    returns None when the answer is right, else a one-line reason."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    # Model size handed to the conductor pipeline, for the per-fiber ratios.
    fibers: int = 0
    strata: int = 0


def interleaved(ops: list[Op], pass_index: int) -> list[Op]:
    """The pass's operations in a fixed shuffled order.

    Mixing cheap and costly operations spreads each kind over the whole
    pass, so that a slow spell of the machine does not land on all samples
    of one kind.  The order depends only on the pass index, never on the
    workload seed.
    """
    ordered = list(ops)
    random.Random(f"order/{pass_index}").shuffle(ordered)
    return ordered


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Passes in a run of --seconds 30, scaled in proportion to --seconds.
    # The count is fixed rather than timed, so the samples and the order
    # statistics below do not depend on the speed of the code under test.
    passes: int
    # Fixed nearest-rank percentile of op_tail_probes: the highest that leaves
    # ten samples above it at --seconds 30.
    tail_percentile: float
    build: Callable[[int, str, Path], Callable[[int], list[Op]]]


def call_cli(argv):
    from charcalc import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# -- verify-frontier ------------------------------------------------------------


def expected_frontier_checks(check: str, n: int) -> list:
    if check == "gala":
        return [("gala", {"rank": n}), ("gala", {"rank": n, "roots": "repeated"})]
    if check == "borel_serre":
        return [("borel_serre", {"n": n, "max_degree": n})]
    if check == "ch_gamma":
        return [("ch_gamma", {"n": n, "max_degree": n + 1})]
    return [("prop_chtd", {"n": n})]


def _frontier_op(name: str, n: int) -> Op:
    argv = ["verify", "--checks", name, "--rank-min", str(n), "--rank-max", str(n),
            "--rank-cap", "7", "--output", "machine"]
    expected = sorted(json.dumps(item, sort_keys=True) for item in expected_frontier_checks(name, n))

    def check(result):
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        payload = json.loads(out)
        if payload.get("status") != "pass":
            return f"status {payload.get('status')!r}"
        bad = [c for c in payload["checks"] if c.get("ok") is not True]
        if bad:
            return f"{len(bad)} checks not ok: {bad[0].get('detail', '')[:200]}"
        got = sorted(json.dumps([c["check"], c["params"]], sort_keys=True) for c in payload["checks"])
        if got != expected:
            return f"checks {got} != expected {expected}"
        return None

    return Op(f"{name}@n{n}", lambda: call_cli(argv), check)


def build_frontier(seed: int, size: str, workdir: Path):
    # generic_lines(n) is fixed, so the seed does not change these inputs.
    ranks = (5, 6, 7) if size == "full" else (2, 3)
    ops = [_frontier_op(check, n) for n in ranks for check in FRONTIER_CHECKS]
    return lambda pass_index: interleaved(ops, pass_index)


# -- verify-laws ------------------------------------------------------------------


def _laws_op(n: int, cases: int, case_seed: int) -> Op:
    def call():
        # Looked up at call time, so a traced pass calls the traced wrapper.
        from charcalc.verify import verify_hom_laws

        return verify_hom_laws(n, cases=cases, seed=case_seed)

    def check(result):
        if result.check != "homomorphism" or result.params != {"n": n, "max_degree": 3, "cases": cases}:
            return f"unexpected report {result.check} {result.params}"
        if not result.ok:
            return result.detail[:200]
        return None

    return Op(f"homomorphism@n{n}", call, check)


def build_laws(seed: int, size: str, workdir: Path):
    ranks, cases = ((3, 4, 5, 6), 20) if size == "full" else ((2, 3), 2)
    rng = random.Random(f"verify-laws/{seed}")
    case_seeds: list[int] = []

    def ops(pass_index: int) -> list[Op]:
        # Every pass draws a fresh case seed, so a run covers several
        # random draws; the same workload seed gives the same sequence.
        while len(case_seeds) <= pass_index:
            case_seeds.append(rng.randrange(2**31))
        return interleaved([_laws_op(n, cases, case_seeds[pass_index]) for n in ranks], pass_index)

    return ops


# -- conductor-models -------------------------------------------------------------


def render_conductor(exponents) -> str:
    factors = [(p, e) for p, e in sorted(exponents) if e]
    return " * ".join(f"{p}^{e}" for p, e in factors) if factors else "1"


def _conductor_op(case: models.ModelCase, path: Path) -> Op:
    argv = ["conductor", "--model", str(path), "--output", "machine"]
    factors = {str(p): e for p, e in case.exponents if e}

    def check(result):
        code, out, err = result
        if code != case.exit_code:
            return f"exit {code}, expected {case.exit_code}: {err.strip()[:200]}"
        if case.exit_code:
            return None
        report = json.loads(out)["report"]
        if report["conductor_factors"] != factors:
            return f"A(X) {report['conductor_factors']} != {factors}"
        got = sorted((row["prime"], row["exponent"]) for row in report["primes"])
        if got != sorted(case.exponents):
            return f"exponents {got} != {sorted(case.exponents)}"
        return None

    return Op(f"conductor:{case.label}", lambda: call_cli(argv), check, case.fibers, case.strata)


def _explain_op(case: models.ModelCase, path: Path) -> Op:
    argv = ["explain", "--model", str(path)]
    expected = f"A(X) = {render_conductor(case.exponents)}"

    def check(result):
        code, out, err = result
        if code != case.exit_code:
            return f"exit {code}, expected {case.exit_code}: {err.strip()[:200]}"
        if case.exit_code:
            return None
        lines = [line for line in out.splitlines() if line.startswith("A(X) = ")]
        if lines[-1:] != [expected]:
            return f"{lines[-1:]} != {expected!r}"
        return None

    return Op(f"explain:{case.label}", lambda: call_cli(argv), check, case.fibers, case.strata)


def build_conductor(seed: int, size: str, workdir: Path):
    cases = models.conductor_cases(seed, size)
    target = workdir / "models"
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    ops = []
    for case in cases:
        path = target / f"{case.label.replace('*', 'star')}.json"
        path.write_text(case.text, encoding="utf-8")
        ops += [_conductor_op(case, path), _explain_op(case, path)]
    return lambda pass_index: interleaved(ops, pass_index)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-frontier",
            "the rank frontier (ranks 5-7 of the symbolic checks); dominated by large dense "
            "GradedSeries products, exp and invert inside ch and todd; symmetric inputs",
            2,
            0.58,
            build_frontier,
        ),
        Workload(
            "verify-laws",
            "the same series and lambda-ring layers on many small products of random, "
            "asymmetric elements with negative multiplicities, every degree read",
            6,
            0.58,
            build_laws,
        ),
        Workload(
            "conductor-models",
            "the only workload on conductor, modelfile and the CLI's conductor side: "
            "lattice work in a few large fibers, primality work over many small ones",
            3,
            0.944,
            build_conductor,
        ),
    )
}
