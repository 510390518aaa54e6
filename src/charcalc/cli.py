"""Command-line surface.

Three subcommands:

* ``verify``    — run the identity verification suites over a rank range.
* ``conductor`` — run the conductor pipeline on a model file.
* ``explain``   — print the strata table and the conductor derivation,
                  line by line, for a model file.

The checks of ``verify`` are declared in one table, :data:`charcalc.verify.CHECKS`:
its names, order and default degrees give the ``--checks`` default and help, the
``--max-degree`` help, the dispatch and the degree refusal here.

Exit codes: 0 all checks pass, 1 a check failed (including tameness and
consistency refusals), 2 usage, parse, or validation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import cache, wraps

from .conductor import (
    ConductorReport,
    ConsistencyError,
    FiberDerivation,
    ModelValidationError,
    TamenessError,
    conductor_report,
)
from .modelfile import ModelParseError, load_model
from .series import render_sum
from .verify import CHECKS

DEFAULT_RANK_CAP = 12
# --max-degree is bounded for the O(D^2) line series, and past every default degree by _orbits.
MAX_DEGREE_LIMIT = 64
MAX_ORBITS = 300_000


@cache
def build_parser() -> argparse.ArgumentParser:
    """The full ``charcalc`` parser, built at the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="charcalc",
        description=(
            "Exact verification of characteristic-class identities and "
            "conductor arithmetic on normal-crossings reduction data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    degree_checks = [name for name, (_, default) in CHECKS.items() if default]
    verify = sub.add_parser("verify", help="run identity verification suites")
    verify.add_argument(
        "--checks",
        default=",".join(CHECKS),
        help=f"comma-separated subset of {{{','.join(CHECKS)}}}",
    )
    verify.add_argument("--rank-min", type=int, default=1)
    verify.add_argument("--rank-max", type=int, default=4)
    verify.add_argument(
        "--max-degree",
        type=int,
        default=None,
        help=f"raise the truncation degree of {' and '.join(degree_checks)}, to at most "
        f"{MAX_DEGREE_LIMIT} and {MAX_ORBITS:,} S_n-orbits of monomials",
    )
    verify.add_argument(
        "--rank-cap",
        type=int,
        default=DEFAULT_RANK_CAP,
        help="override the safety cap on --rank-max",
    )
    verify.add_argument("--output", choices=("text", "machine"), default="text")
    conductor = sub.add_parser("conductor", help="run the conductor pipeline")
    conductor.add_argument("--model", required=True, help="path to a JSON model file")
    conductor.add_argument("--output", choices=("text", "machine"), default="text")
    explain = sub.add_parser("explain", help="print the strata table and derivation")
    explain.add_argument("--model", required=True, help="path to a JSON model file")
    return parser


# -- verify ---------------------------------------------------------------


def _run_checks(names, rank_min: int, rank_max: int, max_degree: int | None):
    """The results of the checks ``names`` at each rank, a degree check at the larger of
    its default degree and ``max_degree``."""
    results = []
    for n in range(rank_min, rank_max + 1):
        for name in names:
            run, default = CHECKS[name]
            degree = None if default is None else max(default(n), max_degree or 0)
            results += run(n, degree)
    return results


def _orbits(n: int, D: int) -> int:
    """The S_n-orbits of monomials of degree at most D in n symbols, one coefficient each
    in symmetric_ch and both checks' right sides, about 3 us each in either check at degree 40-64:
    the partitions of 0..D into at most n parts, or with no part above n, by adding the
    parts 1..min(n, D) one at a time."""
    ways = [1] + [0] * D
    for part in range(1, min(n, D) + 1):
        for d in range(part, D + 1):
            ways[d] += ways[d - part]
    return sum(ways)


def _verify_refusal(names, args) -> str | None:
    """Why ``verify`` refuses these arguments, or None if it runs them."""
    unknown = [c for c in names if c not in CHECKS]
    if unknown:
        return f"unknown checks {unknown}; choose from {list(CHECKS)}"
    if not names:
        return "--checks selected no checks"
    if not 1 <= args.rank_min <= args.rank_max:
        return "need 1 <= --rank-min <= --rank-max"
    if args.rank_max > args.rank_cap:
        return (
            f"--rank-max {args.rank_max} exceeds the cap {args.rank_cap}. "
            "The truncated-series products grow combinatorially with the rank; "
            "pass --rank-cap explicitly to go higher."
        )
    n, D = args.rank_max, args.max_degree
    if D is not None and D < 0:
        return f"--max-degree must be non-negative, got {D}"
    if D is None or all(CHECKS[c][1] is None for c in names):
        return None
    if D > MAX_DEGREE_LIMIT:
        return f"--max-degree {D} exceeds the limit {MAX_DEGREE_LIMIT}"
    # up to the largest default degree, D costs no more than a default run
    top = max(default(n) for _, default in CHECKS.values() if default)
    if D > top and (orbits := _orbits(n, D)) > MAX_ORBITS:
        return f"--max-degree {D} at --rank-max {n} means {orbits:,} orbits, over {MAX_ORBITS:,}"
    return None


def cmd_verify(args) -> int:
    # a repeated name runs once, in first-seen order
    names = list(dict.fromkeys(c.strip() for c in args.checks.split(",") if c.strip()))
    refusal = _verify_refusal(names, args)
    if refusal:
        print(f"error: {refusal}", file=sys.stderr)
        return 2
    results = _run_checks(names, args.rank_min, args.rank_max, args.max_degree)
    ok = all(r.ok for r in results)
    if args.output == "machine":
        payload = {
            "command": "verify",
            "status": "pass" if ok else "fail",
            "checks": [r.as_dict() for r in results],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in results:
            label = "PASS" if r.ok else "FAIL"
            params = " ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            line = f"{label} {r.check} {params}"
            if r.detail and not r.ok:
                line += f"  ({r.detail})"
            print(line)
        passed = sum(1 for r in results if r.ok)
        print(f"{passed}/{len(results)} checks passed")
    return 0 if ok else 1


# -- conductor ------------------------------------------------------------


def _render_log_terms(terms) -> str:
    return render_sum(f"log({p})" if coeff == 1 else f"{coeff}*log({p})" for p, coeff in terms)


def _approx_log(terms) -> str:
    """sum c*log(p) to 12 significant digits, in floats where they hold it, else in
    decimals: past the float range, or when the sum cancels to below a thousandth of
    its largest term.  The decimals start at 30 digits and double until two runs give
    the same nonzero 12 digits.  That ends: zero exponents are omitted and the logs of
    distinct primes are linearly independent over Q, so the sum is never 0."""
    try:
        floats = [float(c) * math.log(p) for p, c in terms]
    except OverflowError:
        floats = [math.inf]
    value = sum(floats)
    if math.isfinite(value) and abs(value) >= 1e-3 * max(map(abs, floats), default=0):
        return f"{value:.12g}"
    previous, prec = None, 30
    while True:
        with localcontext(Context(prec=prec)):
            value = sum(c.numerator / Decimal(c.denominator) * Decimal(p).ln() for p, c in terms)
        shown = f"{value.normalize(Context(prec=12)):g}"
        if shown == previous != "0":
            return shown
        previous, prec = shown, 2 * prec


def _render_conductor(factors) -> str:
    """A(X) from the report's factors, which are by prime; 1 when there are none."""
    return " * ".join(f"{p}^{e}" for p, e in factors.items()) or "1"


def _print_conductor_text(report: ConductorReport) -> None:
    print(f"relative dimension d = {report.relative_dimension}")
    chi_q = "unspecified" if report.generic_euler is None else report.generic_euler
    print(f"generic fiber Euler characteristic chi(X_Q) = {chi_q}")
    for s in report.primes:
        print(
            f"prime {s.prime}: chi(X_{s.prime}) = {s.chi_fiber}; "
            f"bloch degree = {s.bloch_degree}; exponent f_{s.prime} = {s.exponent}; "
            f"tame; generic-Euler check ok"
        )
    print(f"A(X) = {_render_conductor(report.conductor_factors)}")
    if report.has_negative_exponents:
        print("note: exponent f_p = chi(X_Q) - chi(X_p) (Artin); negative means A(X) < 1")
    terms = report.log_eps_terms
    print(f"log|eps(X)| = {_render_log_terms(terms)}  [exact]")
    print(f"            ~= {_approx_log(terms)}  [approximate]")


def _model_command(command):
    """Run ``command(args, report)`` on the conductor_report of the model read from
    ``args.model``, not yet checked; a refused file exits 2.  The reader keeps the
    int-to-str digit limit and the report is derived and rendered without it: each
    value it prints is a sum of products of at most three literals."""

    @wraps(command)
    def run(args) -> int:
        try:
            model = load_model(args.model)  # parse_model validates and normalizes it
        except (ModelParseError, ModelValidationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return command(args, conductor_report(model))
        finally:
            sys.set_int_max_str_digits(limit)

    return run


@_model_command
def cmd_conductor(args, report) -> int:
    try:
        report.checked()
    except (TamenessError, ConsistencyError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    if args.output == "machine":
        payload = {
            "command": "conductor",
            "status": "pass",
            "report": report.as_dict(),
            "log_eps_approx": _approx_log(report.log_eps_terms),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        _print_conductor_text(report)
    return 0


# -- explain --------------------------------------------------------------


def _print_derivation(d: FiberDerivation) -> None:
    fiber = d.fiber
    print(f"\nprime {fiber.prime}:")
    mult = {cid: str(m) for cid, m, _ in fiber.components}
    # by depth, then members: strata of one depth have as many members, so these flat
    # tuples sort as (depth, members) would, and no two strata share both
    rows = sorted((len(J), *sorted(J), closed, opened) for J, closed, opened in fiber.strata)
    table = [f"  {'J':<24} {'m':>3} {'chi(T_J)':>9} {'chi_c(T*_J)':>12}"]
    table += [
        "  %-24s %3s %9d %12d"
        % ("{" + ",".join(members) + "}", mult[members[0]] if depth == 1 else "", closed, opened)
        for depth, *members, closed, opened in rows
    ]
    print("\n".join(table))
    if not d.tame.ok:
        print(f"  not tame: p divides multiplicity of {', '.join(d.tame.offenders)}")
        return
    print(f"  chi(X_{fiber.prime}) = sum of chi_c(T*_J) = {d.chi_fiber}")
    print("  bloch degree two ways:")
    print(
        f"    -(sum (m_i - 1) chi*) + (sum chi* over |J| >= 2) "
        f"= -({d.singles}) + {d.deep} = {d.bloch_degree}"
    )
    print(
        f"    -(sum m_i chi*) + chi(X_p) = -({d.weighted_sum}) + {d.chi_fiber} "
        f"= {d.bloch_degree}"
    )


@_model_command
def cmd_explain(args, report) -> int:
    print(f"relative dimension d = {report.relative_dimension}")
    for d in report.entries:
        _print_derivation(d)
    try:
        report.checked()
    except TamenessError:
        print("\ntameness failed; the conductor formula does not apply", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"\ncheck failed: {exc}", file=sys.stderr)
        return 1
    chi_q = "unspecified" if report.generic_euler is None else report.generic_euler
    print(f"\nchi(X_Q) = {chi_q}")
    for s in report.primes:
        print(
            f"exponent: f_{s.prime} = chi(X_Q) - chi(X_{s.prime}) = "
            f"{report.generic_euler} - {s.chi_fiber} = {s.exponent}"
        )
    print(f"A(X) = {_render_conductor(report.conductor_factors)}")
    half = Fraction(report.relative_dimension + 1, 2)
    print(
        f"log|eps(X)| = (d+1)/2 * log A(X) = {half} * "
        f"({_render_log_terms(report.log_conductor_terms)}) = "
        f"{_render_log_terms(report.log_eps_terms)}"
    )
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "conductor":
        return cmd_conductor(args)
    return cmd_explain(args)


if __name__ == "__main__":
    sys.exit(main())
