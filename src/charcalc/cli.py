"""Command-line surface.

Three subcommands:

* ``verify``    — run the identity verification suites over a rank range.
* ``conductor`` — run the conductor pipeline on a model file.
* ``explain``   — print the strata table and the conductor derivation,
                  line by line, for a model file.

Exit codes: 0 all checks pass, 1 a check failed (including tameness and
consistency refusals), 2 usage, parse, or validation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import wraps
from itertools import accumulate

from .conductor import (
    ConductorReport,
    ConsistencyError,
    FiberDerivation,
    ModelValidationError,
    TamenessError,
    _derive_validated,
    conductor_report,
)
from .modelfile import ModelParseError, load_model
from .series import dominant_exponents, render_sum
from .verify import (
    CheckResult,
    generic_lines,
    repeated_root_lines,
    verify_borel_serre,
    verify_ch_gamma,
    verify_gala,
    verify_hom_laws,
    verify_prop_chtd,
)

CHECK_NAMES = ("gala", "borel_serre", "ch_gamma", "prop_chtd", "homomorphism")
DEFAULT_RANK_CAP = 12
HOM_LAW_SEED = 0
# The checks that read --max-degree: each verifier and its default degree less the rank n.
# Past n + 1, --max-degree is bounded for the O(D^2) line series and by _root_prefixes.
DEGREE_CHECKS = {"borel_serre": (verify_borel_serre, 0), "ch_gamma": (verify_ch_gamma, 1)}
MAX_DEGREE_LIMIT = 64
MAX_ROOT_PREFIXES = 10**6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charcalc",
        description=(
            "Exact verification of characteristic-class identities and "
            "conductor arithmetic on normal-crossings reduction data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run identity verification suites")
    verify.add_argument(
        "--checks",
        default=",".join(CHECK_NAMES),
        help=f"comma-separated subset of {{{','.join(CHECK_NAMES)}}}",
    )
    verify.add_argument("--rank-min", type=int, default=1)
    verify.add_argument("--rank-max", type=int, default=4)
    verify.add_argument(
        "--max-degree",
        type=int,
        default=None,
        help=f"raise the truncation degree of borel_serre and ch_gamma, to at most "
        f"{MAX_DEGREE_LIMIT} and {MAX_ROOT_PREFIXES:,} root prefixes to sum",
    )
    verify.add_argument(
        "--rank-cap",
        type=int,
        default=DEFAULT_RANK_CAP,
        help="override the safety cap on --rank-max",
    )
    verify.add_argument("--output", choices=("text", "machine"), default="text")

    conductor_cmd = sub.add_parser("conductor", help="run the conductor pipeline")
    conductor_cmd.add_argument("--model", required=True, help="path to a JSON model file")
    conductor_cmd.add_argument("--output", choices=("text", "machine"), default="text")

    explain = sub.add_parser("explain", help="print the strata table and derivation")
    explain.add_argument("--model", required=True, help="path to a JSON model file")
    return parser


# -- verify ---------------------------------------------------------------


def _run_checks(names, rank_min: int, rank_max: int, max_degree: int | None):
    results: list[CheckResult] = []
    for n in range(rank_min, rank_max + 1):
        for name in names:
            if name == "gala":
                results.append(verify_gala(generic_lines(n)))
                if n >= 2:
                    result = verify_gala(repeated_root_lines(n))
                    results.append(replace(result, params={**result.params, "roots": "repeated"}))
            elif name in DEGREE_CHECKS:
                verify, offset = DEGREE_CHECKS[name]
                results.append(verify(n, max(n + offset, max_degree or 0)))
            elif name == "prop_chtd":
                results.append(verify_prop_chtd(n))
            elif name == "homomorphism":
                results.append(verify_hom_laws(n, seed=HOM_LAW_SEED))
    return results


def _root_prefixes(n: int, D: int) -> int:
    """The root prefixes symmetric_ch may sum at rank n and degree D, about 2 us each in
    borel_serre, counted until past MAX_ROOT_PREFIXES: 2^k per orbit of k symbols, since
    the roots of both checks' elements have entries 0 and 1 or 0 and -1."""
    for total in accumulate(2 ** (len(e) - e.count(0)) for e in dominant_exponents(min(n, D), D)):
        if total > MAX_ROOT_PREFIXES:
            break
    return total


def _verify_refusal(names, args) -> str | None:
    """Why ``verify`` refuses these arguments, or None if it runs them."""
    unknown = [c for c in names if c not in CHECK_NAMES]
    if unknown:
        return f"unknown checks {unknown}; choose from {list(CHECK_NAMES)}"
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
    if D is None or not DEGREE_CHECKS.keys() & names:
        return None
    if D > MAX_DEGREE_LIMIT:
        return f"--max-degree {D} exceeds the limit {MAX_DEGREE_LIMIT}"
    if D > n + 1 and _root_prefixes(n, D) > MAX_ROOT_PREFIXES:
        return f"--max-degree {D} at --rank-max {n} means over {MAX_ROOT_PREFIXES:,} root prefixes"
    return None


def cmd_verify(args) -> int:
    names = [c.strip() for c in args.checks.split(",") if c.strip()]
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
    30-digit decimals; a sum that cancels far below its largest term loses digits."""
    try:
        value = sum(float(c) * math.log(p) for p, c in terms)
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return f"{value:.12g}"
    with localcontext(Context(prec=30)):
        value = sum(c.numerator / Decimal(c.denominator) * Decimal(p).ln() for p, c in terms)
    return f"{value.normalize(Context(prec=12)):g}"


def _render_conductor(factors: dict[int, int]) -> str:
    if not factors:
        return "1"
    return " * ".join(f"{p}^{e}" for p, e in sorted(factors.items()))


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
    """Run ``command(args, model)`` on the model read from ``args.model``; a refused
    file exits 2.  The reader keeps the int-to-str digit limit and the command runs
    without it: each value it prints is a sum of products of at most three literals."""

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
            return command(args, model)
        finally:
            sys.set_int_max_str_digits(limit)

    return run


@_model_command
def cmd_conductor(args, model) -> int:
    try:
        report = conductor_report(model, _derive_validated(model))
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


def _stratum_key(stratum):
    return (len(stratum.components), tuple(sorted(stratum.components)))


def _print_derivation(d: FiberDerivation) -> None:
    fiber = d.fiber
    print(f"\nprime {fiber.prime}:")
    print(f"  {'J':<24} {'m':>3} {'chi(T_J)':>9} {'chi_c(T*_J)':>12}")
    mult = {c.id: c.multiplicity for c in fiber.components}
    for s in sorted(fiber.strata, key=_stratum_key):
        label = "{" + ",".join(sorted(s.components)) + "}"
        m = mult[next(iter(s.components))] if len(s.components) == 1 else ""
        print(f"  {label:<24} {str(m):>3} {s.chi_closed:>9} {s.chi_open:>12}")
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
def cmd_explain(args, model) -> int:
    fibers = _derive_validated(model)
    print(f"relative dimension d = {model.relative_dimension}")
    for d in fibers:
        _print_derivation(d)
    try:
        report = conductor_report(model, fibers)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "conductor":
        return cmd_conductor(args)
    return cmd_explain(args)


if __name__ == "__main__":
    sys.exit(main())
