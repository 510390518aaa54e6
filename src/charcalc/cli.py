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
from fractions import Fraction

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
from .series import render_sum
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
# Bounds on an explicit --max-degree: the degree and, once it passes n + 1 (the
# largest degree a default run builds), the C(n + D, D) monomials of a dense series
# in n = --rank-max symbols at D = --max-degree; C(15, 7) is ch_gamma at n = 7, D = 8.
MAX_DEGREE_LIMIT = 64
MAX_SERIES_TERMS = math.comb(15, 7)


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
        help="raise the series truncation degree of the degree-sensitive checks",
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
            elif name == "borel_serre":
                D = n if max_degree is None else max(n, max_degree)
                results.append(verify_borel_serre(n, D))
            elif name == "ch_gamma":
                D = n + 1 if max_degree is None else max(n + 1, max_degree)
                results.append(verify_ch_gamma(n, D))
            elif name == "prop_chtd":
                results.append(verify_prop_chtd(n))
            elif name == "homomorphism":
                results.append(verify_hom_laws(n, seed=HOM_LAW_SEED))
    return results


def _format_params(params: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(params.items()))


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
    if args.max_degree is not None:
        if args.max_degree < 0:
            return f"--max-degree must be non-negative, got {args.max_degree}"
        n, D = args.rank_max, max(args.max_degree, args.rank_max + 1)
        # C(n + D, D), one factor at a time and only up to 10^12: C(n + D, i) grows
        # up to i = min(n, D), and a huge one has more digits than int formats
        terms, shown = 1, 10**12
        for i in range(1, min(n, D) + 1):
            terms = terms * (n + D + 1 - i) // i
            if terms > shown:
                break
        costly = D > n + 1 and terms > MAX_SERIES_TERMS
        if args.max_degree > MAX_DEGREE_LIMIT or costly:
            size = f"up to {terms}" if terms <= shown else "more than 10^12"
            return (
                f"--max-degree {args.max_degree} at --rank-max {n} "
                f"means series of {size} terms; the limits are degree "
                f"{MAX_DEGREE_LIMIT} and {MAX_SERIES_TERMS} terms."
            )
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
            line = f"{label} {r.check} {_format_params(r.params)}"
            if r.detail and not r.ok:
                line += f"  ({r.detail})"
            print(line)
        passed = sum(1 for r in results if r.ok)
        print(f"{passed}/{len(results)} checks passed")
    return 0 if ok else 1


# -- conductor ------------------------------------------------------------


def _render_log_terms(terms) -> str:
    return render_sum(f"log({p})" if coeff == 1 else f"{coeff}*log({p})" for p, coeff in terms)


def _approx_log(terms) -> float:
    return sum(float(c) * math.log(p) for p, c in terms)


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
    print(f"            ~= {_approx_log(terms):.12g}  [approximate]")


def cmd_conductor(args) -> int:
    try:
        model = load_model(args.model)  # parse_model validates it
        report = conductor_report(model, _derive_validated(model))
    except (ModelParseError, ModelValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TamenessError, ConsistencyError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    if args.output == "machine":
        payload = {
            "command": "conductor",
            "status": "pass",
            "report": report.as_dict(),
            "log_eps_approx": f"{_approx_log(report.log_eps_terms):.12g}",
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


def cmd_explain(args) -> int:
    try:
        model = load_model(args.model)
        fibers = _derive_validated(model)
    except (ModelParseError, ModelValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"relative dimension d = {model.relative_dimension}")
    for d in fibers:
        _print_derivation(d)
    if not all(d.tame.ok for d in fibers):
        print("\ntameness failed; the conductor formula does not apply", file=sys.stderr)
        return 1
    try:
        report = conductor_report(model, fibers)
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
