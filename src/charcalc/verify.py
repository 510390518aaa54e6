"""Exact verifiers for the characteristic-class identities.

Each verifier instantiates the relevant virtual bundle with generic
independent line symbols (one symbol per line, so identities established
here hold universally by the splitting principle), evaluates both sides of
the identity with exact arithmetic, and reports equality.  Failure is a
report, never an exception.

Every class of n generic lines is symmetric in a1..an, so ``borel_serre``,
``ch_gamma`` and ``prop_chtd`` evaluate both sides as
:class:`~charcalc.series.SymmetricSeries`, one coefficient per S_n-orbit of
monomials: :func:`~charcalc.lambda_ring.symmetric_ch` on the left, a closed
form on the right.  ``gala`` compares K-elements, and ``homomorphism`` runs on
random elements that are not symmetric, so both stay dense.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import factorial, prod

from .lambda_ring import (
    KElement,
    TSeries,
    _multiplicative,
    alternating_lambda_sum,
    ch,
    chern_k,
    gamma_k,
    gamma_t,
    lambda_t,
    symmetric_ch,
    todd_line,
)
from .series import SymmetricSeries, dominant_exponents

DIFF_SAMPLES = 5


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verifier run."""

    check: str
    params: dict = field(default_factory=dict)
    ok: bool = False
    detail: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


def _differences(lhs, rhs) -> str:
    """Bounded report of where two series, or two KElements, differ: the
    number of differing terms, the lowest differing degree of a series, and
    at most DIFF_SAMPLES differing terms in the order of ``terms()``.
    Empty when they are equal."""
    left, right = dict(lhs.terms()), dict(rhs.terms())
    keys = [k for k in left.keys() | right.keys() if left.get(k, 0) != right.get(k, 0)]
    if not keys:
        return ""
    degree = lhs._degree
    if degree is None:
        keys.sort()
        head = f"{len(keys)} terms differ"
    else:
        keys.sort(key=lambda key: (degree(key), key))
        head = f"{len(keys)} terms differ, lowest degree {degree(keys[0])}"
    labels = [lhs._render_key(key) or "1" for key in keys[:DIFF_SAMPLES]]
    samples = [f"{label}: {left.get(k, 0)} vs {right.get(k, 0)}" for label, k in zip(labels, keys)]
    return "; ".join([head, *samples])


def generic_lines(n: int) -> KElement:
    """The sum of n independent lines [a1] + ... + [an] over n symbols."""
    if n < 1:
        raise ValueError("need at least one line")
    roots = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return KElement.sum_of_lines(roots)


def repeated_root_lines(rank: int) -> KElement:
    """An effective element of the given rank with one doubled line."""
    if rank < 2:
        raise ValueError("a repeated root needs rank at least 2")
    n = rank - 1
    roots = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return KElement.sum_of_lines(roots + [roots[0]])


def verify_gala(x: KElement) -> CheckResult:
    """Check (-1)^d gamma^d(x - d[0]) = sum_{i=0}^{d} (-1)^i lambda^i(x)
    for d = rank(x)."""
    d = x.rank
    if d < 0:
        raise ValueError(f"element must have non-negative rank, got {d}")
    reduced = x - d * KElement.unit(x.symbol_count)
    lhs = gamma_k(reduced, d)
    if d % 2:
        lhs = -lhs
    detail = _differences(lhs, alternating_lambda_sum(x))
    return CheckResult("gala", {"rank": d}, not detail, detail)


def verify_borel_serre(n: int, max_degree: int | None = None) -> CheckResult:
    """Check ch(sum (-1)^i lambda^i(E*)) * Td(E) = c_n(E) for E a sum of n
    generic lines, exact in every degree up to the truncation; c(E) = prod (1 + a_i),
    so c_k(E) is the orbit sum m(1^k) and c_n(E) = a1 ... an."""
    E = generic_lines(n)
    D = n if max_degree is None else max_degree
    if D < n:
        raise ValueError(f"truncation degree must be at least {n}")
    lhs = symmetric_ch(alternating_lambda_sum(E.dual()), D, todd_line(1, D))
    detail = _differences(lhs, SymmetricSeries(n, D, {(1,) * n: 1}))
    return CheckResult("borel_serre", {"n": n, "max_degree": D}, not detail, detail)


def verify_ch_gamma(n: int, max_degree: int | None = None) -> CheckResult:
    """Check ch(gamma^{n-1}(x - n[0])) = sum_i prod_{j != i} (e^{a_j} - 1)
    for x a sum of n generic lines.

    The term i of the right side is the monomials with a_i absent and every
    other symbol present, each a^e with coefficient 1 / prod e_j!; so the
    right side is that coefficient at each dominant e with exactly one zero
    entry, and zero elsewhere."""
    x = generic_lines(n)
    D = n + 1 if max_degree is None else max_degree
    if D < n - 1:
        raise ValueError(f"truncation degree must be at least {n - 1}")
    reduced = x - n * KElement.unit(n)
    lhs = symmetric_ch(gamma_k(reduced, n - 1), D)
    rhs = SymmetricSeries(n, D, {
        e: Fraction(1, prod(map(factorial, e)))
        for e in dominant_exponents(n, D)
        if e.count(0) == 1
    })
    detail = _differences(lhs, rhs)
    return CheckResult("ch_gamma", {"n": n, "max_degree": D}, not detail, detail)


def verify_prop_chtd(n: int) -> CheckResult:
    """Three-part check on P = ch(gamma^{n-1}(x - n[0])) * Td(x*) at
    truncation n, for x a sum of n generic lines:

    1. components of P vanish below degree n-1 (the product is concentrated
       in the top two degrees),
    2. the degree n-1 component equals c_{n-1}(x) = m(1^{n-1}),
    3. the degree n component equals -(n/2) c_n(x) = -(n/2) m(1^n).
    """
    D = n
    x = generic_lines(n)
    reduced = x - n * KElement.unit(n)
    todd_dual = [c * (-1) ** k for k, c in enumerate(todd_line(1, D))]
    P = symmetric_ch(gamma_k(reduced, n - 1), D, todd_dual)
    c_below, c_top = (SymmetricSeries(n, D, {(1,) * k + (0,) * (n - k): 1}) for k in (n - 1, n))
    zero = SymmetricSeries(n, D)
    expected = [zero] * (n - 1) + [c_below, Fraction(-n, 2) * c_top]
    details = [_differences(P.component(k), want) for k, want in enumerate(expected)]
    failures = [f"degree {k} component: {d}" for k, d in enumerate(details) if d]
    return CheckResult("prop_chtd", {"n": n}, not failures, "; ".join(failures))


def random_k_element(rng: random.Random, n: int) -> KElement:
    """Small random group-ring element for property checks: one to three
    random lines, each with multiplicity in {-2, -1, 1, 2}."""
    terms: dict[tuple, int] = {}
    for _ in range(rng.randint(1, 3)):
        root = tuple(rng.randint(-1, 1) for _ in range(n))
        mult = rng.choice([-2, -1, 1, 2])
        terms[root] = terms.get(root, 0) + mult
    return KElement(n, terms)


def verify_hom_laws(
    n: int,
    max_degree: int = 3,
    cases: int = 20,
    seed: int = 0,
) -> CheckResult:
    """Randomized exact check of the structural laws: lambda_t and Todd
    multiplicativity, the Chern-character ring homomorphism, the gamma
    inverse law, and the Chern-class dual sign rule."""
    if cases < 1:
        raise ValueError("need at least one case")
    rng = random.Random(seed)
    D = max_degree
    t_max = 3
    failures = []
    for case in range(cases):
        x = random_k_element(rng, n)
        y = random_k_element(rng, n)
        if lambda_t(x + y, t_max) != lambda_t(x, t_max) * lambda_t(y, t_max):
            failures.append(f"case {case}: lambda_t not multiplicative on {x}, {y}")
        if gamma_t(x, t_max) * gamma_t(-x, t_max) != TSeries.one(n, t_max):
            failures.append(f"case {case}: gamma_t inverse law fails on {x}")
        ch_x, ch_y, ch_sum = ch(x, D), ch(y, D), ch(x + y, D)
        if ch_sum != ch_x + ch_y:
            failures.append(f"case {case}: ch not additive on {x}, {y}")
        if ch(x * y, D) != ch_x * ch_y:
            failures.append(f"case {case}: ch not multiplicative on {x}, {y}")
        # Todd and c are functions of ch, as in todd and total_chern
        td = todd_line(1, D)
        if _multiplicative(ch_sum, td) != _multiplicative(ch_x, td) * _multiplicative(ch_y, td):
            failures.append(f"case {case}: Todd not multiplicative on {x}, {y}")
        k = rng.randint(0, D)
        sign = -1 if k % 2 else 1
        if chern_k(x.dual(), k, D) != sign * _multiplicative(ch_x, (1, 1)).component(k):
            failures.append(f"case {case}: dual sign rule fails at k={k} on {x}")
        if failures:
            break
    return CheckResult(
        "homomorphism",
        {"n": n, "max_degree": D, "cases": cases},
        not failures,
        "; ".join(failures),
    )
