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
form on the right.  ``gala`` compares packed roots of the lambda kernel: the
fold of lambda_t that gamma_k unpacks against a packed product of the lines
1 - [r] that reads no lambda_t; it unpacks them into K-elements only to report
a difference.  ``homomorphism`` runs on random elements that are not
symmetric, and all its laws run on packed maps: the lambda_t and gamma_t laws
on the packed terms of the lambda kernel, the class laws on the numerator maps
of the ch and exp kernels (:func:`~charcalc.lambda_ring._ch_terms`,
:func:`~charcalc.lambda_ring._exp_terms`), each multiplied by
:func:`~charcalc.series._packed_product`.  No check multiplies a ``TSeries``,
and ``homomorphism`` builds no ``GradedSeries``.

:data:`CHECKS` is where a check of ``charcalc verify`` is declared: its name,
its runner and its default truncation degree.  The CLI dispatches, refuses and
writes its help from that table alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb, factorial, prod
from operator import mul

from .lambda_ring import (
    KElement,
    _ch_terms,
    _chern_weights,
    _class_terms,
    _exp_terms,
    _gamma_terms,
    _gamma_weights,
    _kelement,
    _lambda_fold,
    _lambda_terms,
    _todd_weights,
    alternating_lambda_sum,
    gamma_k,
    symmetric_ch,
    todd_line,
)
from .series import SymmetricSeries, _packed_product, dominant_exponents

DIFF_SAMPLES = 5


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verifier run."""

    check: str
    params: dict = field(default_factory=dict)
    ok: bool = False
    detail: str = ""

    def as_dict(self) -> dict:
        return {"check": self.check, "params": dict(self.params), "ok": self.ok,
                "detail": self.detail}


def _differences(lhs, rhs) -> str:
    """Bounded report of where two series, or two KElements, differ: the
    number of differing terms, the lowest differing degree of a series, and
    at most DIFF_SAMPLES differing terms in the order of ``terms()``.
    Empty when they are equal, before any term is listed."""
    if lhs == rhs:
        return ""
    left, right = dict(lhs.terms()), dict(rhs.terms())
    keys = [k for k in left.keys() | right.keys() if left.get(k, 0) != right.get(k, 0)]
    if lhs._bound is None:
        keys.sort()
        head = f"{len(keys)} terms differ"
    else:  # the degree of a series' exponent tuple is its sum
        keys.sort(key=lambda key: (sum(key), key))
        head = f"{len(keys)} terms differ, lowest degree {sum(keys[0])}"
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
    for an effective x of rank d.

    Both sides are built on the packed roots of the lambda kernel at one base
    B.  The left side is the fold of lambda_t that gamma_k unpacks
    (:func:`_lambda_fold`), its weights times (-1)^d.  The right side is
    lambda_{-1}(x) = prod (1 - [r])^m over the lines m[r] of x, multiplied by
    :func:`_packed_product` with no lambda_t, so the check sees a fault in
    either; each line's key is B times its packed root, and an entry of the
    product is at most d max |e| <= B // 2 in size, so no digit carries.  The
    maps are compared with zeros dropped, and unpacked into KElements only to
    report a difference.  For a virtual x the identity holds whatever lambda
    is, so one with a negative multiplicity, as every x of negative rank has,
    is refused with ValueError.
    """
    if any(m < 0 for m in x._nums.values()):
        raise ValueError(f"element must be effective, got {x}")
    d, n = x.rank, x.symbol_count
    B, lhs = _lambda_fold(x - d, d, [(-1) ** d * w for w in _gamma_weights(d)])  # d is d[0]
    powers = [B**i for i in range(1, n + 1)]
    rhs = {0: 1}
    for root, m in x._nums.items():
        step = sum(map(mul, root, powers))
        factor: dict[int, int] = {}  # (1 - [r])^m; every term of a trivial line r lands on key 0
        for k in range(m + 1):
            factor[k * step] = factor.get(k * step, 0) + (-1) ** k * comb(m, k)
        rhs = _packed_product(factor, rhs, B, 0)  # groups the larger map once
    lhs, rhs = _nonzero(lhs), {key // B: c for key, c in rhs.items() if c}
    detail = "" if lhs == rhs else _differences(_kelement(x, B, lhs), _kelement(x, B, rhs))
    return CheckResult("gala", {"rank": d}, not detail, detail)


def verify_borel_serre(n: int, max_degree: int | None = None) -> CheckResult:
    """Check ch(sum (-1)^i lambda^i(E*)) * Td(E) = c_n(E) for E a sum of n
    generic lines, exact in every degree up to the truncation; c(E) = prod (1 + a_i),
    so c_k(E) is the orbit sum m(1^k) and c_n(E) = a1 ... an.

    The left side's ch starts in degree n, so at truncation D it reads the Todd
    line through degree D - n: td_0 alone at D = n, td_0 and td_1 at D = n + 1.
    A wrong td_2 shows only from D = n + 2 on."""
    E = generic_lines(n)
    D = n if max_degree is None else max_degree
    if D < n:
        raise ValueError(f"truncation degree must be at least {n}")
    lhs = symmetric_ch(alternating_lambda_sum(E.dual()), D, todd_line(D))
    detail = _differences(lhs, SymmetricSeries(n, D, {(1,) * n: 1}))
    return CheckResult("borel_serre", {"n": n, "max_degree": D}, not detail, detail)


def _top_gamma(n: int) -> KElement:
    """gamma^{n-1}(x - n[0]) for x a sum of n generic lines."""
    return gamma_k(generic_lines(n) - n, n - 1)  # n is n[0]


def verify_ch_gamma(n: int, max_degree: int | None = None) -> CheckResult:
    """Check ch(gamma^{n-1}(x - n[0])) = sum_i prod_{j != i} (e^{a_j} - 1)
    for x a sum of n generic lines.

    The term i of the right side is the monomials with a_i absent and every
    other symbol present, each a^e with coefficient 1 / prod e_j!; so the
    right side is that coefficient at each dominant e with exactly one zero
    entry, and zero elsewhere.  Those e are f + 1 then 0, for f dominant in
    n - 1 symbols of degree at most D - n + 1, and the coefficients are the
    integer numerators D! / prod e_j! over D!, as in symmetric_ch."""
    top_gamma = _top_gamma(n)
    D = n + 1 if max_degree is None else max_degree
    if D < n - 1:
        raise ValueError(f"truncation degree must be at least {n - 1}")
    factorials = [factorial(k) for k in range(D + 1)]
    numerators = {(*(a + 1 for a in f), 0): factorials[D] // prod(factorials[a + 1] for a in f)
                  for f in dominant_exponents(n - 1, D - n + 1)}
    rhs = SymmetricSeries(n, D)._like(numerators, factorials[D])
    detail = _differences(symmetric_ch(top_gamma, D), rhs)
    return CheckResult("ch_gamma", {"n": n, "max_degree": D}, not detail, detail)


def verify_prop_chtd(n: int) -> CheckResult:
    """Three-part check on P = ch(gamma^{n-1}(x - n[0])) * Td(x*) at
    truncation n, for x a sum of n generic lines:

    1. components of P vanish below degree n-1 (the product is concentrated
       in the top two degrees),
    2. the degree n-1 component equals c_{n-1}(x) = m(1^{n-1}),
    3. the degree n component equals -(n/2) c_n(x) = -(n/2) m(1^n).

    The ch factor starts in degree n - 1, so at truncation n the check reads the
    Todd line only through degree 1 and cannot see a wrong td_2 or higher.
    """
    D = n
    todd_dual = [c * (-1) ** k for k, c in enumerate(todd_line(D))]
    P = symmetric_ch(_top_gamma(n), D, todd_dual)
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


def _nonzero(terms: dict) -> dict:
    """A packed term map with its cancelled, zero, terms dropped."""
    return {key: c for key, c in terms.items() if c}


# A series of the class laws is a kernel's (numerators, denominator) on packed keys.


def _same(lhs: tuple[dict, int], rhs: tuple[dict, int]) -> bool:
    """Whether two series are equal: each side's numerators times the other
    side's denominator, zeros dropped; over one denominator, the numerators."""
    (xs, d), (ys, e) = lhs, rhs
    if d == e:
        return _nonzero(xs) == _nonzero(ys)
    return {k: c * e for k, c in xs.items() if c} == {k: c * d for k, c in ys.items() if c}


def _series_sum(lhs: tuple[dict, int], rhs: tuple[dict, int]) -> tuple[dict, int]:
    """The sum of two series over one denominator, the sum of their numerators.
    Both must share it, as every ch at one degree D is over D! (:func:`_ch_terms`)."""
    (xs, d), (ys, _) = lhs, rhs
    total = dict(xs)
    for k, c in ys.items():
        total[k] = total.get(k, 0) + c
    return total, d


def _component(series: tuple[dict, int], k: int, D: int) -> tuple[dict, int]:
    """The degree-k part of a series truncated at D."""
    terms, den = series
    return {key: c for key, c in terms.items() if key % (D + 1) == k}, den


def _series_product(lhs: tuple[dict, int], rhs: tuple[dict, int], D: int) -> tuple[dict, int]:
    """The product of two series truncated at D (:func:`_packed_product`)."""
    return _packed_product(lhs[0], rhs[0], D + 1, D), lhs[1] * rhs[1]


def verify_hom_laws(n: int, cases: int = 20, seed: int = 0) -> CheckResult:
    """Randomized exact check of the structural laws: lambda_t and Todd
    multiplicativity, the Chern-character ring homomorphism, the gamma
    inverse law, and the Chern-class dual sign rule, at truncation degree
    and t-power 3.

    Every law runs on packed maps, multiplied by :func:`_packed_product`, and
    each series a case reads is built once at each truncation it is read at.
    The lambda_t and gamma_t laws compare packed terms at one base B, the larger of x's and y's own, which
    those of x + y and -x do not exceed: the lambda kernel
    (:func:`_lambda_terms`) packs x, y, x + y and -x at B, and
    gamma_t(x) and gamma_t(-x) are read off the lambda_t terms of x and -x
    (:func:`_gamma_terms`), so a case runs four lambda kernels.  Packed equality
    is equality of the ``TSeries``, none of which is built.  The ch and Todd laws
    compare the numerator maps of the ch and exp kernels (:func:`_ch_terms`,
    :func:`_exp_terms`) of x, y, x + y and x y over their denominators
    (:func:`_same`).  The dual sign rule runs at truncation k, the degree it
    reads: truncating at any degree from k on leaves the degree-k part as it
    is.  It compares c_k(x*), of :func:`_class_terms`, with c_k(x), of the exp
    kernel of ch(x) at k, which for k = 3 is the ch(x) of the class laws.  No
    ``GradedSeries`` is built.

    Some faults pass these laws.  Todd multiplicativity and the dual sign rule
    hold for any weight table once ch is additive, since both are functions of
    ch and ch_k(x*) = (-1)^k ch_k(x); so a wrong Todd or Chern class passes.
    The lambda_t and gamma_t laws hold for every multiplicative lambda_t; so a
    lambda that is another ring map, such as one that doubles every root,
    passes.  ``gala`` sees the latter."""
    if cases < 1:
        raise ValueError("need at least one case")
    rng = random.Random(seed)
    D = t_max = 3
    td = _todd_weights(D)  # Todd is a function of ch, as in todd
    failures = []
    for case in range(cases):
        x = random_k_element(rng, n)
        y = random_k_element(rng, n)
        x_plus_y = x + y
        Bx, lam_x = _lambda_terms(x, t_max)
        B, lam_y = _lambda_terms(y, t_max, Bx)
        if B > Bx:  # x, y, x + y and -x share the larger base, y's own
            lam_x = _lambda_terms(x, t_max, B)[1]
        product = _packed_product(lam_x, lam_y, B, t_max)
        if _nonzero(_lambda_terms(x_plus_y, t_max, B)[1]) != _nonzero(product):
            failures.append(f"case {case}: lambda_t not multiplicative on {x}, {y}")
        gam_x = _gamma_terms(B, lam_x, t_max)
        gam_minus_x = _gamma_terms(B, _lambda_terms(-x, t_max, B)[1], t_max)
        if _nonzero(_packed_product(gam_x, gam_minus_x, B, t_max)) != {0: 1}:
            failures.append(f"case {case}: gamma_t inverse law fails on {x}")
        ch_x, ch_y, ch_sum = _ch_terms(x, D), _ch_terms(y, D), _ch_terms(x_plus_y, D)
        if not _same(ch_sum, _series_sum(ch_x, ch_y)):
            failures.append(f"case {case}: ch not additive on {x}, {y}")
        if not _same(_ch_terms(x * y, D), _series_product(ch_x, ch_y, D)):
            failures.append(f"case {case}: ch not multiplicative on {x}, {y}")
        td_x, td_y = _exp_terms(*ch_x, td, D), _exp_terms(*ch_y, td, D)
        if not _same(_exp_terms(*ch_sum, td, D), _series_product(td_x, td_y, D)):
            failures.append(f"case {case}: Todd not multiplicative on {x}, {y}")
        k = rng.randint(0, D)
        sign = -1 if k % 2 else 1
        # c is a function of ch, as in total_chern; c(x) reads no _class_terms, so a
        # fault there shows on the x* side alone
        dual_k = _component(_class_terms(x.dual(), k, _chern_weights), k, k)
        ch_x_k = ch_x if k == D else _ch_terms(x, k)
        c_k, den = _component(_exp_terms(*ch_x_k, _chern_weights(k), k), k, k)
        if not _same(dual_k, (c_k, sign * den)):  # (-1)^k c_k(x), the sign on the denominator
            failures.append(f"case {case}: dual sign rule fails at k={k} on {x}")
        if failures:
            break
    return CheckResult(
        "homomorphism",
        {"n": n, "max_degree": D, "cases": cases},
        not failures,
        "; ".join(failures),
    )


def _gala_runs(n: int) -> list[CheckResult]:
    """gala on n generic lines and, from rank 2, on n lines with one root
    repeated, labelled roots=repeated."""
    results = [verify_gala(generic_lines(n))]
    if n >= 2:
        result = verify_gala(repeated_root_lines(n))
        results.append(replace(result, params={**result.params, "roots": "repeated"}))
    return results


# The checks of ``charcalc verify``, in the order they run.  Each name maps to
# run(n, D), its results at rank n and truncation degree D, and to its default
# degree at rank n, or None for a check that reads no degree (it is then run
# with D = None).  The runners look the verifiers up when they are called, so
# a verifier replaced on this module is the one that runs.
CHECKS = {
    "gala": (lambda n, D: _gala_runs(n), None),
    "borel_serre": (lambda n, D: [verify_borel_serre(n, D)], lambda n: n),
    "ch_gamma": (lambda n, D: [verify_ch_gamma(n, D)], lambda n: n + 1),
    "prop_chtd": (lambda n, D: [verify_prop_chtd(n)], None),
    "homomorphism": (lambda n, D: [verify_hom_laws(n)], None),
}
