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
fold of lambda_t (:func:`~charcalc.lambda_ring._lambda_fold`), the one fold
that gamma_t, gamma_k and the alternating lambda sum read, against a packed
product of the lines 1 - [r] that reads no lambda_t; it unpacks them into
K-elements only to report a difference.  ``homomorphism`` runs on random
elements that are not symmetric, and all its laws run on packed maps: the
lambda_t law on the packed terms of the lambda kernel and the ch laws on the
numerator maps of the ch kernel (:func:`~charcalc.lambda_ring._ch_terms`), with
products by :func:`~charcalc.series._packed_product`; and its line laws on the
Todd and Chern classes of one line and of its negative, the exp kernel of each
line's ch, against the class's line value and a closed form of its inverse.
Each law subtracts one side from the other, freshly built, in one pass
(:func:`_same`).  No check multiplies a ``TSeries``, and ``homomorphism``
builds no ``GradedSeries``.

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
    _exp_terms,
    _gamma_weights,
    _kelement,
    _lambda_fold,
    _lambda_terms,
    alternating_lambda_sum,
    gamma_k,
    symmetric_ch,
    todd_line,
)
from .series import SymmetricSeries, _numerators, _packed_product, _size, dominant_exponents

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
    B, the root r at the key r B.  The left side is the fold of lambda_t that
    gamma_k unpacks (:func:`_lambda_fold`), its one row of weights times
    (-1)^d.  The right side is lambda_{-1}(x) = prod (1 - [r])^m over the lines
    m[r] of x, multiplied by :func:`_packed_product` with no lambda_t, so the
    check sees a fault in either; each line's key is B times its packed root
    too, and an entry of the product is at most d max |e| <= B // 2 in size, so
    no digit carries.  The packed maps are compared with zeros dropped, and
    unpacked into KElements only to report a difference; unpacking reads no
    digit 0, so a difference there alone is reported as such.  For a virtual x
    the identity holds whatever lambda is, so one with a negative multiplicity,
    as every x of negative rank has, is refused with ValueError.
    """
    if any(m < 0 for m in x._nums.values()):
        raise ValueError(f"element must be effective, got {x}")
    d, n = x.rank, x.symbol_count
    B, lhs = _lambda_fold(x - d, d, (tuple((-1) ** d * w for w in _gamma_weights(d)),))  # d is d[0]
    powers = [B**i for i in range(1, n + 1)]
    rhs = {0: 1}
    for root, m in x._nums.items():
        step = sum(map(mul, root, powers))
        factor: dict[int, int] = {}  # (1 - [r])^m; every term of a trivial line r lands on key 0
        for k in range(m + 1):
            factor[k * step] = factor.get(k * step, 0) + (-1) ** k * comb(m, k)
        rhs = _packed_product(factor, rhs, B, 0)  # groups the larger map once
    lhs, rhs = _nonzero(lhs), _nonzero(rhs)
    ok = lhs == rhs
    detail = "" if ok else (_differences(_kelement(x, B, lhs), _kelement(x, B, rhs))
                            or "the packed sides differ off their root keys")
    return CheckResult("gala", {"rank": d}, ok, detail)


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
    rhs = SymmetricSeries._trusted(n, D, numerators, factorials[D])
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
    random lines, each drawn with multiplicity in {-2, -1, 1, 2}.  A root
    drawn more than once adds up its multiplicities, so a line can have any
    multiplicity from -6 to 6, or cancel out.  Root entries are -1..1, drawn
    as randrange(3) - 1, which reads the stream as randint(-1, 1) does; so the
    lambda kernel packs every element drawn, and the sums of such elements, at
    base 2 t_max + 1 (:func:`_lambda_terms`).  The entries are valid by
    construction, so the element is built by the trusted constructor,
    ``KElement._trusted``, over an ``n`` checked as the validating one does."""
    terms: dict[tuple, int] = {}
    for _ in range(rng.randint(1, 3)):
        root = tuple(rng.randrange(3) - 1 for _ in range(n))
        mult = rng.choice([-2, -1, 1, 2])
        terms[root] = terms.get(root, 0) + mult
    return KElement._trusted(_size(n, "symbol_count"), None, terms)


def _nonzero(terms: dict) -> dict:
    """A packed term map with its cancelled, zero, terms dropped."""
    return {key: c for key, c in terms.items() if c}


# A series of the class laws is a kernel's (numerators, denominator) on packed keys.


def _same(lhs: tuple[dict, int], *rhs: tuple[dict, int]) -> bool:
    """Whether the series ``lhs`` is the sum of the series ``rhs``, over one denominator: their
    numerators, cross-multiplied if it is not lhs's, are subtracted from lhs's, which must be a
    map that nothing else reads, and none may be left.  Every kernel returns a positive
    denominator, so a law that meets one that is not fails: over 0, cross-multiplying would
    cancel any numerators."""
    (xs, d), e = lhs, rhs[0][1]
    if d <= 0 or e <= 0:
        return False
    if d == e:
        d = 1
    else:
        for key in xs:
            xs[key] *= e
    for ys, _ in rhs:
        for key, c in ys.items():
            xs[key] = xs.get(key, 0) - c * d
    return not any(xs.values())


def _line_laws(n: int, D: int) -> list[str]:
    """The failures of the line laws up to degree D, for l the class of the last
    symbol a_n: each class, named by its line value f, is f on [a_n] and 1/f on
    -[a_n], so Td([a_n]) = todd_line(D), c([a_n]) = 1 + l,
    Td(-[a_n]) = (1 - e^-l)/l = sum (-1)^k l^k/(k+1)! and
    c(-[a_n]) = 1/(1 + l) = sum (-l)^k.  The ch of each line is built once
    (:func:`_ch_terms`), and each class of it is the exp kernel
    (:func:`_exp_terms`) of that ch with the class's line value.

    On -[a_n] both classes are nonzero in every degree, so the laws read each
    weight and each degree of the exp kernel.  The key of l^k is k + k B^n at
    base B = D + 1 (:func:`_ch_terms`): from n = 2 on, key // B is not the
    degree k, as it is for a1, so a kernel that reads one for the other fails."""
    line = KElement.line((0,) * (n - 1) + (1,))
    step, top = (D + 1) ** n + 1, factorial(D + 1)  # the key of l, and (D + 1)!
    classes = [  # name, f and 1/f as text, f, and 1/f as numerators over a denominator
        ("Td", ("l/(1 - e^-l)", "(1 - e^-l)/l"), todd_line(D),
         ({k * step: (-1) ** k * top // factorial(k + 1) for k in range(D + 1)}, top)),
        ("c", ("1 + l", "1/(1 + l)"), (1, 1), ({k * step: (-1) ** k for k in range(D + 1)}, 1)),
    ]
    failures = []
    for negative, x in enumerate((line, -line)):
        X, d = _ch_terms(x, D)
        for name, forms, f, inverse in classes:
            want = inverse if negative else _numerators({k * step: c for k, c in enumerate(f)})
            if not _same(_exp_terms(X, d, f, D), want):
                failures.append(f"line law fails: {name}({x}) != {forms[negative]} for l = a{n}")
    return failures


def verify_hom_laws(n: int, cases: int = 20, seed: int = 0) -> CheckResult:
    """Randomized exact check of the structural laws, lambda_t
    multiplicativity and the Chern-character ring homomorphism, at truncation
    degree and t-power 3, on n >= 1 symbols, then of the line laws of the Todd
    and Chern classes.

    Every law runs on packed maps, with products by :func:`_packed_product`,
    and each series a case reads is built once.  The lambda_t law compares
    packed terms at one base B, that of x: the lambda kernel
    (:func:`_lambda_terms`) packs every element :func:`random_k_element` draws,
    and their sums, at 2 t_max + 1, so it packs x, y and x + y at B, and a
    case runs three lambda kernels and two packed products.  No law reads the
    fold of lambda_t (:func:`_lambda_fold`): gamma_t, gamma_k and the
    alternating lambda sum are that one fold, and ``gala`` checks it against a
    product that reads no lambda_t.  The ch laws read the ch kernel
    (:func:`_ch_terms`) of x, y, x + y and x y.  Each law is one cancellation
    pass (:func:`_same`): the other side's numerators, cross-multiplied when
    the denominators differ, are subtracted from the freshly built side, and
    no term may be left.  After the cases, the
    line laws (:func:`_line_laws`) compare Td and c of [a_n] and of -[a_n] with
    their line values and closed forms of their inverses, so a wrong weight or
    exp kernel fails them, and a wrong Bernoulli number fails the laws on
    -[a_n].  No ``TSeries`` or ``GradedSeries`` is built.

    The lambda_t law holds for every multiplicative lambda_t; so a lambda that
    is another ring map, such as one that doubles every root, passes.
    ``gala`` sees it.  A ``cases`` that is not an ``int``, or is a ``bool``, is
    refused with TypeError."""
    if n < 1:
        raise ValueError("need at least one line")
    if not isinstance(cases, int) or isinstance(cases, bool):
        raise TypeError(f"cases must be an int, got {cases!r}")
    if cases < 1:
        raise ValueError("need at least one case")
    rng = random.Random(seed)
    D = t_max = 3
    failures = []
    for case in range(cases):
        x = random_k_element(rng, n)
        y = random_k_element(rng, n)
        x_plus_y = x + y
        B, lam_x = _lambda_terms(x, t_max)  # 2 t_max + 1, which y and x + y share
        lam_y = _lambda_terms(y, t_max, B)[1]
        product = (_packed_product(lam_x, lam_y, B, t_max), 1)
        if not _same((_lambda_terms(x_plus_y, t_max, B)[1], 1), product):
            failures.append(f"case {case}: lambda_t not multiplicative on {x}, {y}")
        (ch_x, d), (ch_y, _) = _ch_terms(x, D), _ch_terms(y, D)  # both over D!
        if not _same(_ch_terms(x_plus_y, D), (ch_x, d), (ch_y, d)):
            failures.append(f"case {case}: ch not additive on {x}, {y}")
        if not _same(_ch_terms(x * y, D), (_packed_product(ch_x, ch_y, D + 1, D), d * d)):
            failures.append(f"case {case}: ch not multiplicative on {x}, {y}")
        if failures:
            break
    failures += _line_laws(n, D)
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
