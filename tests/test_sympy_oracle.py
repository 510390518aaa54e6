"""The line classes against sympy expansions.

``ch``, ``todd`` and ``total_chern`` are expanded here with sympy's own
``series`` for each line (a power m of a line factor is |m| sympy
polynomial products of the expansion of the factor or of its reciprocal)
and multiplied out with sympy polynomials, and ``lambda_t`` of a multiple
of one line is compared with sympy's generalized binomial coefficients.  No expected value comes from the package.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from charcalc.lambda_ring import KElement, ch, lambda_t, todd, total_chern

sympy = pytest.importorskip("sympy")

U = sympy.Symbol("u")
MAX_DEGREE = 8

# Each line's factor f(u) and its reciprocal 1/f(u); ch is additive, so its
# "power" m is m * e^u.
LINE_SERIES = {
    "ch": (sympy.exp(U), None),
    "todd": (U / (1 - sympy.exp(-U)), (1 - sympy.exp(-U)) / U),
    "total_chern": (1 + U, 1 / (1 + U)),
}
CLASSES = {"ch": ch, "todd": todd, "total_chern": total_chern}


@lru_cache(maxsize=None)
def expansion(f) -> "sympy.Poly":
    """f(u) expanded by sympy up to u^MAX_DEGREE."""
    return sympy.Poly(sympy.series(f, U, 0, MAX_DEGREE + 1).removeO(), U)


@lru_cache(maxsize=None)
def line_coefficients(kind: str, m: int) -> tuple:
    """Coefficients of u^0..u^MAX_DEGREE in one line's factor (or summand)."""
    factor, reciprocal = LINE_SERIES[kind]
    if kind == "ch":
        poly = m * expansion(factor)
    else:
        base = expansion(factor if m > 0 else reciprocal)
        poly = sympy.Poly(1, U)
        for _ in range(abs(m)):
            poly = truncated(poly * base, (U,), MAX_DEGREE)
    return tuple(sympy.Rational(poly.coeff_monomial(U**k)) for k in range(MAX_DEGREE + 1))


def truncated(poly, symbols, degree):
    """Drop the monomials of total degree above ``degree``."""
    kept = {m: c for m, c in poly.as_dict().items() if sum(m) <= degree}
    return sympy.Poly.from_dict(kept or {(0,) * len(symbols): 0}, *symbols)


def sympy_class(kind: str, x: KElement, degree: int) -> dict:
    n = x.symbol_count
    symbols = sympy.symbols(f"a1:{n + 1}")
    acc = sympy.Poly(0 if kind == "ch" else 1, *symbols)
    for root, mult in x.terms():
        form = sum(c * s for c, s in zip(root, symbols))
        coeffs = line_coefficients(kind, mult)[: degree + 1]
        line = sympy.Poly(sum(c * form**k for k, c in enumerate(coeffs)), *symbols)
        acc = acc + line if kind == "ch" else truncated(acc * line, symbols, degree)
    return {
        m: Fraction(int(c.p), int(c.q))
        for m, c in truncated(acc, symbols, degree).as_dict().items()
        if c
    }


def random_element(rng: random.Random, n: int) -> KElement:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        root = tuple(rng.randint(-2, 2) for _ in range(n))
        terms[root] = rng.choice([-3, -2, -1, 1, 2, 3])
    return KElement(n, terms)


@pytest.mark.parametrize("kind", sorted(CLASSES))
def test_line_classes_match_sympy(kind):
    rng = random.Random(f"sympy-oracle/{kind}")
    for _ in range(12):
        n = rng.randint(1, 3)
        degree = rng.randint(0, 8 if n < 3 else 6)
        x = random_element(rng, n)
        got = dict(CLASSES[kind](x, degree).terms())
        assert got == sympy_class(kind, x, degree), f"{kind} of {x} at degree {degree}"


def test_todd_at_degree_eight_matches_sympy():
    x = KElement(3, {(1, 0, 0): -3, (0, 1, -1): 2, (1, 1, 1): 1})
    assert dict(todd(x, 8).terms()) == sympy_class("todd", x, 8)


@pytest.mark.parametrize("m", range(-4, 5))
def test_lambda_t_of_a_multiple_is_a_generalized_binomial(m):
    root = (1, -2)
    t_max = 6
    series = lambda_t(KElement(2, {root: m}), t_max)
    for k in range(t_max + 1):
        c = sympy.binomial(m, k)
        power = tuple(k * e for e in root)
        assert series.coefficient(k) == KElement(2, {power: int(c)}), (m, k)
