"""The term-map product and substitution against test-only references: a
pairwise ``Fraction`` product over every pair of terms, and a Horner
substitution built on it that keeps every degree up to the bound.  Results
must agree exactly, with ``Fraction`` coefficients for series and ``int``
(never ``bool``) for ``KElement`` and ``TSeries``.  ``KElement`` has no
degree bound, so only its product is checked here; its refusal to
substitute is in ``tests/test_term_maps.py``.  The exp of the classes, by the
graded recurrence, is checked against the Horner loop of ``substitute``, and
the class kernels that ``homomorphism`` compares in packed form against the
classes and their own comparison against series equality."""

from fractions import Fraction
from math import factorial
from operator import itemgetter

import pytest

from charcalc.lambda_ring import (
    KElement,
    TSeries,
    _ch_terms,
    _chern_weights,
    _exp_terms,
    _multiplicative,
    _todd_weights,
    ch,
)
from charcalc.series import GradedSeries, _pack
from charcalc.verify import _same, _series_product

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings, example = hypothesis.given, hypothesis.settings, hypothesis.example


def reference_product(xs: dict, ys: dict, degree=None, bound=None) -> dict:
    """Every pair of terms multiplied on its own; keys of degree above the
    bound and zero sums dropped at the end."""
    out = {}
    for kx, cx in xs.items():
        for ky, cy in ys.items():
            key = tuple(a + b for a, b in zip(kx, ky))
            if bound is None or degree(key) <= bound:
                out[key] = out.get(key, 0) + cx * cy
    return {k: c for k, c in out.items() if c}


def reference_substitute(xs: dict, coefficients, unit, degree, bound) -> dict:
    """r = c_k + x * r from the top coefficient down, at the full bound."""
    acc = {}
    for c in reversed(coefficients):
        acc = reference_product(acc, xs, degree, bound)
        acc[unit] = acc.get(unit, 0) + c
    return {k: c for k, c in acc.items() if c}


def assert_fractions(value):
    assert all(type(c) is Fraction for _, c in value.terms())


def assert_ints(value):
    assert all(type(c) is int for _, c in value.terms())


# coprime small denominators and large ones, of both signs
rationals = st.one_of(
    st.fractions(min_value=-7, max_value=7, max_denominator=12),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**30), max_value=10**30),
        st.integers(min_value=1, max_value=10**18),
    ),
)
multiplicities = st.integers(min_value=-5, max_value=5)


@st.composite
def series_pairs(draw, zero_constant=False):
    n = draw(st.integers(min_value=1, max_value=3))
    D = draw(st.integers(min_value=0, max_value=5))
    monomial = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    x, y = (draw(st.dictionaries(monomial, rationals, max_size=5)) for _ in range(2))
    if zero_constant:
        x.pop((0,) * n, None)
    return GradedSeries(n, D, x), GradedSeries(n, D, y)


@st.composite
def kelement_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    root = st.tuples(*[st.integers(min_value=-2, max_value=2)] * n)
    x, y = (draw(st.dictionaries(root, multiplicities, max_size=5)) for _ in range(2))
    return KElement(n, x), KElement(n, y)


@st.composite
def tseries_pairs(draw, zero_constant=False):
    n = draw(st.integers(min_value=1, max_value=2))
    t_max = draw(st.integers(min_value=0, max_value=4))
    root = st.tuples(*[st.integers(min_value=-2, max_value=2)] * n)
    element = st.dictionaries(root, multiplicities, max_size=3).map(lambda t: KElement(n, t))
    pair = [draw(st.lists(element, min_size=t_max + 1, max_size=t_max + 1)) for _ in range(2)]
    if zero_constant:
        pair[0][0] = KElement.zero(n)
    return TSeries(pair[0]), TSeries(pair[1])


# a1a2 cancels in (a1 + a2)(a1 - a2); a product that truncation empties; empty operands
@example((GradedSeries(2, 2, {(1, 0): 1, (0, 1): 1}), GradedSeries(2, 2, {(1, 0): 1, (0, 1): -1})))
@example((GradedSeries(2, 2, {(2, 0): Fraction(1, 3)}), GradedSeries(2, 2, {(0, 1): Fraction(3)})))
@example((GradedSeries(2, 3, {}), GradedSeries(2, 3, {(1, 1): Fraction(-5, 6)})))
@example((GradedSeries(1, 3, {}), GradedSeries(1, 3, {})))
@settings(max_examples=100, deadline=None)
@given(series_pairs())
def test_series_product_matches_reference(pair):
    x, y = pair
    product = x * y
    want = reference_product(dict(x.terms()), dict(y.terms()), sum, x.truncation_degree)
    assert dict(product.terms()) == want
    assert_fractions(product)


@example((KElement(2, {(1, 0): 1, (0, 1): 1}), KElement(2, {(1, 0): 1, (0, 1): -1})))
@example((KElement(1, {(1,): 2, (0,): -1}), KElement(1, {})))
@settings(max_examples=100, deadline=None)
@given(kelement_pairs())
def test_kelement_product_matches_reference(pair):
    x, y = pair
    product = x * y
    assert dict(product.terms()) == reference_product(dict(x.terms()), dict(y.terms()))
    assert_ints(product)


@settings(max_examples=100, deadline=None)
@given(tseries_pairs())
def test_tseries_product_matches_reference(pair):
    x, y = pair
    product = x * y
    want = reference_product(dict(x.terms()), dict(y.terms()), itemgetter(0), x.t_max)
    assert dict(product.terms()) == want
    assert_ints(product)


@example((GradedSeries(1, 3, {}), GradedSeries(1, 3, {})), [Fraction(2, 3), 5])
@example((GradedSeries(2, 4, {(1, 0): 1, (0, 1): -1}), GradedSeries(2, 4, {})), [])
@settings(max_examples=100, deadline=None)
@given(series_pairs(zero_constant=True), st.lists(rationals, max_size=8))
def test_series_substitute_matches_reference(pair, coefficients):
    x, D = pair[0], pair[0].truncation_degree
    result = x.substitute(coefficients)
    want = reference_substitute(dict(x.terms()), coefficients, (0,) * x.symbol_count, sum, D)
    assert dict(result.terms()) == want
    assert_fractions(result)


@settings(max_examples=100, deadline=None)
@given(tseries_pairs(zero_constant=True), st.lists(multiplicities, max_size=7))
def test_tseries_substitute_matches_reference(pair, coefficients):
    x = pair[0]
    result = x.substitute(coefficients)
    unit = (0,) * (1 + x.symbol_count)
    want = reference_substitute(dict(x.terms()), coefficients, unit, itemgetter(0), x.t_max)
    assert dict(result.terms()) == want
    assert_ints(result)


@st.composite
def weighted_series(draw):
    """A series with a non-unit denominator, and a weight table (numerators,
    denominator) whose numerators are 0 at degree 0 and at random other degrees."""
    n = draw(st.integers(min_value=0, max_value=4))
    D = draw(st.integers(min_value=0, max_value=10))
    monomial = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    s = GradedSeries(n, D, draw(st.dictionaries(monomial, rationals, max_size=8)))
    hypothesis.assume(s._den != 1)
    weight = st.one_of(st.just(0), st.integers(min_value=-40, max_value=40))
    numerators = (0, *draw(st.lists(weight, min_size=D, max_size=D)))
    return s, (numerators, draw(st.integers(min_value=1, max_value=12)))


# one symbol at degree 6 with every weight nonzero; the Todd weights at D = 3
@example((GradedSeries(1, 6, {(1,): Fraction(1, 6), (3,): Fraction(-5, 2)}),
          ((0, 1, -2, 3, -4, 5, -6), 7)))
@example((GradedSeries(2, 3, {(1, 0): Fraction(3, 2), (1, 1): Fraction(-1, 6)}),
          ((0, 6, -1, 0), 12)))
@settings(max_examples=100, deadline=None)
@given(weighted_series())
def test_multiplicative_exp_matches_horner(case):
    s, (numerators, w) = case
    D = s.truncation_degree
    weighted = sum((s.component(k) * Fraction(c, w) for k, c in enumerate(numerators)),
                   GradedSeries.zero(s.symbol_count, D))
    want = weighted.substitute([Fraction(1, factorial(k)) for k in range(D + 1)])
    assert _multiplicative(s, (numerators, w)) == want


@st.composite
def class_cases(draw):
    """x and y over 0..4 symbols, each up to three lines with root entries -2..2,
    the trivial line among them, and multiplicities -2..2, negative ones among
    them; and a degree D in 0..6."""
    n = draw(st.integers(min_value=0, max_value=4))
    root = st.one_of(st.just((0,) * n), st.tuples(*[st.integers(min_value=-2, max_value=2)] * n))
    lines = st.dictionaries(root, st.integers(min_value=-2, max_value=2), max_size=3)
    return KElement(n, draw(lines)), KElement(n, draw(lines)), draw(st.integers(min_value=0, max_value=6))


def packed_values(terms: dict, den: int) -> dict:
    return {key: Fraction(c, den) for key, c in terms.items() if c}


def packed_series(series: GradedSeries) -> dict:
    return {_pack(mono, series.truncation_degree + 1): c for mono, c in series.terms()}


# ch(2[a1]) = 2 ch([a1]): at D = 2 its numerators over 2! are those of ch([a1])
# ch([0]) over 2! 2!, so the comparison must cross-multiply to call them unequal
@example((KElement(1, {(1,): 2}), KElement(1, {(1,): 1}), 2))
# equal classes from different elements: ch(x) = ch(y) at D = 0 for equal ranks
@example((KElement(2, {(1, -1): -2, (0, 0): 1}), KElement(2, {(2, 2): -1}), 0))
@settings(max_examples=150, deadline=None)
@given(class_cases())
def test_class_kernels_match_the_classes(case):
    x, y, D = case
    X, d = _ch_terms(x, D)
    assert packed_values(X, d) == packed_series(ch(x, D))
    for weights in (_todd_weights(D), _chern_weights(D)):
        assert packed_values(*_exp_terms(X, d, weights, D)) == packed_series(
            _multiplicative(ch(x, D), weights))
    # the comparison of the laws: y's kernel times that of the unit, over d^2
    unit = _ch_terms(KElement.unit(x.symbol_count), D)
    assert _same((X, d), _series_product(_ch_terms(y, D), unit, D)) is (ch(x, D) == ch(y, D))
