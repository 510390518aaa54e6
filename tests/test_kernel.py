"""The term-map product and substitution against test-only references: a
pairwise ``Fraction`` product over every pair of terms, and a Horner
substitution built on it that keeps every degree up to the bound.  Results
must agree exactly, with ``Fraction`` coefficients for series and ``int``
(never ``bool``) for ``KElement`` and ``TSeries``.  ``KElement`` has no
degree bound, so only its product is checked here; its refusal to
substitute is in ``tests/test_term_maps.py``."""

from fractions import Fraction
from operator import itemgetter

import pytest

from charcalc.lambda_ring import KElement, TSeries
from charcalc.series import GradedSeries

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
