"""The term-map product and substitution against test-only references: a
pairwise ``Fraction`` product over every pair of terms, and a Horner
substitution built on it that keeps every degree up to the bound.  Results
must agree exactly, with ``Fraction`` coefficients for series and ``int``
(never ``bool``) for ``KElement`` and ``TSeries``.  ``KElement`` has no
degree bound, so only its product is checked here; its refusal to
substitute is in ``tests/test_term_maps.py``.  The exp of the classes, by the
graded recurrence, is checked against the Horner loop of ``substitute`` for
random line values, its weights against the closed forms of the Todd and Chern
classes, and its class of one line against that line's value; the class kernels
that ``homomorphism`` compares in packed form are checked against the classes,
and their own comparison against series equality."""

from fractions import Fraction
from math import factorial, lcm
from operator import itemgetter

import pytest

from charcalc.lambda_ring import (
    KElement,
    TSeries,
    _ch_terms,
    _exp_terms,
    _line_weights,
    ch,
    todd_line,
)
from charcalc.series import GradedSeries, _pack, _packed_product
from charcalc.verify import _same

from oracles import chern_log_weights, todd_log_weights

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


# exact line values f = sum_k f_k l^k with f_0 = 1, zero at random degrees
line_values = st.lists(st.one_of(st.just(0), st.fractions(min_value=-7, max_value=7,
                                                          max_denominator=12)),
                       max_size=10).map(lambda rest: (1, *rest))


@st.composite
def weighted_series(draw):
    """A series with a non-unit denominator, and a line value f, which may be
    longer or shorter than the truncation."""
    n = draw(st.integers(min_value=0, max_value=4))
    D = draw(st.integers(min_value=0, max_value=10))
    monomial = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    s = GradedSeries(n, D, draw(st.dictionaries(monomial, rationals, max_size=8)))
    hypothesis.assume(s._den != 1)
    return s, draw(line_values)


# one symbol at degree 6 with every weight nonzero: log(1 + l + l^2) =
# log(1 - l^3) - log(1 - l); and the Todd line at D = 3
@example((GradedSeries(1, 6, {(1,): Fraction(1, 6), (3,): Fraction(-5, 2)}), (1, 1, 1)))
@example((GradedSeries(2, 3, {(1, 0): Fraction(3, 2), (1, 1): Fraction(-1, 6)}), todd_line(3)))
@settings(max_examples=100, deadline=None)
@given(weighted_series())
def test_multiplicative_exp_matches_horner(case):
    # the class of line value f is exp of the series with its degree-k part
    # weighted by k! (log f)_k, with log f = log(1 + u) at u = f - 1 by Horner
    s, line = case
    D = s.truncation_degree
    u = GradedSeries(1, D, {(k,): c for k, c in enumerate(line[:D + 1]) if k})
    log_1_plus = [0] + [Fraction((-1) ** (j + 1), j) for j in range(1, D + 1)]
    log_f = dict(u.substitute(log_1_plus).terms())
    weighted = sum((s.component(k) * (factorial(k) * log_f.get((k,), 0)) for k in range(D + 1)),
                   GradedSeries.zero(s.symbol_count, D))
    want = weighted.substitute([Fraction(1, factorial(k)) for k in range(D + 1)])
    assert s._like(*_exp_terms(s._nums, s._den, line, D)) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=24))
def test_line_weights_are_the_closed_forms_of_both_classes(D):
    # k! (log f)_k from (log f)' = f'/f against -B_k/k for the Todd line and
    # (-1)^(k+1) (k-1)! for 1 + l, each over the lcm of its denominators
    for line, closed in ((todd_line(D), todd_log_weights(D)), ((1, 1), chern_log_weights(D))):
        w = lcm(*(c.denominator for c in closed))
        assert _line_weights(line, D) == (tuple(c.numerator * (w // c.denominator)
                                                for c in closed), w)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=8), line_values)
def test_the_exp_kernel_of_one_line_reads_back_its_line_value(D, line):
    # the class of [a1] is f(a1), whatever f, from its ch alone
    X, d = _ch_terms(KElement.line((1,)), D)
    assert packed_values(*_exp_terms(X, d, line, D)) == {
        _pack((k,), D + 1): Fraction(c) for k, c in enumerate(line[:D + 1]) if c}


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


# _same subtracts the right side from the left: a zero that only one side holds
# cancels, a nonzero key that only one side holds does not, and unequal
# denominators are cross-multiplied; a sum of right sides is subtracted whole.
# A denominator that is not positive fails on either side, even where the
# cross-multiplication would cancel every numerator or the fraction is equal
@pytest.mark.parametrize("lhs, rhs, same", [
    (({1: 3, 4: 0}, 2), [({1: 3}, 2)], True),
    (({1: 3}, 2), [({1: 3, 4: 0}, 2)], True),
    (({1: 3, 4: 1}, 2), [({1: 3}, 2)], False),
    (({1: 3}, 2), [({1: 3, 4: 1}, 2)], False),
    (({1: 1, 4: 0}, 2), [({1: 2}, 4)], True),
    (({1: 1}, 2), [({1: 1}, 4)], False),
    (({1: 3}, 2), [({1: 1}, 2), ({1: 2, 4: 0}, 2)], True),
    (({1: 0}, 0), [({1: 5}, 1)], False),
    (({1: 5}, 1), [({1: 0}, 0)], False),
    (({1: -3}, -2), [({1: 3}, 2)], False),
    (({1: 3}, 2), [({1: -3}, -2)], False),
])
def test_same_cancels_the_right_side_from_the_left(lhs, rhs, same):
    assert _same(lhs, *rhs) is same


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
    reduced = ch(x, D)
    assert packed_values(X, d) == packed_series(reduced)
    # exp of the kernel's own numerators against exp of the reduced ch(x, D)
    for line in (todd_line(D), (1, 1)):
        assert packed_values(*_exp_terms(X, d, line, D)) == packed_series(
            reduced._like(*_exp_terms(reduced._nums, reduced._den, line, D)))
    # the comparison of the laws: y's kernel times that of the unit, over d^2;
    # it overwrites X, which is read no more
    (Y, e), (unit, u) = _ch_terms(y, D), _ch_terms(KElement.unit(x.symbol_count), D)
    assert _same((X, d), (_packed_product(Y, unit, D + 1, D), e * u)) is (ch(x, D) == ch(y, D))
