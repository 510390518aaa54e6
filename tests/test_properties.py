"""Hypothesis properties of the univariate power helper and of Horner
substitution."""

from fractions import Fraction

import pytest

from charcalc.series import GradedSeries, power_coefficients

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=9)
unit_series = st.lists(rationals, max_size=6).map(lambda tail: [Fraction(1), *tail])
exponents = st.integers(min_value=-5, max_value=5)
degrees = st.integers(min_value=0, max_value=8)


def truncated_product(f, g, degree):
    """Coefficients of f(t) g(t) up to t^degree."""
    return [
        sum((f[i] * g[k - i] for i in range(k + 1) if i < len(f) and k - i < len(g)), Fraction(0))
        for k in range(degree + 1)
    ]


@st.composite
def positive_valuation_series(draw):
    """A GradedSeries with zero constant term."""
    n = draw(st.integers(min_value=1, max_value=3))
    D = draw(st.integers(min_value=0, max_value=5))
    monomial = st.tuples(*[st.integers(min_value=0, max_value=2)] * n)
    terms = draw(st.dictionaries(monomial, rationals, max_size=4))
    # the constructor drops monomials above D; drop the constant one here
    return GradedSeries(n, D, {m: c for m, c in terms.items() if any(m)})


@settings(max_examples=60, deadline=None)
@given(unit_series, exponents, exponents, degrees)
def test_powers_add_exponents(f, a, b, degree):
    product = truncated_product(
        power_coefficients(f, a, degree), power_coefficients(f, b, degree), degree
    )
    assert product == power_coefficients(f, a + b, degree)


@settings(max_examples=30, deadline=None)
@given(unit_series, degrees)
def test_zeroth_power_is_one(f, degree):
    assert power_coefficients(f, 0, degree) == [1] + [0] * degree


@settings(max_examples=60, deadline=None)
@given(positive_valuation_series(), unit_series, unit_series)
def test_substitution_is_multiplicative(x, f, g):
    fg = truncated_product(f, g, x.truncation_degree)
    assert x.substitute(fg) == x.substitute(f) * x.substitute(g)
