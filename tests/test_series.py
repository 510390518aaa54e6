"""Exact truncated series arithmetic."""

import random
from fractions import Fraction
from itertools import product

import pytest

from charcalc.series import GradedSeries, MismatchError, dominant_exponents
from charcalc.lambda_ring import KElement, todd

from oracles import exp_coefficients, todd_line_coefficients


def sym(i, n, D):
    return GradedSeries.symbol(i, n, D)


def exp(s):
    """e^s for s with zero constant term: the exponential series substituted into s."""
    return s.substitute(exp_coefficients(s.truncation_degree))


def truncate(s, d):
    """s with its terms above degree d dropped (the constructor drops them)."""
    return GradedSeries(s.symbol_count, d, dict(s.terms()))


def random_series(rng, n, D, max_terms=4, invertible=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, 2) for _ in range(n))
        if sum(mono) > D:
            continue
        terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    series = GradedSeries(n, D, terms)
    if invertible and not series.constant_term:
        series = series + Fraction(rng.randint(1, 5), rng.randint(1, 5))
    return series


# -- addition ---------------------------------------------------------------


def test_add_cancels_to_zero():
    n, D = 1, 2
    x = 1 + sym(0, n, D)
    y = GradedSeries.constant(-1, n, D) - sym(0, n, D)
    assert (x + y).is_zero


def test_add_disjoint_supports():
    n, D = 2, 2
    total = sym(0, n, D) + sym(1, n, D)
    assert total == GradedSeries(n, D, {(1, 0): 1, (0, 1): 1})


def test_add_normalizes_rationals():
    n, D = 1, 1
    half = Fraction(1, 2) * sym(0, n, D)
    assert half + half == sym(0, n, D)


def test_add_mismatch_rejected():
    with pytest.raises(MismatchError):
        sym(0, 1, 2) + sym(0, 1, 3)
    with pytest.raises(MismatchError):
        sym(0, 1, 2) + sym(0, 2, 2)


# -- multiplication ----------------------------------------------------------


def test_mul_two_factors():
    n, D = 2, 2
    product = (1 + sym(0, n, D)) * (1 + sym(1, n, D))
    assert product == GradedSeries(n, D, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_mul_truncates():
    a = sym(0, 1, 1)
    assert (a * a).is_zero


def test_mul_geometric_telescope():
    # (1 - a)(1 + a + a^2 + a^3) = 1 - a^4, and a^4 is beyond the truncation
    n, D = 1, 3
    a = sym(0, n, D)
    geometric = 1 + a + a * a + a * a * a
    assert (1 - a) * geometric == GradedSeries.one(n, D)


# -- inversion ----------------------------------------------------------------


def test_invert_one_and_scalar():
    assert GradedSeries.one(1, 3).invert() == GradedSeries.one(1, 3)
    two = GradedSeries.constant(2, 2, 2)
    assert two.invert() == GradedSeries.constant(Fraction(1, 2), 2, 2)


def test_invert_alternating_signs():
    n, D = 1, 3
    a = sym(0, n, D)
    inv = (1 + a).invert()
    assert inv == GradedSeries(n, D, {(0,): 1, (1,): -1, (2,): 1, (3,): -1})
    assert (1 + a) * inv == GradedSeries.one(n, D)


def test_invert_requires_constant_term():
    with pytest.raises(ValueError):
        sym(0, 1, 2).invert()


def test_invert_round_trip_randomized():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 3)
        D = rng.randint(1, 5)
        x = random_series(rng, n, D, invertible=True)
        assert x * x.invert() == GradedSeries.one(n, D)


# -- exponential ---------------------------------------------------------------


def test_exp_zero():
    assert exp(GradedSeries.zero(2, 3)) == GradedSeries.one(2, 3)


def test_exp_matches_factorial_oracle():
    D = 2
    expected = {(k,): c for k, c in enumerate(exp_coefficients(D))}
    assert exp(sym(0, 1, D)) == GradedSeries(1, D, expected)


def test_exp_inverse_law():
    for D in (1, 3, 5):
        a = sym(0, 1, D)
        assert exp(a) * exp(-a) == GradedSeries.one(1, D)


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        exp(1 + sym(0, 1, 2))


def test_exp_additive_law_randomized():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 3)
        D = rng.randint(1, 4)
        x = random_series(rng, n, D)
        y = random_series(rng, n, D)
        x = x - x.constant_term
        y = y - y.constant_term
        assert exp(x + y) == exp(x) * exp(y)


# -- components ------------------------------------------------------------------


def test_component_extraction():
    n, D = 2, 2
    series = 1 + sym(0, n, D) + sym(0, n, D) * sym(1, n, D)
    assert series.component(2) == GradedSeries(n, D, {(1, 1): 1})
    assert (1 + sym(0, n, D)).component(0) == GradedSeries.one(n, D)


def test_component_of_todd_line():
    expected = todd_line_coefficients(2)[2]
    assert expected == Fraction(1, 12)
    result = todd(KElement.line((1,)), 2).component(2)
    assert result == GradedSeries(1, 2, {(2,): expected})


def test_component_out_of_range():
    with pytest.raises(ValueError):
        GradedSeries.one(1, 2).component(3)
    with pytest.raises(ValueError):
        GradedSeries.one(1, 2).component(-1)


def test_component_decomposition():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 3)
        D = rng.randint(0, 5)
        x = random_series(rng, n, D)
        total = GradedSeries.zero(n, D)
        for k in range(D + 1):
            total = total + x.component(k)
        assert total == x


# -- ring axioms and truncation coherence ------------------------------------------


def test_ring_axioms_randomized():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 3)
        D = rng.randint(1, 5)
        x = random_series(rng, n, D)
        y = random_series(rng, n, D)
        z = random_series(rng, n, D)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_truncation_coherence():
    rng = random.Random(19)
    for _ in range(25):
        n = rng.randint(1, 3)
        D = rng.randint(2, 5)
        d = rng.randint(1, D - 1)
        x = random_series(rng, n, D, invertible=True)
        y = random_series(rng, n, D)
        assert truncate(x * y, d) == truncate(x, d) * truncate(y, d)
        assert truncate(x.invert(), d) == truncate(x, d).invert()
        positive = y - y.constant_term
        assert truncate(exp(positive), d) == exp(truncate(positive, d))


# -- lookups ------------------------------------------------------------------------


@pytest.mark.parametrize("n, D", [(n, D) for n in range(4) for D in range(5)])
def test_coefficient_reads_only_its_own_monomial(n, D):
    """Every monomial of degree at most D is stored with its own coefficient,
    so a lookup with an entry below 0, above D or not an integer that landed
    on any stored term would read it."""
    full = {m: i + 1 for i, m in enumerate(product(range(D + 1), repeat=n)) if sum(m) <= D}
    s = GradedSeries(n, D, full)
    for m in product([Fraction(k, 4) for k in range(-8, 4 * D + 9)], repeat=n):
        assert s.coefficient(m) == full.get(m, 0), m
    assert GradedSeries(2, 2, {(2, 0): 5}).coefficient((0.75, 0.5)) == 0
    assert s.constant_term == 1
    with pytest.raises(ValueError):
        s.coefficient((0,) * (n + 1))


# -- construction guards ----------------------------------------------------------


def test_floats_rejected():
    with pytest.raises(TypeError):
        GradedSeries(1, 2, {(1,): 0.5})


def test_bad_monomials_rejected():
    with pytest.raises(ValueError):
        GradedSeries(2, 2, {(1,): 1})
    with pytest.raises(ValueError):
        GradedSeries(1, 2, {(-1,): 1})


def test_dominant_exponents_of_negative_degree_are_none():
    assert list(dominant_exponents(3, -1)) == []
    assert list(dominant_exponents(3, 0)) == [(0, 0, 0)]


def test_immutability():
    series = GradedSeries.one(1, 2)
    with pytest.raises(AttributeError):
        series.truncation_degree = 5
