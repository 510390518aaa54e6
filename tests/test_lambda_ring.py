"""Group-ring arithmetic, lambda/gamma expansions, and the class maps."""

import random
from fractions import Fraction
from math import factorial, prod

import pytest

from charcalc.series import GradedSeries, MismatchError
from charcalc.lambda_ring import (
    KElement,
    TSeries,
    alternating_lambda_sum,
    ch,
    chern_k,
    gamma_k,
    gamma_t,
    lambda_t,
    todd,
    todd_line,
    total_chern,
)
from charcalc.verify import random_k_element

from oracles import exp_coefficients, todd_line_coefficients


def unit(n):
    return KElement.unit(n)


# -- group ring ---------------------------------------------------------------


def test_line_times_line_adds_roots():
    x = KElement.line((1, 0))
    y = KElement.line((0, 1))
    assert x * y == KElement.line((1, 1))


def test_rank_of_virtual_element():
    x = KElement.line((1, 0)) + KElement.line((0, 1)) - 3 * unit(2)
    assert x.rank == -1


def test_unit_is_identity():
    rng = random.Random(0)
    for _ in range(10):
        x = random_k_element(rng, 2)
        assert x * unit(2) == x
        assert unit(2) * x == x


def test_symbol_count_mismatch():
    with pytest.raises(MismatchError):
        KElement.line((1,)) + KElement.line((1, 0))
    with pytest.raises(MismatchError):
        KElement.line((1,)) * KElement.line((1, 0))


def test_dual():
    assert KElement.line((1, 0)).dual() == KElement.line((-1, 0))
    assert unit(2).dual() == unit(2)
    rng = random.Random(1)
    for _ in range(10):
        x = random_k_element(rng, 3)
        assert x.dual().dual() == x


# -- lambda_t -----------------------------------------------------------------


def test_lambda_t_single_line():
    r = KElement.line((1, 0))
    series = lambda_t(r, 3)
    assert series.coefficient(0) == unit(2)
    assert series.coefficient(1) == r
    assert series.coefficient(2).is_zero
    assert series.coefficient(3).is_zero


def test_lambda_t_two_lines_hand_expansion():
    r1 = KElement.line((1, 0))
    r2 = KElement.line((0, 1))
    series = lambda_t(r1 + r2, 2)
    assert series.coefficient(0) == unit(2)
    assert series.coefficient(1) == r1 + r2
    assert series.coefficient(2) == KElement.line((1, 1))


def test_lambda_t_negative_unit_geometric():
    series = lambda_t(-unit(1), 2)
    assert series.coefficient(0) == unit(1)
    assert series.coefficient(1) == -unit(1)
    assert series.coefficient(2) == unit(1)


def test_lambda_t_multiplicative_randomized():
    rng = random.Random(2)
    for _ in range(25):
        n = rng.randint(1, 3)
        x = random_k_element(rng, n)
        y = random_k_element(rng, n)
        assert lambda_t(x + y, 3) == lambda_t(x, 3) * lambda_t(y, 3)


def test_tseries_inversion_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        x = random_k_element(rng, 2)
        series = lambda_t(x, 4)
        assert series * series.invert() == TSeries.one(2, 4)


def test_tseries_invert_needs_unit_constant():
    bad = TSeries([KElement.line((1,)), KElement.zero(1)])
    with pytest.raises(ValueError):
        bad.invert()


def test_tseries_coefficient_range():
    series = TSeries.one(1, 2)
    with pytest.raises(ValueError):
        series.coefficient(3)


# -- gamma_t ------------------------------------------------------------------


def test_gamma_t_telescopes_on_line_minus_unit():
    y = KElement.line((1, 0)) - unit(2)
    series = gamma_t(y, 4)
    assert series.coefficient(0) == unit(2)
    assert series.coefficient(1) == y
    for k in range(2, 5):
        assert series.coefficient(k).is_zero


def test_gamma_one_is_identity_on_rank_zero():
    x = KElement.line((1, 0)) + KElement.line((0, 1))
    reduced = x - 2 * unit(2)
    assert gamma_k(reduced, 1) == reduced


@pytest.mark.parametrize("x", [KElement.line((1, 0)), KElement.line((1, 0)) - 3 * unit(2)])
def test_gamma_k_refuses_a_negative_k(x):
    with pytest.raises(ValueError) as refused:
        gamma_k(x, -1)
    assert str(refused.value) == "k must be non-negative"


@pytest.mark.parametrize("k", [True, 1.0])
def test_gamma_k_names_k_in_its_refusal_of_a_non_int_k(k):
    with pytest.raises(TypeError) as refused:
        gamma_k(KElement.line((1, 0)), k)
    assert str(refused.value) == f"k must be an int, got {k!r}"


def test_gamma_t_of_zero():
    assert gamma_t(KElement.zero(2), 3) == TSeries.one(2, 3)


def test_gamma_inverse_law_randomized():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 3)
        x = random_k_element(rng, n)
        assert gamma_t(x, 3) * gamma_t(-x, 3) == TSeries.one(n, 3)


# -- Chern character ------------------------------------------------------------


def test_ch_unit():
    assert ch(unit(2), 3) == GradedSeries.one(2, 3)


def test_ch_line_matches_factorial_oracle():
    coeffs = exp_coefficients(2)
    expected = GradedSeries(1, 2, {(k,): c for k, c in enumerate(coeffs)})
    assert ch(KElement.line((1,)), 2) == expected


def test_ch_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 3)
        x = random_k_element(rng, n)
        y = random_k_element(rng, n)
        assert ch(x + y, 3) == ch(x, 3) + ch(y, 3)
        assert ch(x * y, 3) == ch(x, 3) * ch(y, 3)


# -- Chern classes ----------------------------------------------------------------


def test_total_chern_of_distinct_lines():
    n = 3
    lines = sum(
        (KElement.line(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)),
        KElement.zero(n),
    )
    total = total_chern(lines, n)
    product = GradedSeries.one(n, n)
    for i in range(n):
        product = product * (1 + GradedSeries.symbol(i, n, n))
    assert total == product
    assert chern_k(lines, n) == GradedSeries(n, n, {(1,) * n: 1})


def test_chern_1_of_dual():
    rng = random.Random(6)
    for _ in range(15):
        x = random_k_element(rng, 2)
        assert chern_k(x.dual(), 1, 3) == -chern_k(x, 1, 3)


def test_chern_2_of_line_plus_dual():
    x = KElement.line((1,)) + KElement.line((-1,))
    assert chern_k(x, 2) == GradedSeries(1, 2, {(2,): -1})


def test_chern_dual_sign_rule():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 3)
        x = random_k_element(rng, n)
        for k in range(4):
            sign = -1 if k % 2 else 1
            assert chern_k(x.dual(), k, 3) == sign * chern_k(x, k, 3)


# -- Todd class --------------------------------------------------------------------


def test_todd_unit():
    assert todd(unit(2), 3) == GradedSeries.one(2, 3)


def test_todd_line_low_degrees():
    coeffs = todd_line_coefficients(2)
    expected = GradedSeries(1, 2, {(k,): c for k, c in enumerate(coeffs) if c})
    assert todd(KElement.line((1,)), 2) == expected
    assert coeffs == [1, Fraction(1, 2), Fraction(1, 12)]


def test_todd_line_matches_division_oracle():
    for D in range(41):
        assert todd_line(D) == tuple(todd_line_coefficients(D)), D


@pytest.mark.parametrize("D", range(25))
def test_todd_of_one_line_matches_division_oracle(D):
    expected = {(k,): c for k, c in enumerate(todd_line_coefficients(D))}
    assert todd(KElement.line((1,)), D) == GradedSeries(1, D, expected)


@pytest.mark.parametrize("m", range(-3, 4))
def test_total_chern_of_a_multiple_line_is_binomial(m):
    # (1 + a1)^m, with the generalized binomials C(m, k) = m (m - 1) ... (m - k + 1) / k!
    for D in range(13):
        binomials = [prod(range(m, m - k, -1)) // factorial(k) for k in range(D + 1)]
        expected = GradedSeries(1, D, {(k,): c for k, c in enumerate(binomials)})
        assert total_chern(KElement(1, {(1,): m}), D) == expected, D


def test_todd_inverse_law():
    rng = random.Random(8)
    for _ in range(15):
        n = rng.randint(1, 3)
        x = random_k_element(rng, n)
        assert todd(x, 3) * todd(-x, 3) == GradedSeries.one(n, 3)


def test_todd_multiplicative_randomized():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 3)
        x = random_k_element(rng, n)
        y = random_k_element(rng, n)
        assert todd(x + y, 3) == todd(x, 3) * todd(y, 3)


@pytest.mark.parametrize("cls", [ch, todd, total_chern])
def test_classes_refuse_negative_truncation(cls):
    x = KElement(2, {(1, 0): 1, (0, -1): -2})
    with pytest.raises(ValueError, match="truncation_degree must be non-negative"):
        cls(x, -1)


@pytest.mark.parametrize("cls", [ch, todd, total_chern])
def test_classes_refuse_negative_truncation_with_trivial_line(cls):
    with pytest.raises(ValueError, match="truncation_degree must be non-negative"):
        cls(KElement(2, {(0, 0): 2, (1, 0): -1}), -1)


def test_todd_line_refuses_negative_truncation():
    with pytest.raises(ValueError, match="truncation_degree must be non-negative"):
        todd_line(-1)


@pytest.mark.parametrize("truncation_degree", [None, 3])
def test_chern_k_names_k_in_its_refusal_of_a_negative_k(truncation_degree):
    with pytest.raises(ValueError) as refused:
        chern_k(KElement.line((1, 0)), -1, truncation_degree)
    assert str(refused.value) == "k must be non-negative"


def test_chern_k_refuses_a_truncation_below_k():
    with pytest.raises(ValueError, match="truncation degree must be at least k"):
        chern_k(KElement.line((1, 0)), 3, 2)


# -- alternating exterior sum -------------------------------------------------------


def test_alternating_sum_single_line():
    r = KElement.line((1, 0))
    assert alternating_lambda_sum(r) == unit(2) - r


def test_alternating_sum_two_lines():
    r1 = KElement.line((1, 0))
    r2 = KElement.line((0, 1))
    expected = unit(2) - r1 - r2 + KElement.line((1, 1))
    assert alternating_lambda_sum(r1 + r2) == expected


def test_alternating_sum_of_zero():
    assert alternating_lambda_sum(KElement.zero(2)) == unit(2)


def test_alternating_sum_rejects_negative_rank():
    with pytest.raises(ValueError):
        alternating_lambda_sum(-unit(1))
