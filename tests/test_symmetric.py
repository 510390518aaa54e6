"""The S_n-orbit path of the generic-lines verifiers: ``SymmetricSeries`` and
``symmetric_ch`` with its line values against the dense series of ``ch``,
``todd``, ``total_chern`` and ``GradedSeries`` products."""

from fractions import Fraction
from itertools import permutations

import pytest

from charcalc import verify
from charcalc.lambda_ring import (
    KElement,
    _ch_terms,
    _exp_terms,
    alternating_lambda_sum,
    ch,
    gamma_k,
    symmetric_ch,
    todd,
    todd_line,
    total_chern,
)
from charcalc.series import GradedSeries, SymmetricSeries
from charcalc.verify import generic_lines, verify_borel_serre, verify_ch_gamma, verify_prop_chtd

from oracles import ch_gamma_rhs, prefix_sum_ch


def expand(series: SymmetricSeries) -> GradedSeries:
    """The dense series of an orbit series: each dominant key, permuted."""
    terms = {}
    for key, coeff in series.terms():
        for mono in set(permutations(key)):
            terms[mono] = coeff
    return GradedSeries(series.symbol_count, series._bound, terms)


# -- every orbit series of the three verifiers, n = 1..7 -------------------


@pytest.mark.parametrize("n", range(1, 8))
def test_orbit_series_expand_to_dense(n):
    E = generic_lines(n)
    top_gamma = gamma_k(E - n * KElement.unit(n), n - 1)
    for D in (n, n + 1):
        assert expand(symmetric_ch(top_gamma, D)) == ch(top_gamma, D)
    alternating = alternating_lambda_sum(E.dual())
    ch_alternating = symmetric_ch(alternating, n)
    assert expand(ch_alternating) == ch(alternating, n)

    unit = KElement.unit(n)
    todd_E = todd_line(n)
    todd_dual = [c * (-1) ** k for k, c in enumerate(todd_E)]
    assert expand(symmetric_ch(unit, n, todd_E)) == todd(E, n)
    assert expand(symmetric_ch(unit, n, todd_dual)) == todd(E.dual(), n)
    assert expand(symmetric_ch(unit, n, [1, 1])) == total_chern(E, n)
    # the closed form of borel_serre and prop_chtd: c(E) = prod (1 + a_i), so c_k = m(1^k)
    for D in (n, n + 1, n + 3):
        chern = {(1,) * k + (0,) * (n - k): 1 for k in range(n + 1)}
        assert symmetric_ch(unit, D, (1, 1)) == SymmetricSeries(n, D, chern)

    assert expand(symmetric_ch(alternating, n, todd_E)) == ch(alternating, n) * todd(E, n)
    assert expand(symmetric_ch(top_gamma, n, todd_dual)) == ch(top_gamma, n) * todd(E.dual(), n)


# -- refusals -------------------------------------------------------------


ASYMMETRIC = [{(1, 0): 1}, {(1, 0): 1, (0, 1): 2}, {(1, 0, -1): 1, (0, 1, -1): 1, (-1, 1, 0): 1}]


@pytest.mark.parametrize("terms", ASYMMETRIC)
def test_symmetric_ch_refuses_asymmetric_element(terms):
    x = KElement(len(next(iter(terms))), terms)
    with pytest.raises(ValueError, match="not invariant under permuting the symbols"):
        symmetric_ch(x, 3)


@pytest.mark.parametrize(
    "terms, short_orbit",
    zip(ASYMMETRIC, [
        "1 of the 2 arrangements of [a1] have multiplicity 1",
        "1 of the 2 arrangements of [a1] have multiplicity 1",
        "3 of the 6 arrangements of [a1-a3] have multiplicity 1",
    ]),
    ids=["missing-root", "two-multiplicities", "half-an-orbit"],
)
def test_symmetric_ch_refusal_names_the_short_orbit(terms, short_orbit):
    # the orbit of the first root, its arrangements counted while grouping the roots
    x = KElement(len(next(iter(terms))), terms)
    with pytest.raises(ValueError) as refusal:
        symmetric_ch(x, 3)
    assert str(refusal.value) == f"not invariant under permuting the symbols: {short_orbit}"


def test_symmetric_ch_refuses_negative_truncation():
    with pytest.raises(ValueError, match="truncation_degree must be non-negative"):
        symmetric_ch(KElement(0, {(): 1}), -1)


@pytest.mark.parametrize("line", [(), (0, 1), (2, 1), (Fraction(1, 2),)])
def test_symmetric_ch_refuses_line_without_unit_constant(line):
    with pytest.raises(ValueError, match=r"f\[0\] = 1"):
        symmetric_ch(KElement.unit(2), 3, line)
    # the dense classes read a line value through the same reader
    with pytest.raises(ValueError, match=r"f\[0\] = 1"):
        _exp_terms(*_ch_terms(KElement.unit(2), 3), line, 3)


def test_symmetric_series_do_not_multiply():
    x = symmetric_ch(KElement.unit(2), 3) - 1
    with pytest.raises(TypeError, match="symmetric_ch"):
        x * x
    with pytest.raises(TypeError, match="symmetric_ch"):
        x.substitute([1, 1, 1])
    assert Fraction(1, 2) * x == x * Fraction(1, 2)  # scalars still act


def test_symmetric_series_refuses_non_dominant_key():
    with pytest.raises(ValueError, match="not dominant"):
        SymmetricSeries(2, 3, {(0, 1): 1})
    # keys above the truncation degree are checked too
    with pytest.raises(ValueError, match="not dominant"):
        SymmetricSeries(2, 1, {(1, 2): 1})


def test_symmetric_series_renders_orbits():
    series = SymmetricSeries(3, 3, {(0, 0, 0): 2, (2, 1, 0): Fraction(1, 2), (1, 1, 1): -1})
    assert str(series) == "2 - m(1,1,1) + 1/2*m(2,1)"
    assert series.component(3) == SymmetricSeries(3, 3, {(2, 1, 0): Fraction(1, 2), (1, 1, 1): -1})


# -- the symmetric checks beyond the dense frontier -------------------------


@pytest.mark.parametrize("n", [10, 12])
@pytest.mark.parametrize(
    "check", [verify_borel_serre, verify_ch_gamma, verify_prop_chtd],
    ids=["borel_serre", "ch_gamma", "prop_chtd"],
)
def test_symmetric_checks_at_high_rank(check, n):
    result = check(n)
    assert result.ok, result.detail


# -- the orbit product against the prefix sum it replaced ----------------------


@pytest.mark.parametrize("n", range(1, 13))
def test_orbit_product_equals_the_prefix_sum(n):
    E = generic_lines(n)
    top_gamma = gamma_k(E - n * KElement.unit(n), n - 1)
    todd_E = todd_line(n)
    inputs = [
        (alternating_lambda_sum(E.dual()), n, todd_E),  # borel_serre
        (top_gamma, n + 1, (1,)),  # ch_gamma
        (top_gamma, n, [c * (-1) ** k for k, c in enumerate(todd_E)]),  # prop_chtd
        (KElement.unit(n), n, (1, 1)),  # the total Chern class of E
    ]
    for x, D, line in inputs:
        assert dict(symmetric_ch(x, D, line).terms()) == prefix_sum_ch(dict(x.terms()), n, D, line)


# -- ch_gamma's right side as numerators against the Fraction right side it replaced


def ch_gamma_against_the_oracle(monkeypatch, n, D):
    """verify_ch_gamma(n, D) with its left side replaced by the oracle's right side:
    it passes exactly when its own right side equals the oracle's."""
    oracle = SymmetricSeries(n, D, ch_gamma_rhs(n, D))
    monkeypatch.setattr(verify, "symmetric_ch", lambda x, degree: oracle)
    return verify_ch_gamma(n, D)


@pytest.mark.parametrize("n", range(1, 13))
def test_ch_gamma_rhs_equals_the_fraction_rhs(monkeypatch, n):
    for D in range(n - 1, n + 7):
        result = ch_gamma_against_the_oracle(monkeypatch, n, D)
        assert result.ok, (D, result.detail)


def test_ch_gamma_rhs_equals_the_fraction_rhs_past_degree_40(monkeypatch):
    result = ch_gamma_against_the_oracle(monkeypatch, 6, 41)
    assert result.ok, result.detail


def test_ch_gamma_against_the_oracle_sees_a_wrong_rhs(monkeypatch):
    # the comparison above is not vacuous: a right side off at one orbit fails it
    wrong = {**ch_gamma_rhs(3, 4), (2, 1, 0): Fraction(1, 3)}
    monkeypatch.setattr(verify, "symmetric_ch", lambda x, degree: SymmetricSeries(3, 4, wrong))
    assert not verify_ch_gamma(3, 4).ok
