"""Identity verifiers, checked against independently expanded oracles."""

import random
from fractions import Fraction

import pytest

from charcalc.series import GradedSeries
from charcalc.lambda_ring import (
    KElement,
    alternating_lambda_sum,
    ch,
    gamma_k,
    todd,
)
from charcalc.verify import (
    _differences,
    generic_lines,
    repeated_root_lines,
    verify_borel_serre,
    verify_ch_gamma,
    verify_gala,
    verify_hom_laws,
    verify_prop_chtd,
)

from oracles import alternating_product, exp_coefficients


def random_effective_lines(rng, rank, force_repeat=False):
    """A list of `rank` small roots, optionally with a forced repeat."""
    n = max(1, rank - 1) if force_repeat else rank
    roots = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(rank)]
    if force_repeat and rank >= 2:
        roots[-1] = roots[0]
    return roots


# -- gala ---------------------------------------------------------------------


@pytest.mark.parametrize("rank", range(1, 7))
def test_gala_generic_lines(rank):
    assert verify_gala(generic_lines(rank)).ok


@pytest.mark.parametrize("rank", range(2, 7))
def test_gala_repeated_root(rank):
    assert verify_gala(repeated_root_lines(rank)).ok


def test_gala_both_sides_match_direct_expansion():
    rng = random.Random(20)
    for _ in range(25):
        rank = rng.randint(1, 4)
        roots = random_effective_lines(rng, rank, force_repeat=rng.random() < 0.5)
        x = KElement.sum_of_lines(roots)
        oracle = alternating_product(roots)
        lhs = gamma_k(x - rank * KElement.unit(x.symbol_count), rank)
        if rank % 2:
            lhs = -lhs
        rhs = alternating_lambda_sum(x)
        assert dict(lhs.terms()) == oracle
        assert dict(rhs.terms()) == oracle
        assert verify_gala(x).ok


def test_gala_rejects_negative_rank():
    with pytest.raises(ValueError):
        verify_gala(-KElement.unit(1))


# -- Borel-Serre -----------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 6))
def test_borel_serre(n):
    assert verify_borel_serre(n, n).ok


def test_borel_serre_exact_above_top_degree():
    # the identity telescopes exactly, so higher truncations also agree
    assert verify_borel_serre(2, 5).ok
    assert verify_borel_serre(3, 5).ok


def test_borel_serre_n1_telescopes():
    # (1 - e^{-a}) * a/(1 - e^{-a}) = a
    result = verify_borel_serre(1, 4)
    assert result.ok


def test_borel_serre_rejects_low_degree():
    with pytest.raises(ValueError):
        verify_borel_serre(3, 2)


# -- Chern character of the top gamma operation ------------------------------------


@pytest.mark.parametrize("n", range(1, 6))
def test_ch_gamma(n):
    assert verify_ch_gamma(n, n + 1).ok


def test_ch_gamma_rejects_low_degree():
    # below degree n - 1 both sides are zero, so the check could not fail
    with pytest.raises(ValueError, match="at least 2"):
        verify_ch_gamma(3, 1)
    assert verify_ch_gamma(3, 2).ok


@pytest.mark.parametrize(
    "check",
    [
        lambda: verify_gala(generic_lines(8)),
        lambda: verify_borel_serre(8),
        lambda: verify_ch_gamma(8),
        lambda: verify_prop_chtd(8),
    ],
    ids=["gala", "borel_serre", "ch_gamma", "prop_chtd"],
)
def test_generic_lines_checks_at_rank_8(check):
    result = check()
    assert result.ok, result.detail


@pytest.mark.parametrize(
    "check",
    [
        lambda: verify_borel_serre(0, -5),
        lambda: verify_ch_gamma(0, -5),
        lambda: verify_prop_chtd(0),
    ],
    ids=["borel_serre", "ch_gamma", "prop_chtd"],
)
def test_generic_lines_checks_need_a_line_before_a_degree(check):
    # generic_lines refuses n = 0 before the truncation degree is looked at
    with pytest.raises(ValueError, match="need at least one line"):
        check()


def test_ch_gamma_n1_is_constant_one():
    assert verify_ch_gamma(1, 2).ok
    x = generic_lines(1)
    value = ch(gamma_k(x - KElement.unit(1), 0), 2)
    assert value == GradedSeries.one(1, 2)


def test_ch_gamma_n2_frozen_expansion():
    # gamma^1(x - 2[0]) maps to (e^{a1} - 1) + (e^{a2} - 1)
    x = generic_lines(2)
    value = ch(gamma_k(x - 2 * KElement.unit(2), 1), 3)
    coeffs = exp_coefficients(3)
    expected_terms = {}
    for k in range(1, 4):
        expected_terms[(k, 0)] = coeffs[k]
        expected_terms[(0, k)] = coeffs[k]
    assert value == GradedSeries(2, 3, expected_terms)


# -- concentration of the product ----------------------------------------------------


@pytest.mark.parametrize("n", range(1, 6))
def test_prop_chtd(n):
    assert verify_prop_chtd(n).ok


def test_prop_chtd_n1_components():
    # P = ch(gamma^0) * Td([-a1]) = 1 - a1/2 at truncation 1
    x = generic_lines(1)
    P = ch(gamma_k(x - KElement.unit(1), 0), 1) * todd(x.dual(), 1)
    assert P.component(0) == GradedSeries.one(1, 1)
    assert P.component(1) == GradedSeries(1, 1, {(1,): Fraction(-1, 2)})


def test_rank_zero_concentration():
    # ch(gamma^k(y)) vanishes below degree k for rank-zero y
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randint(1, 3)
        y = KElement.zero(n)
        for _ in range(rng.randint(1, 3)):
            root = tuple(rng.randint(-1, 1) for _ in range(n))
            c = rng.choice([-2, -1, 1, 2])
            y = y + c * (KElement.line(root) - KElement.unit(n))
        assert y.rank == 0
        for k in range(4):
            image = ch(gamma_k(y, k), 4)
            for degree in range(k):
                assert image.component(degree).is_zero


# -- structural law sweep -----------------------------------------------------------


@pytest.mark.parametrize("n", (1, 2, 3))
def test_hom_laws(n):
    result = verify_hom_laws(n, cases=15, seed=n)
    assert result.ok, result.detail


def test_hom_laws_refuses_vacuous_input():
    with pytest.raises(ValueError, match="at least one case"):
        verify_hom_laws(3, cases=0)
    with pytest.raises(ValueError, match="truncation_degree must be non-negative"):
        verify_hom_laws(3, max_degree=-1)


def test_hom_laws_builds_one_ch_per_element(monkeypatch):
    import charcalc.lambda_ring as lambda_ring
    import charcalc.verify as verify

    calls = []
    original = lambda_ring.ch

    def counted(x, truncation_degree):
        calls.append(x)
        return original(x, truncation_degree)

    monkeypatch.setattr(lambda_ring, "ch", counted)
    monkeypatch.setattr(verify, "ch", counted)
    assert verify.verify_hom_laws(3, cases=1).ok
    # x, y, x + y, x * y and x*: Todd and c are derived from those
    assert len(calls) <= 5


# -- failure detail -------------------------------------------------------------


def test_differences_empty_when_equal():
    x = GradedSeries(2, 3, {(0, 0): 1, (1, 1): Fraction(1, 2)})
    assert _differences(x, x) == ""
    assert _differences(KElement.line((1, 0)), KElement.line((1, 0))) == ""


def test_differences_series_reports_count_degree_and_samples():
    lhs = GradedSeries(2, 3, {(0, 0): 1, (1, 0): 2, (1, 1): 3, (0, 2): 1})
    rhs = GradedSeries(2, 3, {(0, 0): 1, (1, 0): 1, (2, 1): 5})
    assert _differences(lhs, rhs) == (
        "4 terms differ, lowest degree 1; a1: 2 vs 1; a2^2: 1 vs 0; "
        "a1*a2: 3 vs 0; a1^2*a2: 0 vs 5"
    )
    assert _differences(GradedSeries.one(1, 2), GradedSeries.zero(1, 2)) == (
        "1 terms differ, lowest degree 0; 1: 1 vs 0"
    )


def test_differences_bounded_to_five_samples():
    n, D = 3, 7
    zero = GradedSeries.zero(n, D)
    dense = ch(generic_lines(n), D) - n
    detail = _differences(dense, zero)
    count = sum(1 for _ in dense.terms())
    assert count == 3 * D
    assert detail.startswith(f"{count} terms differ, lowest degree 1; a3: 1 vs 0; ")
    assert detail.count(" vs ") == 5
    assert detail == _differences(dense, zero)


def test_differences_k_elements():
    lhs = KElement(2, {(1, 0): 2, (0, 0): 1})
    rhs = KElement(2, {(1, 0): 1, (0, -1): 3})
    assert _differences(lhs, rhs) == (
        "3 terms differ; [-a2]: 0 vs 3; [0]: 1 vs 0; [a1]: 2 vs 1"
    )


def test_failing_verifiers_report_bounded_detail(monkeypatch):
    import charcalc.verify as verify

    # total Chern's line coefficients in place of Todd's break both Todd
    # identities; the details count S_n-orbits, not monomials
    monkeypatch.setattr(verify, "todd_line", lambda mult, degree: [1, 1])
    result = verify.verify_borel_serre(3, 6)
    assert not result.ok
    assert result.detail.startswith("6 terms differ, lowest degree 4; ")
    assert result.detail.count(" vs ") == verify.DIFF_SAMPLES
    result = verify.verify_prop_chtd(4)
    assert not result.ok
    # the degree-n component of P has only two orbits, those of a1*...*an
    # and a1^2*a2*...*a_{n-1}, so fewer than DIFF_SAMPLES can differ
    assert result.detail == (
        "degree 4 component: 2 terms differ, lowest degree 4; "
        "m(1,1,1,1): -4 vs -2; m(2,1,1): -1/2 vs 0"
    )
