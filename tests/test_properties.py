"""Hypothesis properties of Horner substitution, of the Chern character
against its exp-per-line definition, of gamma^k against the top coefficient
of gamma_t and of the alternating lambda sum against lambda_t, with and
without a trivial line, of both sides of gala against the alternating
product of the lines, of the Todd and total Chern classes against their
product-per-line definition, of the degree-k part of those classes against
the same classes truncated at k, of the S_n-orbit Chern character times a class
of generic lines against the dense ones, of the strata-lattice round trip,
of the fiber validate_fiber returns against direct superset sums and the file
order, of the random lattice's independence of the hash seed, of the fiber
functions' refusal of corrupted strata lattices, of the conductor under point
blow-ups, of the conductor CLI on hostile integers, and of the model reader on
valid documents."""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path
from unittest import mock

import pytest

from charcalc.cli import main
from charcalc.conductor import (
    ArithmeticModel,
    Component,
    FiberModel,
    ModelValidationError,
    Stratum,
    _superset_sums,
    bloch_degree,
    closed_strata_from_open,
    fiber_euler,
    generic_euler_check,
    normalize_fiber,
    open_strata_from_closed,
    tame_check,
    validate_fiber,
    validate_model,
)
from charcalc.lambda_ring import (
    KElement,
    _chern_weights,
    _class_terms,
    _graded,
    _todd_weights,
    alternating_lambda_sum,
    ch,
    gamma_k,
    gamma_t,
    lambda_t,
    symmetric_ch,
    todd,
    todd_line,
    total_chern,
)
from charcalc.modelfile import parse_model
from charcalc.series import GradedSeries, render_sum
from charcalc.verify import CheckResult, generic_lines, repeated_root_lines, verify_gala

from oracles import (
    alternating_product,
    blow_up,
    exp_coefficients,
    open_chi_via_unions,
    random_strata_lattice,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings, example = hypothesis.given, hypothesis.settings, hypothesis.example

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=9)
unit_series = st.lists(rationals, max_size=6).map(lambda tail: [Fraction(1), *tail])


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
@given(positive_valuation_series(), unit_series, unit_series)
def test_substitution_is_multiplicative(x, f, g):
    fg = truncated_product(f, g, x.truncation_degree)
    assert x.substitute(fg) == x.substitute(f) * x.substitute(g)


# -- GradedSeries keys: packed inside, exponent tuples outside ---------------------


@st.composite
def graded_terms(draw):
    """(n, D, terms) for n = 0..5 and D = 0..8, with exponents up to D + 2, so
    that some monomials lie above the truncation, and some zero coefficients."""
    n = draw(st.integers(min_value=0, max_value=5))
    D = draw(st.integers(min_value=0, max_value=8))
    monomial = st.tuples(*[st.integers(min_value=0, max_value=D + 2)] * n)
    return n, D, draw(st.dictionaries(monomial, rationals, max_size=10))


def render_by_tuples(terms):
    """``str`` of a series, from a map keyed by exponent tuples."""
    texts = []
    for mono, c in sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        body = "*".join(f"a{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(mono) if e)
        sign = {1: "", -1: "-"}.get(c, f"{c}*")
        texts.append(f"{sign}{body}" if body else str(c))
    return render_sum(texts)


@settings(max_examples=200, deadline=None)
@given(graded_terms())
@example((0, 0, {(): Fraction(3)}))
@example((5, 0, {(0,) * 5: Fraction(-1), (0, 0, 0, 0, 1): Fraction(1)}))
@example((3, 8, {(8, 0, 0): 1, (0, 0, 8): Fraction(-1), (3, 3, 2): Fraction(2, 3), (9, 0, 0): 1}))
def test_packed_keys_round_trip(case):
    n, D, terms = case
    s = GradedSeries(n, D, terms)
    kept = {mono: c for mono, c in terms.items() if c and sum(mono) <= D}
    assert dict(s.terms()) == kept
    monos = [mono for mono, _ in s.terms()]
    assert monos == sorted(kept, key=lambda mono: (sum(mono), mono))
    assert str(s) == render_by_tuples(kept)
    for k in range(D + 1):
        assert dict(s.component(k).terms()) == {m: c for m, c in kept.items() if sum(m) == k}
    assert all(s.coefficient(mono) == c for mono, c in kept.items())


# -- Chern character ------------------------------------------------------------


def ch_by_exp(x, degree):
    """The defining sum of m * exp(c1(r)) over the lines m[r] of x, each
    exponential expanded by Horner substitution."""
    exp = exp_coefficients(degree)
    acc = GradedSeries.zero(x.symbol_count, degree)
    for root, mult in x.terms():
        acc = acc + mult * GradedSeries.linear_form(root, degree).substitute(exp)
    return acc


@st.composite
def k_elements(draw):
    """A KElement over 0..5 symbols: roots with entries in [-3, 3] (the
    all-zero root included), multiplicities in [-3, 3], possibly zero."""
    n = draw(st.integers(min_value=0, max_value=5))
    root = st.tuples(*[st.integers(min_value=-3, max_value=3)] * n)
    multiplicity = st.integers(min_value=-3, max_value=3)
    return KElement(n, draw(st.dictionaries(root, multiplicity, max_size=5)))


@settings(max_examples=80, deadline=None)
@given(k_elements(), st.integers(min_value=0, max_value=7))
@example(KElement.zero(3), 4)
@example(KElement.zero(0), 2)
@example(KElement(2, {(0, 0): -3, (2, -3): 1}), 7)
@example(KElement(5, {(0,) * 5: 2, (1, -1, 0, 3, -2): -3, (-1, 0, 0, 0, 1): 3}), 7)
def test_ch_matches_exp_per_line(x, degree):
    result = ch(x, degree)
    assert result == ch_by_exp(x, degree)
    assert all(type(c) is Fraction for _, c in result.terms())


def test_ch_of_gamma_matches_exp_per_line_at_rank_6():
    n = 6
    x = gamma_k(generic_lines(n) - n * KElement.unit(n), n - 1)
    assert ch(x, n + 1) == ch_by_exp(x, n + 1)


# -- gamma operations -----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(k_elements(), st.integers(min_value=0, max_value=6))
@example(KElement.zero(2), 0)
@example(KElement(0, {(): -2}), 3)
def test_gamma_k_is_the_top_coefficient_of_gamma_t(x, k):
    assert gamma_k(x, k) == gamma_t(x, k).coefficient(k)


@st.composite
def with_trivial_line(draw):
    """A :func:`k_elements` element whose trivial line [0] has a nonzero
    multiplicity in [-8, 8]."""
    x = draw(k_elements())
    m = draw(st.integers(min_value=-8, max_value=8).filter(bool))
    unit = KElement.unit(x.symbol_count)
    return x + (m - x.multiplicity((0,) * x.symbol_count)) * unit


@settings(max_examples=80, deadline=None)
@given(with_trivial_line(), st.integers(min_value=0, max_value=7))
@example(KElement(0, {(): -8}), 7)
@example(KElement(2, {(0, 0): 8, (1, -1): -3}), 7)
@example(KElement(3, {(0, 0, 0): -5, (1, 0, 2): 3, (0, -1, 0): 2}), 5)
def test_trivial_line_folds_into_the_weights(x, k):
    # the trivial line enters gamma_k and the alternating sum as (1 + t)^m on
    # the read-off weights; the dense gamma_t and lambda_t carry it on every term
    assert gamma_k(x, k) == gamma_t(x, k).coefficient(k)
    d = x.rank
    if d >= 0:
        lam = lambda_t(x, d)
        terms = (lam.coefficient(i) * (-1) ** i for i in range(d + 1))
        assert alternating_lambda_sum(x) == sum(terms, KElement.zero(x.symbol_count))


@pytest.mark.parametrize("n", range(1, 12))
def test_gamma_k_of_reduced_generic_lines(n):
    x = generic_lines(n) - n * KElement.unit(n)
    assert gamma_k(x, n - 1) == gamma_t(x, n - 1).coefficient(n - 1)


@pytest.mark.parametrize("n", range(2, 12))
def test_gamma_k_of_reduced_repeated_root_lines(n):
    # gala's second input: n lines on n - 1 symbols, one of them doubled
    x = repeated_root_lines(n) - n * KElement.unit(n - 1)
    assert gamma_k(x, n) == gamma_t(x, n).coefficient(n)


@st.composite
def effective_roots(draw):
    """One to six roots over 0..4 symbols, entries in [-3, 3] (the all-zero
    root included), repeats allowed: the lines of an effective element."""
    n = draw(st.integers(min_value=0, max_value=4))
    root = st.tuples(*[st.integers(min_value=-3, max_value=3)] * n)
    return draw(st.lists(root, min_size=1, max_size=6))


@settings(max_examples=80, deadline=None)
@given(effective_roots())
@example([()])
@example([(0,), (1,)])
@example([(0, 0), (0, 0)])
@example([(1, -1), (1, -1), (1, -1), (-2, 3)])
def test_gala_sides_match_the_alternating_product(roots):
    # the left side equals prod (1 - [r]) here, and gala's packed right side
    # equals its left side: a factor (1 - [0]) must read 0
    x = KElement.sum_of_lines(roots)
    d = len(roots)
    lhs = (-1) ** d * gamma_k(x - d * KElement.unit(x.symbol_count), d)
    assert dict(lhs.terms()) == alternating_product(roots)
    assert verify_gala(x) == CheckResult("gala", {"rank": d}, True, "")


# -- multiplicative classes --------------------------------------------------------


def product_per_line(x, degree, line):
    """The defining product of f(c1(r))^m over the lines m[r] of x, for f the
    univariate series ``line``: f(r) is the Horner substitution of f into the
    linear form r, inverted when m < 0, and multiplied in |m| times."""
    acc = GradedSeries.one(x.symbol_count, degree)
    for root, mult in x.terms():
        factor = GradedSeries.linear_form(root, degree).substitute(line)
        if mult < 0:
            factor = factor.invert()
        for _ in range(abs(mult)):
            acc = acc * factor
    return acc


@settings(max_examples=80, deadline=None)
@given(k_elements(), st.integers(min_value=0, max_value=7))
@example(KElement.zero(3), 4)
@example(KElement.zero(0), 2)
@example(KElement(0, {(): -2}), 3)
@example(KElement(3, {(0, 0, 0): 3}), 5)
@example(KElement(4, {(1, -1, 0, 3): -3, (-2, 0, 0, 1): 2, (0, 0, 0, 0): 1}), 7)
def test_todd_and_total_chern_match_product_per_line(x, degree):
    for result, line in (
        (todd(x, degree), todd_line(degree)),
        (total_chern(x, degree), [1, 1]),
    ):
        assert result == product_per_line(x, degree, line)
        assert all(type(c) is Fraction for _, c in result.terms())


def degree_part(x, D, k, weights_of):
    """The degree-k part of the class of x at truncation D of the weights
    ``weights_of`` (:func:`_class_terms`), as a map from exponent tuples."""
    return dict(_graded(x, D, *_class_terms(x, D, weights_of)).component(k).terms())


# the dual sign rule of homomorphism reads c_k at truncation k
@settings(max_examples=80, deadline=None)
@given(st.one_of(k_elements(), with_trivial_line()), st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=5))
@example(KElement.zero(1), 0, 0)
@example(KElement(1, {(0,): 3, (-3,): -1}), 3, 3)
@example(KElement(2, {(0, 0): -2, (1, -1): -3, (2, 0): 1}), 2, 5)
@example(KElement(3, {(0, 0, 0): 1, (1, 0, -1): -2}), 0, 5)
def test_class_degree_parts_do_not_depend_on_the_truncation(x, k, D):
    k, D = sorted((k, D))
    for weights_of in (_chern_weights, _todd_weights):
        assert degree_part(x, D, k, weights_of) == degree_part(x, k, k, weights_of)


# -- the S_n-orbit Chern character times a class of generic lines ---------------


def dominant_part(series: GradedSeries) -> dict:
    """The terms of a dense series at non-increasing exponent tuples."""
    return {key: c for key, c in series.terms() if list(key) == sorted(key, reverse=True)}


@st.composite
def symmetric_elements(draw, n, entries=st.integers(-2, 2), distinct=0):
    """The orbit closure of one to three random roots with entries from
    ``entries``, each with at least ``distinct`` distinct entries: each root's
    multiplicity is added at every permutation of it."""
    roots = st.lists(entries, min_size=n, max_size=n).filter(lambda r: len(set(r)) >= distinct)
    terms: dict[tuple, int] = {}
    for _ in range(draw(st.integers(1, 3))):
        root = tuple(draw(roots))
        mult = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        for image in set(permutations(root)):
            terms[image] = terms.get(image, 0) + mult
    return KElement(n, terms)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 4), D=st.integers(0, 6), line=unit_series)
def test_symmetric_ch_and_product_match_dense(data, n, D, line):
    x = data.draw(symmetric_elements(n))
    assert dict(symmetric_ch(x, D).terms()) == dominant_part(ch(x, D))
    # ch(x) times the class of the generic lines with value sum_k line[k] l^k
    dense = ch(x, D)
    for i in range(n):
        dense = dense * (1 + GradedSeries.symbol(i, n, D).substitute([0, *line[1:]]))
    assert dict(symmetric_ch(x, D, line).terms()) == dominant_part(dense)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(3, 5), D=st.integers(0, 5))
def test_symmetric_ch_on_roots_with_three_entry_values_matches_dense_classes(data, n, D):
    # the verifiers' elements have roots with two entry values; these have three or four
    x = data.draw(symmetric_elements(n, st.sampled_from([-1, 0, 1, 2]), distinct=3))
    E, todd_E = generic_lines(n), todd_line(D)
    todd_dual = [c * (-1) ** k for k, c in enumerate(todd_E)]
    ch_x = ch(x, D)
    for line, dense in (
        ((1,), ch_x),
        ((1, 1), ch_x * total_chern(E, D)),
        (todd_E, ch_x * todd(E, D)),
        (todd_dual, ch_x * todd(E.dual(), D)),
    ):
        assert dict(symmetric_ch(x, D, line).terms()) == dominant_part(dense)


# -- strata lattice ---------------------------------------------------------------


@st.composite
def snc_fibers(draw):
    """A valid fiber: 1..6 components of multiplicity 1..4, strata closed
    under non-empty subsets, and an integer chi_closed on each."""
    ids = [f"C{i + 1}" for i in range(draw(st.integers(min_value=1, max_value=6)))]
    deeper = [frozenset(J) for size in range(2, len(ids) + 1) for J in combinations(ids, size)]
    family = {frozenset({cid}) for cid in ids}
    for J in draw(st.sets(st.sampled_from(deeper))) if deeper else ():
        family.update(frozenset(K) for size in range(1, len(J) + 1) for K in combinations(J, size))
    chi = st.integers(min_value=-12, max_value=12)
    components = tuple(
        Component(cid, draw(st.integers(min_value=1, max_value=4))) for cid in ids
    )
    strata = tuple(Stratum(J, chi_closed=draw(chi)) for J in sorted(family, key=sorted))
    return FiberModel(5, components, strata)


def chi_by_stratum(fiber, side):
    return {s.components: getattr(s, side) for s in fiber.strata}


@settings(max_examples=80, deadline=None)
@given(snc_fibers())
def test_strata_round_trip(fiber):
    opened = open_strata_from_closed(fiber)
    closed = closed_strata_from_open(opened)
    assert chi_by_stratum(closed, "chi_closed") == chi_by_stratum(fiber, "chi_closed")
    # and from the open data alone, through the closed side and back
    open_only = FiberModel(
        fiber.prime,
        fiber.components,
        tuple(Stratum(s.components, chi_open=s.chi_open) for s in opened.strata),
    )
    rederived = open_strata_from_closed(closed_strata_from_open(open_only))
    assert chi_by_stratum(rederived, "chi_open") == chi_by_stratum(opened, "chi_open")


# -- every fiber function refuses a corrupted strata lattice -----------------------

CORRUPTIONS = ("drop a singleton", "add a component to one stratum", "add an undeclared deep stratum")


def corrupt(family: dict, ids: list, how: str, rng: random.Random) -> dict:
    """``family`` ({stratum: chi}) after one corruption that makes it invalid."""
    family = dict(family)
    if how == "drop a singleton":
        del family[frozenset({rng.choice(ids)})]
    elif how == "add a component to one stratum":
        J = rng.choice(sorted(family, key=sorted))
        extra = rng.choice([cid for cid in [*ids, "ghost"] if cid not in J])
        family[J | {extra}] = family.pop(J)
    else:
        family[frozenset({rng.choice(ids), "ghost"})] = rng.randint(-5, 5)
    return family


def test_random_lattice_ignores_the_hash_seed():
    # a failing example is replayed from its seed in another process
    script = (
        "import random; from oracles import random_strata_lattice; "
        "ids, chi = random_strata_lattice(random.Random(5)); "
        "print(ids, sorted((sorted(J), v) for J, v in chi.items()))"
    )
    tests = str(Path(__file__).resolve().parent)
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script], cwd=tests, capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        ).stdout
        for hash_seed in ("1", "2", "3")
    }
    assert len(outputs) == 1 and outputs != {""}


def superset_sum(values: dict, J: frozenset, sign: int) -> int:
    """sum of sign^(|J2| - |J|) * values[J2] over the strata J2 containing J."""
    return sum(sign ** (len(J2) - len(J)) * value for J2, value in values.items() if J <= J2)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), sign=st.sampled_from([-1, 1]))
def test_superset_sums_match_their_definition(seed, sign):
    _, values = random_strata_lattice(random.Random(seed), max_components=6)
    sums = _superset_sums(values, sign)
    assert sums == {J: superset_sum(values, J, sign) for J in values}
    assert _superset_sums(sums, -sign) == values


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       side=st.sampled_from(["chi_closed", "chi_open"]))
def test_validate_fiber_returns_the_normalized_fiber(seed, side):
    # the strata keep the file order, the declared side is kept as declared, the
    # other side is its inclusion-exclusion, and each component carries chi*(T_i)
    rng = random.Random(seed)
    ids, values = random_strata_lattice(rng, max_components=6)
    components = tuple(Component(cid, rng.randint(1, 3)) for cid in ids)
    order = list(values)
    rng.shuffle(order)
    fiber = FiberModel(5, components, tuple(Stratum(J, **{side: values[J]}) for J in order))
    normalized = validate_fiber(fiber)
    assert normalized == normalize_fiber(fiber)
    assert normalized.prime == fiber.prime
    assert [s.components for s in normalized.strata] == order
    declared = {s.components: getattr(s, side) for s in normalized.strata}
    other = "chi_open" if side == "chi_closed" else "chi_closed"
    derived = {s.components: getattr(s, other) for s in normalized.strata}
    assert declared == values
    sign = -1 if side == "chi_closed" else 1
    assert derived == {J: superset_sum(values, J, sign) for J in order}
    opened = {s.components: s.chi_open for s in normalized.strata}
    assert normalized.components == tuple(
        Component(cid, m, opened[frozenset({cid})]) for cid, m, _ in components
    )
    assert {type(r) for r in normalized.components + normalized.strata} == {Component, Stratum}


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), how=st.sampled_from(CORRUPTIONS),
       side=st.sampled_from(["chi_closed", "chi_open"]))
def test_fiber_functions_refuse_corrupted_lattices(seed, how, side):
    rng = random.Random(seed)
    ids, family = random_strata_lattice(rng)
    components = tuple(Component(cid, rng.randint(1, 3)) for cid in ids)

    def fiber(chi):
        return FiberModel(5, components, tuple(Stratum(J, **{side: v}) for J, v in chi.items()))

    convert = open_strata_from_closed if side == "chi_closed" else closed_strata_from_open
    entries = (validate_fiber, normalize_fiber, convert, fiber_euler, bloch_degree, tame_check)
    for entry in entries:  # the uncorrupted lattice is accepted
        entry(fiber(family))
    corrupted = fiber(corrupt(family, ids, how, rng))
    for entry in entries:
        with pytest.raises(ModelValidationError):
            entry(corrupted)


# -- point blow-ups: an oracle independent of the fiber's dimension ----------------


def derivation(mults: dict, closed: dict, d: int):
    """The conductor's record of the fiber at p = 5 given by multiplicities and closed chi."""
    fiber = FiberModel(
        5,
        tuple(Component(cid, m) for cid, m in mults.items()),
        tuple(Stratum(J, chi_closed=chi) for J, chi in closed.items()),
    )
    (record,) = generic_euler_check(ArithmeticModel(d, (fiber,))).primes
    return record


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), extra=st.integers(min_value=0, max_value=2),
       blow_ups=st.integers(min_value=1, max_value=4))
def test_point_blow_ups_keep_the_generic_euler_characteristic(seed, extra, blow_ups):
    # Blowing up a closed point changes neither the generic fiber nor the Swan
    # conductor: chi(X_Q) = sum m_i chi*(T_i) holds on both models, and the
    # point's P^d raises chi(X_p) by d, so the exponent falls by d.
    rng = random.Random(seed)
    ids, closed = random_strata_lattice(rng, max_components=6)
    mults = {cid: rng.randint(1, 5) for cid in ids}
    d = max(1, max(map(len, closed)) - 1) + extra
    before = derivation(mults, closed, d)
    for _ in range(blow_ups):
        J = rng.choice(sorted(closed, key=sorted))
        mults, closed = blow_up(mults, closed, J, d)
        after = derivation(mults, closed, d)
        assert after.weighted_sum == before.weighted_sum
        assert after.chi_fiber == before.chi_fiber + d
        assert after.exponent == before.exponent - d
        before = after


def test_projective_plane_blown_up_at_a_point():
    # P^2 over Z_p: good reduction, chi = 3; its blow-up has chi(X_p) = 5
    mults, closed = blow_up({"P": 1}, {frozenset({"P"}): 3}, frozenset({"P"}), 2)
    assert closed == {frozenset({"P"}): 4, frozenset({"E1"}): 3, frozenset({"P", "E1"}): 2}
    record = derivation(mults, closed, 2)
    assert (record.weighted_sum, record.chi_fiber, record.exponent) == (3, 5, -2)


# -- the conductor CLI on hostile integers ----------------------------------------

HUGE = 10**500


@st.composite
def scaled_models(draw):
    """A model document of one or two random valid strata lattices, with the
    chi values, generic_euler and relative_dimension scaled by up to 10^500."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    scale = draw(st.integers(min_value=-HUGE, max_value=HUGE))
    fibers = []
    primes = st.lists(st.sampled_from([2, 3, 5, 7]), min_size=1, max_size=2, unique=True)
    for prime in draw(primes):
        ids, chi = random_strata_lattice(rng)
        fibers.append({
            "prime": prime,
            "components": [{"id": cid, "multiplicity": rng.randint(1, 3)} for cid in ids],
            "strata": [{"components": sorted(J), "chi_closed": v * scale} for J, v in chi.items()],
        })
    dimension = draw(st.integers(min_value=0, max_value=4))
    doc = {"relative_dimension": dimension * draw(st.integers(min_value=1, max_value=HUGE)),
           "fibers": fibers}
    generic_euler = draw(st.none() | st.integers(min_value=-5, max_value=5))
    if generic_euler is not None:
        doc["generic_euler"] = generic_euler * scale
    return doc


# two lines meeting in a stratum, every closed chi 10^400: f_5 = -10^400
TWO_LINES_AT_1E400 = {
    "relative_dimension": 1,
    "generic_euler": 0,
    "fibers": [{
        "prime": 5,
        "components": [{"id": "C1", "multiplicity": 1}, {"id": "C2", "multiplicity": 1}],
        "strata": [
            {"components": J, "chi_closed": 10**400} for J in (["C1"], ["C2"], ["C1", "C2"])
        ],
    }],
}


# every literal at the reader's 4,300-digit limit, and values of twice as many
# digits to print: chi(X_Q) is inferred as 2 * 9 * 10^4299 * (9 * 10^4299 + 2)
AT_DIGIT_LIMIT = 9 * 10**4299
PAST_DIGIT_LIMIT = {
    "relative_dimension": AT_DIGIT_LIMIT,
    "fibers": [{
        "prime": 5,
        "components": [
            {"id": "C1", "multiplicity": AT_DIGIT_LIMIT + 1},
            {"id": "C2", "multiplicity": 1},
        ],
        "strata": [
            {"components": ["C1"], "chi_closed": AT_DIGIT_LIMIT},
            {"components": ["C2"], "chi_closed": AT_DIGIT_LIMIT},
            {"components": ["C1", "C2"], "chi_closed": -AT_DIGIT_LIMIT},
        ],
    }],
}


@settings(max_examples=40, deadline=None)
@given(doc=scaled_models())
@example(doc=TWO_LINES_AT_1E400)
@example(doc=PAST_DIGIT_LIMIT)
def test_conductor_cli_exits_cleanly_on_hostile_integers(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("hostile") / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command, *options in (["conductor"], ["conductor", "--output", "machine"], ["explain"]):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main([command, "--model", str(path), *options])
        assert code == 0 if doc is PAST_DIGIT_LIMIT else code in (0, 1, 2)


# -- the model reader on valid documents -------------------------------------------


@st.composite
def model_documents(draw):
    """A valid model file's document, with the model of the same records built
    directly as plain triples: 1..3 fibers at distinct primes, each a random
    strata lattice with its records in random order.  A component declares
    chi_open or not; each stratum of a fiber declares one side (the fiber's) or
    both, consistently."""
    fibers, documents = [], []
    primes = st.lists(st.sampled_from([2, 3, 5, 7]), min_size=1, max_size=3, unique=True)
    for prime in draw(primes):
        seed = draw(st.integers(min_value=0, max_value=2**32))
        ids, closed = random_strata_lattice(random.Random(seed))
        chi = {
            "chi_closed": closed,
            "chi_open": {J: open_chi_via_unions(closed, J) for J in closed},
        }
        side = draw(st.sampled_from(sorted(chi)))
        components, component_records = [], []
        for cid in draw(st.permutations(ids)):
            multiplicity = draw(st.integers(min_value=1, max_value=4))
            chi_open = chi["chi_open"][frozenset({cid})] if draw(st.booleans()) else None
            components.append((cid, multiplicity, chi_open))
            record = {"id": cid, "multiplicity": multiplicity}
            if chi_open is not None:
                record["chi_open"] = chi_open
            component_records.append(record)
        strata, stratum_records = [], []
        for J in draw(st.permutations(sorted(closed, key=sorted))):
            sides = sorted(chi) if draw(st.booleans()) else [side]
            declared = {s: chi[s][J] for s in sides}
            strata.append((J, declared.get("chi_closed"), declared.get("chi_open")))
            stratum_records.append({"components": draw(st.permutations(sorted(J))), **declared})
        fibers.append(FiberModel(prime, tuple(components), tuple(strata)))
        documents.append(
            {"prime": prime, "components": component_records, "strata": stratum_records}
        )
    depth = max(len(J) for fiber in fibers for J, _, _ in fiber.strata)
    d = depth - 1 + draw(st.integers(min_value=0, max_value=2))
    generic_euler = draw(st.none() | st.integers(min_value=-9, max_value=9))
    document = {"relative_dimension": d, "fibers": documents}
    if generic_euler is not None:
        document["generic_euler"] = generic_euler
    return document, ArithmeticModel(d, tuple(fibers), generic_euler)


@settings(max_examples=150, deadline=None)
@given(model_documents())
def test_model_reader_matches_validation_of_the_declared_records(case):
    document, model = case
    text = json.dumps(document)
    assert parse_model(text) == validate_model(model)
    # and the reader hands validation exactly the declared triples
    with mock.patch("charcalc.modelfile.validate_model", lambda read: read):
        assert parse_model(text) == model
