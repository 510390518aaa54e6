"""Hypothesis properties of the univariate power helper, of Horner
substitution, of the Chern character against its exp-per-line definition,
of the Todd and total Chern classes against their product-per-line
definition, of the S_n-orbit Chern character times a class of generic lines
against the dense ones, of the strata-lattice round trip, of the fiber
functions' refusal of corrupted strata lattices, and of the conductor CLI on
hostile integers."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from charcalc.cli import main
from charcalc.conductor import (
    Component,
    FiberModel,
    ModelValidationError,
    Stratum,
    bloch_degree,
    closed_strata_from_open,
    fiber_euler,
    normalize_fiber,
    open_strata_from_closed,
    validate_fiber,
)
from charcalc.lambda_ring import (
    KElement,
    ch,
    gamma_k,
    symmetric_ch,
    todd,
    todd_line,
    total_chern,
)
from charcalc.series import GradedSeries, power_coefficients
from charcalc.verify import generic_lines

from oracles import random_strata_lattice

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings, example = hypothesis.given, hypothesis.settings, hypothesis.example

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


# -- Chern character ------------------------------------------------------------


def ch_by_exp(x, degree):
    """The defining sum of m * exp(c1(r)) over the lines m[r] of x, each
    exponential expanded by Horner substitution."""
    acc = GradedSeries.zero(x.symbol_count, degree)
    for root, mult in x.terms():
        acc = acc + mult * GradedSeries.linear_form(root, degree).exp()
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
    assert all(type(c) is Fraction for c in result._terms.values())


def test_ch_of_gamma_matches_exp_per_line_at_rank_6():
    n = 6
    x = gamma_k(generic_lines(n) - n * KElement.unit(n), n - 1)
    assert ch(x, n + 1)._terms == ch_by_exp(x, n + 1)._terms


# -- multiplicative classes --------------------------------------------------------


def product_per_line(x, degree, line):
    """The defining product of f(c1(r))^m over the lines m[r] of x, for f the
    univariate series ``line``: each factor is the Horner substitution of the
    coefficients of f^m into the linear form r."""
    acc = GradedSeries.one(x.symbol_count, degree)
    for root, mult in x.terms():
        power = power_coefficients(line, mult, degree)
        acc = acc * GradedSeries.linear_form(root, degree).substitute(power)
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
        (todd(x, degree), todd_line(1, degree)),
        (total_chern(x, degree), [1, 1]),
    ):
        assert result == product_per_line(x, degree, line)
        assert all(type(c) is Fraction for c in result._terms.values())


# -- the S_n-orbit Chern character times a class of generic lines ---------------


def dominant_part(series: GradedSeries) -> dict:
    """The terms of a dense series at non-increasing exponent tuples."""
    return {key: c for key, c in series.terms() if list(key) == sorted(key, reverse=True)}


@st.composite
def symmetric_elements(draw, n):
    """The orbit closure of one to three random roots: each root's
    multiplicity is added at every permutation of it."""
    terms: dict[tuple, int] = {}
    for _ in range(draw(st.integers(1, 3))):
        root = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
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
    entries = (validate_fiber, normalize_fiber, convert, fiber_euler, bloch_degree)
    for entry in entries:  # the uncorrupted lattice is accepted
        entry(fiber(family))
    corrupted = fiber(corrupt(family, ids, how, rng))
    for entry in entries:
        with pytest.raises(ModelValidationError):
            entry(corrupted)


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
