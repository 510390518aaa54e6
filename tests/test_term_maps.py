"""Behaviour shared by the term maps KElement, GradedSeries and TSeries: the
checks at their public constructors, which operands the ring operations
take, ambient mismatches, the one canonical form of a value, and exact
rendering."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcalc.series import GradedSeries, MismatchError, SymmetricSeries
from charcalc.lambda_ring import (
    KElement,
    TSeries,
    ch,
    chern_k,
    gamma_t,
    lambda_t,
    symmetric_ch,
    todd,
    todd_line,
    total_chern,
)

OPS = [operator.add, operator.sub, operator.mul]


# -- KElement boundary ----------------------------------------------------------


def test_kelement_rejects_negative_symbol_count():
    with pytest.raises(ValueError):
        KElement(-1)


def test_kelement_rejects_root_of_wrong_length():
    with pytest.raises(ValueError):
        KElement(2, {(1,): 1})
    with pytest.raises(ValueError):
        KElement(1, {(1, 0): 1})


def test_kelement_rejects_non_integer_root_entry():
    with pytest.raises(ValueError):
        KElement(2, {(1, Fraction(1, 2)): 1})
    with pytest.raises(ValueError):
        KElement(1, {(1.0,): 1})


@pytest.mark.parametrize("mult", [True, 1.0, Fraction(1), "1"])
def test_kelement_rejects_non_integer_multiplicity(mult):
    with pytest.raises(TypeError):
        KElement(1, {(1,): mult})


def test_kelement_drops_zero_multiplicities():
    assert KElement(2, {(1, 0): 0, (0, 1): 2}) == KElement(2, {(0, 1): 2})
    assert KElement(2, {(1, 0): 0}).is_zero


# -- GradedSeries boundary --------------------------------------------------------


@pytest.mark.parametrize("coeff", [True, False, "1"])
def test_series_rejects_non_rational_coefficient(coeff):
    with pytest.raises(TypeError):
        GradedSeries(1, 2, {(0,): coeff})


# -- keys: constructors and lookups -------------------------------------------------


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SymmetricSeries(2, 3, {(True, False): 1}), "invalid exponents"),
        (lambda: GradedSeries(1, 2, {(True,): 1}), "invalid exponents"),
        (lambda: KElement(2, {(1, True): 1}), "must have integer entries"),
    ],
    ids=["symmetric", "series", "kelement"],
)
def test_constructors_refuse_bool_in_keys(build, message):
    # bool is an int, but it is refused as a coefficient and a multiplicity too
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: KElement.sum_of_lines([]), "sum_of_lines needs at least one root"),
        (lambda: GradedSeries(-1, 2), "symbol_count must be non-negative"),
        (lambda: GradedSeries.symbol(2, 2, 3), "symbol index 2 out of range for 2 symbols"),
    ],
    ids=["no-lines", "negative-symbols", "symbol-index"],
)
def test_constructors_refuse_out_of_range_arguments(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


LINE = KElement.line((1,))

# A bool is an int and a float may be integral, but neither is a size: every
# symbol count, truncation degree and t-power bound is an int.
SIZES = {
    "series-degree-bool": lambda: GradedSeries(1, True, {(1,): 1}),
    "series-symbols-bool": lambda: GradedSeries(True, 2, {(1,): 1}),
    "series-degree-float": lambda: GradedSeries(1, 2.0, {(1,): 1}),
    "series-symbols-float": lambda: GradedSeries(1.0, 2, {(1,): 1}),
    "series-symbol": lambda: GradedSeries.symbol(0, True, 2),
    "symmetric-degree-bool": lambda: SymmetricSeries(1, True),
    "kelement-symbols-bool": lambda: KElement(True, {(1,): 1}),
    "tseries-one-t-max-bool": lambda: TSeries.one(1, True),
    "ch-bool": lambda: ch(LINE, True),
    "ch-float": lambda: ch(LINE, 2.0),
    "todd-bool": lambda: todd(LINE, True),
    "total-chern-bool": lambda: total_chern(LINE, True),
    "chern-k-bool": lambda: chern_k(LINE, True),
    "chern-k-degree-bool": lambda: chern_k(LINE, 1, True),
    "lambda-t-bool": lambda: lambda_t(LINE, True),
    "gamma-t-float": lambda: gamma_t(LINE, 2.0),
    "todd-line-bool": lambda: todd_line(True),
    "symmetric-ch-bool": lambda: symmetric_ch(LINE, True),
}


@pytest.mark.parametrize("name", list(SIZES))
def test_sizes_refuse_bool_and_float(name):
    with pytest.raises(TypeError, match="must be an int, got"):
        SIZES[name]()


def test_lookups_refuse_keys_of_the_wrong_length():
    series, element = GradedSeries.symbol(0, 2, 2), KElement.line((1, 0))
    assert series.coefficient((1, 0)) == 1 and series.coefficient((0, 1)) == 0
    assert element.multiplicity((1, 0)) == 1 and element.multiplicity((0, 1)) == 0
    with pytest.raises(ValueError, match="expected 2"):
        series.coefficient((1,))
    with pytest.raises(ValueError, match="expected 2"):
        series.coefficient((1, 0, 0))
    with pytest.raises(ValueError, match="expected 2"):
        element.multiplicity((1,))


SERIES = GradedSeries(1, 3, {(1,): 1, (2,): 5})

# A degree or t-power is an int in range: a bool is not read as 0 or 1, and a
# float is refused rather than matching no key.
LOOKUPS = {
    "component-bool": (lambda: SERIES.component(True), TypeError, "degree must be an int, got True"),
    "component-float": (lambda: SERIES.component(1.5), TypeError, "degree must be an int, got 1.5"),
    "component-symmetric-bool": (lambda: SymmetricSeries(1, 2).component(False), TypeError,
                                 "degree must be an int, got False"),
    "component-above": (lambda: SERIES.component(4), ValueError, "degree 4 out of range [0, 3]"),
    "component-negative": (lambda: SERIES.component(-1), ValueError,
                           "degree -1 out of range [0, 3]"),
    "coefficient-bool": (lambda: lambda_t(LINE, 2).coefficient(True), TypeError,
                         "t-power must be an int, got True"),
    "coefficient-float": (lambda: lambda_t(LINE, 2).coefficient(1.0), TypeError,
                          "t-power must be an int, got 1.0"),
    "coefficient-above": (lambda: lambda_t(LINE, 2).coefficient(3), ValueError,
                          "t-power 3 out of range [0, 2]"),
}


@pytest.mark.parametrize("name", list(LOOKUPS))
def test_lookups_refuse_bool_float_and_out_of_range_degrees(name):
    lookup, error, message = LOOKUPS[name]
    with pytest.raises(error) as refused:
        lookup()
    assert str(refused.value) == message


def test_kelement_has_no_components():
    with pytest.raises(TypeError, match="KElement has no degree bound"):
        KElement.line((1,)).component(0)


# -- TSeries boundary ------------------------------------------------------------


def test_tseries_needs_a_coefficient():
    with pytest.raises(ValueError):
        TSeries([])


@pytest.mark.parametrize(
    "coefficients", [[1, 2], [KElement.unit(1), 3]], ids=["int-first", "int-later"]
)
def test_tseries_rejects_non_kelement_coefficients(coefficients):
    with pytest.raises(TypeError, match="TSeries coefficients must be KElements"):
        TSeries(coefficients)


def test_tseries_rejects_mixed_symbol_counts():
    with pytest.raises(MismatchError):
        TSeries([KElement.unit(1), KElement.line((1, 0))])


def test_tseries_coefficients_round_trip():
    coefficients = [
        KElement.unit(2),
        KElement(2, {(1, 0): 2, (0, -1): -1}),
        KElement.zero(2),
        KElement(2, {(3, 1): 1, (0, 0): -4}),
    ]
    series = TSeries(coefficients)
    assert series.symbol_count == 2
    assert series.t_max == 3
    assert [series.coefficient(k) for k in range(4)] == coefficients


@pytest.mark.parametrize("power", [-1, 3])
def test_tseries_coefficient_out_of_range(power):
    with pytest.raises(ValueError):
        TSeries.one(1, 2).coefficient(power)


# -- operators --------------------------------------------------------------------


def test_kelement_minus_itself_is_zero():
    x = KElement(2, {(1, -1): 3, (0, 0): -2, (2, 0): 1})
    assert (x - x).is_zero
    assert x - x == KElement.zero(2)


def test_series_minus_itself_is_zero():
    x = GradedSeries(2, 3, {(1, 1): Fraction(3, 4), (0, 0): -2})
    assert (x - x).is_zero
    assert x - x == GradedSeries.zero(2, 3)


def test_integer_constants_on_both_sides():
    x = KElement.line((1, 0))
    assert x + 2 == 2 + x == KElement(2, {(1, 0): 1, (0, 0): 2})
    assert 2 - x == KElement(2, {(1, 0): -1, (0, 0): 2})
    assert x - 2 == -(2 - x)
    assert 3 * x == x * 3 == x + x + x
    s = GradedSeries.symbol(0, 2, 2)
    assert Fraction(1, 2) - s == -(s - Fraction(1, 2))
    assert 2 * s == s * 2 == s + s


@pytest.mark.parametrize(
    "left, right",
    [
        (KElement.line((1,)), KElement.line((1, 0))),
        (GradedSeries.one(1, 2), GradedSeries.one(2, 2)),
        (GradedSeries.one(1, 2), GradedSeries.one(1, 3)),
    ],
    ids=["kelement-symbols", "series-symbols", "series-degree"],
)
@pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
def test_mismatch_across_ambients(left, right, op):
    with pytest.raises(MismatchError):
        op(left, right)
    with pytest.raises(MismatchError):
        op(right, left)


@pytest.mark.parametrize(
    "left, right",
    [
        (KElement.unit(1), Fraction(1, 2)),
        (KElement.unit(1), True),
        (KElement.unit(1), 1.0),
        (GradedSeries.one(1, 2), 0.5),
        (GradedSeries.one(1, 2), True),
        (GradedSeries.one(1, 2), KElement.unit(1)),
        (GradedSeries.one(1, 2), "1"),
    ],
    ids=["kelement-fraction", "kelement-bool", "kelement-float", "series-float",
         "series-bool", "series-kelement", "series-str"],
)
@pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
def test_foreign_operands_raise_type_error(left, right, op):
    with pytest.raises(TypeError):
        op(left, right)
    with pytest.raises(TypeError):
        op(right, left)


@pytest.mark.parametrize(
    "left, right",
    [
        (TSeries.one(1, 2), TSeries.one(2, 2)),
        (TSeries.one(1, 2), TSeries.one(1, 3)),
    ],
    ids=["symbols", "t-max"],
)
def test_tseries_product_mismatch_across_ambients(left, right):
    with pytest.raises(MismatchError):
        left * right
    with pytest.raises(MismatchError):
        right * left


@pytest.mark.parametrize(
    "value, coefficients",
    [
        (GradedSeries.symbol(0, 1, 3), [1, 0.5]),
        (GradedSeries.symbol(0, 1, 3), [1, True]),
        (TSeries([KElement.zero(1), KElement.unit(1)]), [1, Fraction(1, 2)]),
        (KElement.line((1,)), [1, 1]),
    ],
    ids=["series-float", "series-bool", "tseries-fraction", "kelement-unbounded"],
)
def test_substitute_refuses_foreign_coefficients(value, coefficients):
    with pytest.raises(TypeError):
        value.substitute(coefficients)


def test_series_and_kelement_never_equal():
    series, element = GradedSeries.one(1, 2), KElement.unit(1)
    assert not series == element
    assert series != element
    assert not element == series
    assert GradedSeries.one(1, 2) != 1
    assert KElement.unit(1) != 1


@pytest.mark.parametrize(
    "other", [KElement.unit(1), GradedSeries.one(1, 0), 1], ids=["kelement", "series", "int"]
)
def test_tseries_never_equals_another_type(other):
    series = TSeries.one(1, 0)
    assert not series == other
    assert series != other
    assert not other == series


def test_tseries_is_immutable_and_unhashable():
    series = TSeries.one(1, 2)
    with pytest.raises(AttributeError):
        series.symbol_count = 3
    with pytest.raises(AttributeError):
        series.extra = 1
    with pytest.raises(TypeError):
        hash(series)


def test_both_are_immutable_and_unhashable():
    for value in (KElement.unit(1), GradedSeries.one(1, 2)):
        with pytest.raises(AttributeError):
            value.symbol_count = 3
        with pytest.raises(TypeError):
            hash(value)


# -- canonical form: one stored form per value, whatever built it -------------------


@st.composite
def series_pairs(draw):
    """Two GradedSeries over one ambient (0..3 symbols, degree 0..4), with
    rational coefficients over unlike denominators."""
    n = draw(st.integers(min_value=0, max_value=3))
    D = draw(st.integers(min_value=0, max_value=4))
    monomial = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    coefficient = st.fractions(min_value=-20, max_value=20, max_denominator=60)
    x, y = (draw(st.dictionaries(monomial, coefficient, max_size=6)) for _ in range(2))
    return GradedSeries(n, D, x), GradedSeries(n, D, y)


@settings(max_examples=100, deadline=None)
@given(series_pairs())
def test_series_operations_reach_the_canonical_form(pair):
    x, y = pair
    n, D = x.symbol_count, x.truncation_degree
    assert (x + y) - y == x
    assert (x * Fraction(2, 3)) * Fraction(3, 2) == x
    assert x * GradedSeries.one(n, D) == x
    assert GradedSeries(n, D, dict(x.terms())) == x
    assert x * y - x * y == GradedSeries.zero(n, D)


@settings(max_examples=100, deadline=None)
@given(series_pairs())
def test_series_coefficients_leave_as_fractions(pair):
    for value in (*pair, pair[0] * pair[1], pair[0] + pair[1]):
        assert all(type(c) is Fraction for _, c in value.terms())
        for key, c in value.terms():
            assert type(value.coefficient(key)) is Fraction and value.coefficient(key) == c
        assert type(value.coefficient((0,) * value.symbol_count)) is Fraction
        assert type(value.constant_term) is Fraction


# -- rendering --------------------------------------------------------------------


def test_kelement_rendering():
    x = KElement(3, {(0, 0, 0): -2, (1, 0, 0): 1, (0, -1, 0): -1, (1, -2, 3): 3, (-1, -1, 0): -1})
    text = "-[-a1-a2] - [-a2] - 2[0] + 3[a1-2a2+3a3] + [a1]"
    assert str(x) == text
    assert repr(x) == f"KElement(n=3, {text})"
    assert str(KElement.zero(2)) == "0"
    assert repr(KElement.zero(2)) == "KElement(n=2, 0)"
    assert str(KElement.unit(2)) == "[0]"
    assert str(-KElement.unit(1)) == "-[0]"
    assert str(KElement(2, {(-2, 1): -4})) == "-4[-2a1+a2]"


def test_series_rendering():
    s = GradedSeries(
        2, 3,
        {(0, 0): Fraction(-1, 2), (1, 0): 1, (0, 1): -1, (1, 1): Fraction(3, 4), (2, 0): -2, (0, 3): 1},
    )
    text = "-1/2 - a2 + a1 + 3/4*a1*a2 - 2*a1^2 + a2^3"
    assert str(s) == text
    assert repr(s) == f"GradedSeries(n=2, D=3, {text})"
    assert str(GradedSeries.zero(2, 1)) == "0"
    assert repr(GradedSeries.zero(2, 1)) == "GradedSeries(n=2, D=1, 0)"
    assert str(GradedSeries.one(1, 2)) == "1"
    assert str(-GradedSeries.one(1, 2)) == "-1"
    assert str(GradedSeries(1, 2, {(0,): -1, (2,): Fraction(-1, 3)})) == "-1 - 1/3*a1^2"


def test_tseries_rendering():
    s = TSeries(
        [
            KElement(2, {(0, 0): -2}),
            KElement(2, {(1, 0): 3, (0, 0): 1}),
            KElement(2, {(1, -1): -1, (2, 0): 1}),
        ]
    )
    text = "-2[0] + t[0] + 3t[a1] - t^2[a1-a2] + t^2[2a1]"
    assert str(s) == text
    assert repr(s) == f"TSeries(n=2, D=2, {text})"
    assert str(TSeries([KElement.zero(1)])) == "0"
    assert repr(TSeries([KElement.zero(1)])) == "TSeries(n=1, D=0, 0)"
    assert repr(TSeries.one(1, 2)) == "TSeries(n=1, D=2, [0])"
