"""Behaviour shared by the term maps KElement, GradedSeries and TSeries: the
checks at their public constructors, which operands the ring operations
take, ambient mismatches, and exact rendering."""

import operator
from fractions import Fraction

import pytest

from charcalc.series import GradedSeries, MismatchError, SymmetricSeries
from charcalc.lambda_ring import KElement, TSeries

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
