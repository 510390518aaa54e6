"""lambda_t, gamma_t, gamma_k and the alternating lambda sum against
:mod:`oracles`, which multiplies the line factors (1 + t[r])^m as plain
tuple-keyed maps; the packed products of the lambda kernel and of the lambda
fold against ``TSeries`` products; and the verifiers, which must reach lambda_t
only through the packed kernel, never through a ``TSeries`` product, and whose
``homomorphism`` laws build no ``GradedSeries``."""

import pytest

import charcalc.lambda_ring as lambda_ring
from charcalc.lambda_ring import (
    KElement,
    TSeries,
    _gamma_weights,
    _lambda_fold,
    _lambda_terms,
    _tseries,
    alternating_lambda_sum,
    gamma_k,
    gamma_t,
    lambda_t,
)
from charcalc.series import GradedSeries, _packed_product
from charcalc.verify import (
    generic_lines,
    verify_borel_serre,
    verify_ch_gamma,
    verify_gala,
    verify_hom_laws,
    verify_prop_chtd,
)

from oracles import gamma_series, lambda_series, t_coefficient

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings, example = hypothesis.given, hypothesis.settings, hypothesis.example

# small entries, which collide in sums, and entries up to 10^30 in size
entries = st.one_of(st.integers(min_value=-3, max_value=3),
                    st.integers(min_value=-(10**30), max_value=10**30))


@st.composite
def elements(draw):
    """Up to four lines over 0..6 symbols with multiplicities -3..3, the
    trivial line among them, and a t_max in 0..8."""
    n = draw(st.integers(min_value=0, max_value=6))
    root = st.one_of(st.just((0,) * n), st.tuples(*[entries] * n))
    lines = draw(st.dictionaries(root, st.integers(min_value=-3, max_value=3), max_size=4))
    return KElement(n, lines), draw(st.integers(min_value=0, max_value=8))


def oracle_tseries(series: dict, n: int, t_max: int) -> TSeries:
    """The oracle's {(t-power, *root): int} map through the public constructor."""
    return TSeries([KElement(n, t_coefficient(series, k)) for k in range(t_max + 1)])


# the largest entry at the top t-power; entries of 10^30 beside the trivial line, at a
# negative rank; the trivial line alone; no symbols; zero at t_max 0; one symbol, whose
# packed roots have an empty low half; seven symbols, split 3 + 4 into halves
@example((KElement(1, {(1,): 8}), 8))
@example((KElement(2, {(-(10**30), 10**30): -3, (0, 0): 2}), 8))
@example((KElement(2, {(0, 0): -3}), 5))
@example((KElement(0, {(): 3}), 4))
@example((KElement(3, {}), 0))
@example((KElement(1, {(-2,): 3, (5,): -1, (0,): 2}), 5))
@example((KElement(7, {(1, -1, 0, 2, 0, -3, 1): 2, (0, 0, 0, 1, -1, 1, 0): -1}), 4))
@settings(max_examples=150, deadline=None)
@given(elements())
def test_lambda_operations_match_the_line_factor_oracle(case):
    x, t_max = case
    n, lines = x.symbol_count, dict(x.terms())
    lam, gamma = lambda_series(lines, n, t_max), gamma_series(lines, n, t_max)
    assert dict(lambda_t(x, t_max).terms()) == lam
    assert dict(gamma_t(x, t_max).terms()) == gamma
    # == also compares the ambient: symbol_count, t_max and the denominator
    assert lambda_t(x, t_max) == oracle_tseries(lam, n, t_max)
    assert gamma_t(x, t_max) == oracle_tseries(gamma, n, t_max)
    assert dict(gamma_k(x, t_max).terms()) == t_coefficient(gamma, t_max)
    if x.rank < 0:
        with pytest.raises(ValueError):
            alternating_lambda_sum(x)
    else:
        full = lambda_series(lines, n, x.rank)
        want: dict = {}
        for j in range(x.rank + 1):
            for root, c in t_coefficient(full, j).items():
                want[root] = want.get(root, 0) + (-1) ** j * c
        assert dict(alternating_lambda_sum(x).terms()) == {r: c for r, c in want.items() if c}


def test_no_check_multiplies_a_tseries(monkeypatch):
    def refuse(self, other):
        raise AssertionError("a TSeries product")

    monkeypatch.setattr(TSeries, "__mul__", refuse)
    n = 6
    assert verify_gala(generic_lines(n)).ok
    assert verify_borel_serre(n).ok
    assert verify_ch_gamma(n).ok
    assert verify_prop_chtd(n).ok
    x = generic_lines(n)
    assert dict(lambda_t(x, n).terms()) == lambda_series(dict(x.terms()), n, n)


def test_homomorphism_builds_no_tseries(monkeypatch):
    def refuse(*args):
        raise AssertionError("a TSeries built")

    monkeypatch.setattr(TSeries, "__mul__", refuse)
    monkeypatch.setattr(lambda_ring, "_tseries", refuse)
    for n in range(1, 7):
        assert verify_hom_laws(n).ok


def test_homomorphism_builds_no_graded_series(monkeypatch):
    # the ch laws compare numerator maps of the ch kernel, the line laws those of
    # the class kernel
    def refuse(*args):
        raise AssertionError("a GradedSeries built")

    for name in ("__init__", "_trusted", "__mul__"):  # _like builds through _trusted
        monkeypatch.setattr(GradedSeries, name, refuse)
    for n in range(1, 7):
        assert verify_hom_laws(n).ok


@st.composite
def pairs(draw):
    """x and y over 1..4 symbols, each up to four lines with root entries in -3..3
    and multiplicities -3..3, the trivial line among them, and a t_max in 0..4."""
    n = draw(st.integers(min_value=1, max_value=4))
    root = st.one_of(st.just((0,) * n), st.tuples(*[st.integers(min_value=-3, max_value=3)] * n))
    lines = st.dictionaries(root, st.integers(min_value=-3, max_value=3), max_size=4)
    t_max = st.integers(min_value=0, max_value=4)
    return KElement(n, draw(lines)), KElement(n, draw(lines)), draw(t_max)


# y's own base above x's; x + y cancels y's largest entry; the trivial line alone beside
# a negative multiplicity; t_max 0; the trivial line beside a line of larger entries
@example((KElement(2, {(1, 0): 2}), KElement(2, {(0, 3): -1, (1, -1): 1}), 3))
@example((KElement(1, {(3,): 1, (1,): -2}), KElement(1, {(3,): -1}), 4))
@example((KElement(2, {(0, 0): -2}), KElement(2, {(-2, 1): -3}), 2))
@example((KElement(1, {(2,): 1}), KElement(1, {(0,): 3}), 0))
@example((KElement(2, {(0, 0): 2, (3, -1): -1}), KElement(2, {(1, 1): 1}), 4))
@settings(max_examples=150, deadline=None)
@given(pairs())
def test_packed_laws_match_the_tseries_laws(case):
    # x, y and x + y packed at the largest of their own bases multiply, and unpack,
    # as their TSeries do; gamma_t, the lambda fold of z and of -z by the rows of
    # gamma^0..gamma^t_max, does too, at the fold's base, which z and -z share and
    # which is no larger than that shared base.  The lambda_t law of homomorphism
    # compares such packed maps
    x, y, t_max = case
    B = max(_lambda_terms(z, t_max)[0] for z in (x, y, x + y))
    (Bx, px), (By, py), (Bs, psum) = (_lambda_terms(z, t_max, B) for z in (x, y, x + y))
    assert Bx == By == Bs == B
    product = _packed_product(px, py, B, t_max)
    assert _tseries(x, t_max, B, product) == lambda_t(x, t_max) * lambda_t(y, t_max)
    assert _tseries(x, t_max, B, psum) == lambda_t(x + y, t_max)
    rows = tuple(_gamma_weights(k) for k in range(t_max + 1))
    for z in (x, y, x + y):
        (Bz, gz), (Bn, gn) = _lambda_fold(z, t_max, rows), _lambda_fold(-z, t_max, rows)
        assert Bz == Bn <= B
        assert _tseries(z, t_max, Bz, gz) == gamma_t(z, t_max)
        product = _packed_product(gz, gn, Bz, t_max)
        assert _tseries(z, t_max, Bz, product) == gamma_t(z, t_max) * gamma_t(-z, t_max)
        # gamma_t is a map from sums to products, so gamma_t(z) gamma_t(-z) = 1
        assert _tseries(z, t_max, Bz, product) == TSeries.one(z.symbol_count, t_max)


def test_gamma_t_runs_one_lambda_kernel(monkeypatch):
    # every row of gamma_t is read off one lambda_t, in one fold
    calls = []
    original = lambda_ring._lambda_terms

    def counted(x, t_max, base=0):
        calls.append((x, t_max))
        return original(x, t_max, base)

    monkeypatch.setattr(lambda_ring, "_lambda_terms", counted)
    x = KElement(2, {(1, 0): 2, (1, -1): -1, (0, 0): -3})
    assert gamma_t(x, 5) == oracle_tseries(gamma_series(dict(x.terms()), 2, 5), 2, 5)
    # the trivial line is a scalar in t, not a line factor
    assert calls == [(KElement(2, {(1, 0): 2, (1, -1): -1}), 5)]


@st.composite
def virtual_elements(draw):
    """One to four lines over 1..4 symbols, root entries -2..2, one of them with a
    negative multiplicity, beside the trivial line with a nonzero multiplicity."""
    n = draw(st.integers(min_value=1, max_value=4))
    root = st.tuples(*[st.integers(min_value=-2, max_value=2)] * n)
    lines = draw(st.dictionaries(root, st.integers(min_value=-3, max_value=3).filter(bool),
                                 min_size=1, max_size=4))
    negative = draw(st.sampled_from(sorted(lines)))
    lines[negative] = -abs(lines[negative])
    lines[(0,) * n] = draw(st.integers(min_value=-4, max_value=4).filter(bool))
    return KElement(n, lines)


@example(KElement(1, {(1,): -1, (0,): 1}))
@example(KElement(2, {(1, -1): -2, (2, 0): 3, (0, 0): -4}))
@settings(max_examples=60, deadline=None)
@given(virtual_elements())
def test_folds_match_the_oracle_beside_a_trivial_line(x):
    # gamma_t, gamma_k and the alternating lambda sum are one fold each, with the
    # trivial line folded into the weights; the oracle multiplies its line factor
    n, lines = x.symbol_count, dict(x.terms())
    for t_max in range(7):
        gamma = gamma_series(lines, n, t_max)
        assert gamma_t(x, t_max) == oracle_tseries(gamma, n, t_max)
        for k in range(t_max + 1):
            assert dict(gamma_k(x, k).terms()) == t_coefficient(gamma, k)
    if x.rank < 0:
        with pytest.raises(ValueError):
            alternating_lambda_sum(x)
    else:
        full = lambda_series(lines, n, x.rank)
        want: dict = {}
        for j in range(x.rank + 1):
            for root, c in t_coefficient(full, j).items():
                want[root] = want.get(root, 0) + (-1) ** j * c
        assert dict(alternating_lambda_sum(x).terms()) == {r: c for r, c in want.items() if c}
