"""Identity verifiers, checked against independently expanded oracles."""

import inspect
import json
import random
import re
import textwrap
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from charcalc import lambda_ring, verify
from charcalc.cli import main
from charcalc.series import GradedSeries, _TermMap
from charcalc.lambda_ring import (
    KElement,
    _ch_terms,
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


# the five checks at rank n, each of which reads lambda_t through the packed kernel
CHECKS_AT_RANK = {
    "gala": lambda n: verify_gala(generic_lines(n)),
    "borel_serre": verify_borel_serre,
    "ch_gamma": verify_ch_gamma,
    "prop_chtd": verify_prop_chtd,
    "homomorphism": verify_hom_laws,
}


def doubled_t1(monkeypatch):
    """The lambda kernel with its t^1 terms doubled, under both names it is
    called by; the dense right side of gala is left as it is."""
    original = lambda_ring._lambda_terms

    def corrupted(x, t_max, base=0):
        B, terms = original(x, t_max, base)
        return B, {key: m * (2 if key % B == 1 else 1) for key, m in terms.items()}

    monkeypatch.setattr(lambda_ring, "_lambda_terms", corrupted)
    monkeypatch.setattr(verify, "_lambda_terms", corrupted)
    return lambda x, product: product


@pytest.mark.parametrize("n", range(2, 6))
def test_gala_sees_a_corrupted_lambda_t(n, monkeypatch):
    # every lambda_t, gamma_t and lambda fold goes through the packed kernel, so
    # doubling its t^1 terms must fail each check; gala's right side is a
    # product of (1 - [r]) and reads no lambda_t
    doubled_t1(monkeypatch)
    assert [name for name, check in CHECKS_AT_RANK.items() if check(n).ok] == []


@pytest.mark.parametrize(
    "terms",
    [{(1, 0): 2, (0, 1): -1}, {(1, 0): 1, (0, 1): -2}],
    ids=["rank-1", "rank-minus-1"],
)
def test_gala_refuses_a_virtual_element(terms):
    # -[a2] makes lambda_{-1} an infinite series; an x of negative rank always has
    # a negative multiplicity, so it is refused as not effective
    with pytest.raises(ValueError, match="effective"):
        verify_gala(KElement(2, terms))


def test_gala_passes_with_no_tuple_keyed_product_and_no_unpack(monkeypatch):
    # both sides stay packed; only a failing check unpacks roots into KElements
    def refuse(*args):
        raise AssertionError("a tuple-keyed product or an unpack")

    monkeypatch.setattr(_TermMap, "_product", refuse)
    monkeypatch.setattr(lambda_ring, "_roots", refuse)
    for x in [*map(generic_lines, range(1, 11)), *map(repeated_root_lines, range(2, 11))]:
        assert verify_gala(x).ok


# rank 0, zero symbols, trivial lines (the right side is 0), a root of
# multiplicity 3, and negative root entries
GALA_EDGES = {
    "rank-0": KElement.zero(2),
    "no-symbols-rank-0": KElement.zero(0),
    "no-symbols": KElement(0, {(): 2}),
    "trivial-and-a1": KElement(1, {(0,): 1, (1,): 1}),
    "trivial-twice": KElement(1, {(0,): 2}),
    "triple-root": KElement(2, {(1, 0): 3, (0, 1): 1}),
    "negative-entries": KElement(2, {(-1, 2): 1, (1, -1): 2}),
    "negative-entries-3": KElement(3, {(-2, 0, 1): 1, (0, -1, -1): 1, (0, 0, -1): 1}),
}


@pytest.mark.parametrize("x", GALA_EDGES.values(), ids=GALA_EDGES)
def test_gala_edge_inputs(x):
    assert verify_gala(x) == verify.CheckResult("gala", {"rank": x.rank}, True, "")


def gala_inputs():
    """Generic and repeated elements, which every mutant below fails, then
    random effective elements and the edge inputs."""
    rng = random.Random(37)
    randoms = [KElement.sum_of_lines(random_effective_lines(rng, rank, force_repeat=repeat))
               for rank in range(1, 6) for repeat in (False, True)]
    failing = [*map(generic_lines, range(1, 7)), *map(repeated_root_lines, range(2, 7))]
    return failing, [*randoms, *GALA_EDGES.values()]


def dropped_unit(monkeypatch):
    """gala's right side with the term of [0] dropped from every packed product,
    and the same drop after each line's factor of the dense product."""
    original = verify._packed_product

    def corrupted(*args):
        product = original(*args)
        product.pop(0, None)
        return product

    monkeypatch.setattr(verify, "_packed_product", corrupted)
    return lambda x, product: product - product.multiplicity((0,) * x.symbol_count)


@pytest.mark.parametrize("mutant", [doubled_t1, dropped_unit])
def test_gala_failure_details_are_those_of_the_unpacked_sides(mutant, monkeypatch):
    # the detail of a failing gala is _differences of the two KElements that the
    # packed sides stand for, built here by gamma_k and tuple-keyed products
    after_line = mutant(monkeypatch)
    failing, others = gala_inputs()
    for x in failing + others:
        d, one = x.rank, KElement.unit(x.symbol_count)
        lhs = (-1) ** d * gamma_k(x - d * one, d)
        rhs = one
        for root, m in x._nums.items():
            for _ in range(m):
                rhs = rhs * (one - KElement.line(root))
            rhs = after_line(x, rhs)
        detail = _differences(lhs, rhs)
        assert verify_gala(x) == verify.CheckResult("gala", {"rank": d}, not detail, detail)
        assert detail or x not in failing


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
    # a negative count is refused by the package's one size check, in its words
    with pytest.raises(ValueError, match="cases must be non-negative"):
        verify_hom_laws(2, cases=-1)


@pytest.mark.parametrize("n", (0, -1))
def test_hom_laws_refuses_no_lines(n):
    # the line laws need a symbol a_n to put the line on, as generic_lines does
    with pytest.raises(ValueError, match="need at least one line"):
        verify_hom_laws(n)


@pytest.mark.parametrize("cases", (True, False, 2.0, "3", None))
def test_hom_laws_refuses_a_case_count_that_is_not_an_int(cases):
    with pytest.raises(TypeError, match="cases must be an int"):
        verify_hom_laws(2, cases)


def first_case(n, seed=0):
    """The x and y of case 0 of ``verify_hom_laws(n, seed=seed)``."""
    rng = random.Random(seed)
    return verify.random_k_element(rng, n), verify.random_k_element(rng, n)


def hom_laws_ch_calls(monkeypatch, seed):
    """The (element, degree) calls of the ch kernel in
    ``verify_hom_laws(3, cases=1, seed=seed)``."""
    calls = []
    original = lambda_ring._ch_terms

    def counted(x, truncation_degree):
        calls.append((x, truncation_degree))
        return original(x, truncation_degree)

    monkeypatch.setattr(lambda_ring, "_ch_terms", counted)
    monkeypatch.setattr(verify, "_ch_terms", counted)
    assert verify.verify_hom_laws(3, cases=1, seed=seed).ok
    return calls


def test_hom_laws_builds_one_ch_per_element(monkeypatch):
    # one ch per element of the case: x, y, x + y and x * y at D = 3; then one
    # per line of the line laws, [a3] and -[a3], each read by both of its classes
    x, y = first_case(3)
    line = KElement.line((0, 0, 1))
    assert hom_laws_ch_calls(monkeypatch, 0) == [
        (x, 3), (y, 3), (x + y, 3), (x * y, 3), (line, 3), (-line, 3)]


def test_hom_laws_run_three_lambda_kernels_per_case(monkeypatch):
    calls = []
    original = lambda_ring._lambda_terms

    def counted(x, t_max, base=0):
        calls.append(x)
        return original(x, t_max, base)

    monkeypatch.setattr(lambda_ring, "_lambda_terms", counted)
    monkeypatch.setattr(verify, "_lambda_terms", counted)
    assert verify.verify_hom_laws(3, cases=1).ok
    # the lambda law alone reads lambda_t: no law folds it
    x, y = first_case(3)
    assert calls == [x, y, x + y]


def hom_laws_draws(monkeypatch, n, seed):
    """The draws of ``verify_hom_laws(n, 20, seed)``, one [x, y] per case, as
    strings; a randint, randrange or choice outside ``random_k_element`` is
    recorded in its case too, once, though randint calls randrange."""
    draws, drawing, original = [], [], verify.random_k_element

    class Recorded(random.Random):
        def _recorded(self, draw, *args):
            outside = not drawing
            drawing.append(True)
            try:
                value = draw(*args)
            finally:
                drawing.pop()
            if outside:
                draws[-1].append(value)
            return value

        def randint(self, a, b):
            return self._recorded(super().randint, a, b)

        def randrange(self, *args):
            return self._recorded(super().randrange, *args)

        def choice(self, seq):
            return self._recorded(super().choice, seq)

    def element(rng, n):
        drawing.append(True)
        x = original(rng, n)
        drawing.pop()
        if not draws or len(draws[-1]) == 2:
            draws.append([])
        draws[-1].append(str(x))
        return x

    monkeypatch.setattr(verify, "random", SimpleNamespace(Random=Recorded))
    monkeypatch.setattr(verify, "random_k_element", element)
    assert verify.verify_hom_laws(n, 20, seed).ok
    return draws


@pytest.mark.parametrize("draw", ("rng.randint(0, 1)", "rng.randrange(2)", "rng.choice([0, 1])"))
def test_hom_laws_draws_record_an_extra_draw(monkeypatch, draw):
    # a law that draws is recorded after the x and y of its case, once
    extra = rewritten(verify.verify_hom_laws, "x_plus_y = x + y", f"x_plus_y = x + y; {draw}")
    monkeypatch.setattr(verify, "verify_hom_laws", extra)
    first = json.loads(HOM_LAWS_DRAWS.read_text())["n=2 seed=0"][0]
    case = hom_laws_draws(monkeypatch, 2, 0)[0]
    assert case[:2] == first
    assert case[2] in (0, 1)
    assert isinstance(case[3], str)


# the draws of verify_hom_laws, one [x, y] per case; a change to a law must
# leave every draw, and its order, as it is
HOM_LAWS_DRAWS = Path(__file__).parent / "hom_laws_draws.json"


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("seed", (0, 1))
def test_hom_laws_keep_their_draws(monkeypatch, n, seed):
    pinned = json.loads(HOM_LAWS_DRAWS.read_text())[f"n={n} seed={seed}"]
    assert hom_laws_draws(monkeypatch, n, seed) == pinned


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("seed", (0, 1))
def test_hom_laws_draws_pack_at_the_lambda_laws_base(n, seed):
    # the lambda laws pack y and x + y at the base of x; every pinned draw has
    # 2 t_max + 1 = 7 as its own base, so a wider draw fails here
    pinned = json.loads(HOM_LAWS_DRAWS.read_text())[f"n={n} seed={seed}"]
    rng = random.Random(seed)
    for case in pinned:
        x, y = verify.random_k_element(rng, n), verify.random_k_element(rng, n)
        assert [str(x), str(y)] == case
        assert [lambda_ring._lambda_terms(e, 3)[0] for e in (x, y, x + y)] == [7] * 3


# each law's function, by the name verify calls it under, fed x * x for x, with
# the start of the detail it fails with; the lambda_t law passes the packed
# kernel a shared base, which the wrapper forwards.  The case laws stop at case
# 0; the exp kernel is read by the line laws alone, after the cases, on [a2],
# and is fed twice its ch, that of 2[a2]
SQUARED = {
    "lambda_t": ("_lambda_terms", "case 0: lambda_t not multiplicative",
                 lambda f: lambda x, t, *base: f(x * x, t, *base)),
    "ch": ("_ch_terms", "case 0: ch not additive", lambda f: lambda x, D: f(x * x, D)),
    "chern_k": ("_exp_terms", "line law fails: Td([a2]) != l/(1 - e^-l) for l = a2",
                lambda f: lambda X, d, *rest: f({key: 2 * c for key, c in X.items()}, d, *rest)),
}


@pytest.mark.parametrize("name", sorted(SQUARED))
def test_hom_laws_report_the_first_failing_case(monkeypatch, name):
    target, start, squared = SQUARED[name]
    monkeypatch.setattr(verify, target, squared(getattr(verify, target)))
    result = verify.verify_hom_laws(2, cases=5)
    assert not result.ok
    assert result.detail.startswith(start)
    assert "case 1" not in result.detail  # the sweep stops at its first failing case


def scaled(is_class):
    """The weights of :func:`~charcalc.lambda_ring._line_weights`, with the degree-k
    one times k + 1 for the line values of one class only, those ``is_class`` takes."""
    weights_of = lambda_ring._line_weights

    def mutant(line, D):
        numerators, w = weights_of(line, D)
        if is_class(line, D):
            numerators = tuple((k + 1) * c for k, c in enumerate(numerators))
        return numerators, w
    return mutant


def rewritten(function, old, new):
    """``function`` compiled from its source with ``new`` in place of ``old``,
    against its module's globals; a cached function gets a cache of its own."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    namespace = {}
    exec(source.replace(old, new), inspect.unwrap(function).__globals__, namespace)
    return namespace[function.__name__]


# faults in the classes that the symmetric checks miss at their default
# degrees: each is bound under every module name it is read by
CLASS_MUTANTS = {
    "todd-weights-times-k+1": lambda: (
        "_line_weights", scaled(lambda line, D: tuple(line) == lambda_ring.todd_line(D))),
    "chern-weights-times-k+1": lambda: (
        "_line_weights", scaled(lambda line, D: tuple(line) == (1, 1))),
    "bernoulli-comb-m+2": lambda: (
        "_bernoulli", rewritten(lambda_ring._bernoulli, "comb(m + 1, k)", "comb(m + 2, k)")),
    "exp-output-from-degree-D-1": lambda: (
        "_exp_terms",
        rewritten(lambda_ring._exp_terms, "range(B - 1, -1, -1)", "range(B - 2, -1, -1)")),
    # every class is zero numerators over the denominator 0, which a cross-multiplying
    # comparison would cancel to nothing
    "exp-weight-0": lambda: (
        "_exp_terms", rewritten(lambda_ring._exp_terms, "weight = 1  #", "weight = 0  #")),
}


@pytest.fixture
def class_caches():
    """The cached Bernoulli numbers, Todd line and line weights, cleared before
    and after the test, so that no value of a mutant outlives it."""
    cached = [lambda_ring._bernoulli, lambda_ring.todd_line, lambda_ring._line_weights]
    for f in cached:
        f.cache_clear()
    yield
    for f in cached:
        f.cache_clear()


@pytest.mark.parametrize("name", CLASS_MUTANTS)
def test_homomorphism_sees_a_wrong_class(name, monkeypatch, capsys, class_caches):
    attribute, mutant = CLASS_MUTANTS[name]()
    for module in (lambda_ring, verify):
        if hasattr(module, attribute):
            monkeypatch.setattr(module, attribute, mutant)
    assert main(["verify", "--checks", "homomorphism", "--rank-max", "4"]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL homomorphism") == 4
    assert "line law fails" in out


# faults of the one lambda fold that gamma_t, gamma_k and the alternating lambda
# sum read: the first moves each weight one t-power down, the second weights
# gamma^k as if s were t^3 in lambda_s, not t/(1 - t), and the last gives
# gamma^k a weight on lambda^(k + 1), past the t_max = k of its fold, which the
# trivial line's (1 + t)^m carries down onto the lambda^j that are read
GAMMA_MUTANTS = {
    "moved-down": ("_fold_table", "row[i:]", "row[i + 1:]"),
    "s-to-t-cubed": ("_gamma_weights", "comb(k - 1, j - 1)", "comb(k - 1, j + 1)"),
    "past-t_max": ("_gamma_weights", "range(1, k + 1)]", "range(1, k + 1)] + [1]"),
}


@pytest.mark.parametrize("name", GAMMA_MUTANTS)
def test_verify_sees_a_wrong_lambda_fold(name, monkeypatch, capsys):
    target, old, new = GAMMA_MUTANTS[name]
    mutant = rewritten(getattr(lambda_ring, target), old, new)
    for module in (lambda_ring, verify):
        if hasattr(module, target):
            monkeypatch.setattr(module, target, mutant)
    assert main(["verify", "--rank-max", "4"]) == 1
    failed = set(re.findall(r"^FAIL (\w+)", capsys.readouterr().out, re.MULTILINE))
    assert failed and failed <= {"gala", "borel_serre", "ch_gamma", "prop_chtd"}


def test_gala_compares_packed_keys_not_their_roots(monkeypatch):
    # a fold that leaves each sum at digit 0 twice its t-power, off the root keys
    # r B, unpacks to the right roots on generic lines, where each root has one
    # t-power; gala fails it on the packed keys
    mutant = rewritten(lambda_ring._fold_table, "(k - i, w)", "(k + i, w)")
    monkeypatch.setattr(lambda_ring, "_fold_table", mutant)
    result = verify.verify_gala(generic_lines(3))
    assert not result.ok
    assert result.detail == "the packed sides differ off their root keys"


def test_gala_sees_a_lambda_that_doubles_every_root(monkeypatch, capsys):
    # lambda_t of x with every root doubled is another ring map, so the lambda_t
    # law of homomorphism holds on it; gala's right side reads no lambda_t and
    # sees it
    original = lambda_ring._lambda_terms

    def doubled(x, t_max, base=0):
        return original(x._like({tuple(2 * e for e in r): m for r, m in x._nums.items()}),
                        t_max, base)

    monkeypatch.setattr(lambda_ring, "_lambda_terms", doubled)
    monkeypatch.setattr(verify, "_lambda_terms", doubled)
    assert main(["verify", "--checks", "gala", "--rank-max", "4"]) == 1
    assert "PASS gala" not in capsys.readouterr().out


def test_hom_laws_report_a_ch_that_is_additive_but_not_multiplicative(monkeypatch):
    # adding the degree-2 part keeps ch additive and breaks its products
    def doubled(x, D):
        terms, den = _ch_terms(x, D)
        return {key: c * (2 if key % (D + 1) == 2 else 1) for key, c in terms.items()}, den

    monkeypatch.setattr(verify, "_ch_terms", doubled)
    result = verify.verify_hom_laws(2)
    assert not result.ok
    assert "ch not multiplicative" in result.detail
    assert "ch not additive" not in result.detail


def test_repeated_root_lines_refuses_rank_below_two():
    with pytest.raises(ValueError, match="a repeated root needs rank at least 2"):
        repeated_root_lines(1)


@pytest.mark.parametrize("rank", range(2, 9))
def test_repeated_root_lines_are_the_unit_roots_and_the_first_again(rank):
    units = [tuple(int(j == i) for j in range(rank - 1)) for i in range(rank - 1)]
    x, want = repeated_root_lines(rank), KElement.sum_of_lines(units + [units[0]])
    assert x == want
    assert list(x._nums) == list(want._nums)  # the same key order


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


def test_differences_sees_a_term_only_the_right_side_has():
    assert _differences(GradedSeries.zero(1, 2), GradedSeries.one(1, 2)) == (
        "1 terms differ, lowest degree 0; 1: 0 vs 1"
    )
    assert _differences(KElement.zero(2), KElement.line((1, 0))) == "1 terms differ; [a1]: 0 vs 1"


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
    # total Chern's line coefficients in place of Todd's break both Todd
    # identities; the details count S_n-orbits, not monomials
    monkeypatch.setattr(verify, "todd_line", lambda degree: [1, 1])
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
