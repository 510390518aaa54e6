"""Strata inclusion-exclusion and the conductor pipeline."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from charcalc.conductor import (
    PRIME_LIMIT,
    ArithmeticModel,
    Component,
    ConsistencyError,
    FiberDerivation,
    FiberModel,
    ModelValidationError,
    Stratum,
    TamenessError,
    bloch_degree,
    closed_strata_from_open,
    conductor,
    fiber_euler,
    generic_euler_check,
    normalize_fiber,
    open_strata_from_closed,
    tame_check,
    _is_prime,
    validate_fiber,
)

from oracles import open_chi_via_unions, random_strata_lattice


def fiber_from_chi(prime, chi_closed, multiplicities=None, open_side=False):
    """Build a FiberModel from a {frozenset: chi} map."""
    ids = sorted({cid for J in chi_closed for cid in J})
    multiplicities = multiplicities or {}
    components = tuple(Component(cid, multiplicities.get(cid, 1)) for cid in ids)
    if open_side:
        strata = tuple(Stratum(J, chi_open=chi) for J, chi in chi_closed.items())
    else:
        strata = tuple(Stratum(J, chi_closed=chi) for J, chi in chi_closed.items())
    return FiberModel(prime, components, strata)


def cycle_fiber(n, prime):
    """The n-gon configuration: n lines, consecutive pairs meeting once
    (twice for n = 2)."""
    assert n >= 2
    chi = {frozenset({f"C{i + 1}"}): 2 for i in range(n)}
    if n == 2:
        chi[frozenset({"C1", "C2"})] = 2
    else:
        for i in range(n):
            j = (i + 1) % n
            chi[frozenset({f"C{i + 1}", f"C{j + 1}"})] = 1
    return fiber_from_chi(prime, chi)


def open_chi(fiber):
    return {s.components: s.chi_open for s in fiber.strata}


def closed_chi(fiber):
    return {s.components: s.chi_closed for s in fiber.strata}


# -- inclusion-exclusion -------------------------------------------------------


def test_single_component_open_equals_closed():
    fiber = fiber_from_chi(5, {frozenset({"C1"}): 7})
    result = open_strata_from_closed(fiber)
    assert open_chi(result) == {frozenset({"C1"}): 7}


def test_i2_cycle_open_strata():
    fiber = cycle_fiber(2, 7)
    result = open_strata_from_closed(fiber)
    assert open_chi(result) == {
        frozenset({"C1"}): 0,
        frozenset({"C2"}): 0,
        frozenset({"C1", "C2"}): 2,
    }


def test_chain_of_two_lines():
    chi = {
        frozenset({"C1"}): 2,
        frozenset({"C2"}): 2,
        frozenset({"C1", "C2"}): 1,
    }
    result = open_strata_from_closed(fiber_from_chi(3, chi))
    assert open_chi(result)[frozenset({"C1"})] == 1
    assert open_chi(result)[frozenset({"C2"})] == 1


def test_open_strata_idempotent():
    fiber = cycle_fiber(3, 5)
    once = open_strata_from_closed(fiber)
    twice = open_strata_from_closed(once)
    assert once == twice


def test_open_strata_matches_union_oracle():
    rng = random.Random(30)
    for _ in range(40):
        _, chi = random_strata_lattice(rng)
        fiber = fiber_from_chi(5, chi)
        result = open_strata_from_closed(fiber)
        for J in chi:
            assert open_chi(result)[J] == open_chi_via_unions(chi, J)


def test_complete_depth_3_lattice_matches_union_oracle():
    # every stratum of 1 to 3 of 12 components: 298 strata, each component
    # on 66 deeper ones
    rng = random.Random(32)
    ids = [f"C{i + 1}" for i in range(12)]
    chi = {
        frozenset(J): rng.randint(-20, 20)
        for size in (1, 2, 3)
        for J in itertools.combinations(ids, size)
    }
    result = open_chi(open_strata_from_closed(fiber_from_chi(5, chi)))
    assert result == {J: open_chi_via_unions(chi, J) for J in chi}


def test_round_trip_identity():
    rng = random.Random(31)
    for _ in range(40):
        _, chi = random_strata_lattice(rng)
        fiber = fiber_from_chi(7, chi)
        there = open_strata_from_closed(fiber)
        back = closed_strata_from_open(there)
        assert closed_chi(back) == chi
        # and in the other direction, starting from open data
        open_only = fiber_from_chi(7, open_chi(there), open_side=True)
        again = closed_strata_from_open(open_only)
        assert closed_chi(again) == chi


def test_inconsistent_declared_open_rejected():
    chi = {frozenset({"C1"}): 2, frozenset({"C2"}): 2, frozenset({"C1", "C2"}): 1}
    fiber = fiber_from_chi(3, chi)
    strata = tuple(
        Stratum(s.components, chi_closed=s.chi_closed, chi_open=99)
        if s.components == frozenset({"C1"})
        else s
        for s in fiber.strata
    )
    with pytest.raises(ModelValidationError):
        open_strata_from_closed(FiberModel(3, fiber.components, strata))


def test_mixed_chi_data_rejected():
    strata = (
        Stratum(frozenset({"C1"}), chi_closed=2),
        Stratum(frozenset({"C2"}), chi_open=1),
    )
    fiber = FiberModel(3, (Component("C1", 1), Component("C2", 1)), strata)
    with pytest.raises(ModelValidationError):
        normalize_fiber(fiber)


# -- fiber validation ------------------------------------------------------------


def test_undeclared_component_rejected():
    strata = (
        Stratum(frozenset({"C1"}), chi_closed=2),
        Stratum(frozenset({"C1", "ghost"}), chi_closed=1),
    )
    fiber = FiberModel(3, (Component("C1", 1),), strata)
    with pytest.raises(ModelValidationError):
        validate_fiber(fiber)


def test_missing_singleton_rejected():
    strata = (Stratum(frozenset({"C1"}), chi_closed=2),)
    fiber = FiberModel(3, (Component("C1", 1), Component("C2", 1)), strata)
    with pytest.raises(ModelValidationError):
        validate_fiber(fiber)


def test_duplicate_stratum_rejected():
    strata = (
        Stratum(frozenset({"C1"}), chi_closed=2),
        Stratum(frozenset({"C1"}), chi_closed=3),
    )
    fiber = FiberModel(3, (Component("C1", 1),), strata)
    with pytest.raises(ModelValidationError):
        validate_fiber(fiber)


def test_subset_closure_required():
    strata = (
        Stratum(frozenset({"C1"}), chi_closed=2),
        Stratum(frozenset({"C2"}), chi_closed=2),
        Stratum(frozenset({"C3"}), chi_closed=2),
        Stratum(frozenset({"C1", "C2", "C3"}), chi_closed=1),
    )
    comps = tuple(Component(f"C{i}", 1) for i in (1, 2, 3))
    with pytest.raises(ModelValidationError):
        validate_fiber(FiberModel(3, comps, strata))


def test_normalize_refuses_stratum_without_its_subsets_quickly():
    # one 20-component stratum over 20 singletons lacks most of its
    # 2^20 - 1 subsets, so it is refused before they are enumerated
    ids = [f"C{i}" for i in range(20)]
    chi = {frozenset({cid}): 2 for cid in ids}
    chi[frozenset(ids)] = 1
    start = time.process_time()
    with pytest.raises(ModelValidationError, match="lacks some of its subsets"):
        normalize_fiber(fiber_from_chi(5, chi))
    assert time.process_time() - start < 0.5


def test_depth_bound_from_relative_dimension():
    fiber = cycle_fiber(2, 5)
    with pytest.raises(ModelValidationError):
        validate_fiber(fiber, relative_dimension=0)


def test_composite_prime_rejected():
    fiber = fiber_from_chi(6, {frozenset({"C1"}): 2})
    with pytest.raises(ModelValidationError):
        validate_fiber(fiber)


def test_large_prime_accepted_quickly():
    fiber = fiber_from_chi(10**18 + 9, {frozenset({"C1"}): 2})
    start = time.perf_counter()
    validate_fiber(fiber)
    assert time.perf_counter() - start < 1.0


# Carmichael 561, then strong pseudoprimes to the first 1, 4 and 9 prime
# bases; the last one fools every prime base up to 37.
@pytest.mark.parametrize(
    "n", [561, 2047, 3215031751, 3825123056546413051, 318665857834031151167461]
)
def test_strong_pseudoprimes_rejected(n):
    assert not _is_prime(n)
    with pytest.raises(ModelValidationError, match="not a prime"):
        validate_fiber(fiber_from_chi(n, {frozenset({"C1"}): 2}))


def test_prime_limit_refused():
    for p in (PRIME_LIMIT, PRIME_LIMIT + 10**30):
        with pytest.raises(ModelValidationError, match="primality test"):
            validate_fiber(fiber_from_chi(p, {frozenset({"C1"}): 2}))


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(10**5) if _is_prime(n)] == list(sympy.primerange(10**5))
    rng = random.Random(34)
    for _ in range(300):
        n = rng.randrange(2**39, 2**80)
        for m in (n, sympy.nextprime(n)):
            assert _is_prime(m) == sympy.isprime(m), m


def test_component_chi_open_cross_checked():
    strata = (Stratum(frozenset({"C1"}), chi_closed=2),)
    fiber = FiberModel(3, (Component("C1", 1, chi_open=5),), strata)
    with pytest.raises(ModelValidationError):
        open_strata_from_closed(fiber)


# -- fiber Euler characteristic ----------------------------------------------------


def test_fiber_euler_single_component():
    fiber = normalize_fiber(fiber_from_chi(5, {frozenset({"C1"}): -2}))
    assert fiber_euler(fiber) == -2


def test_fiber_euler_cycles():
    assert fiber_euler(normalize_fiber(cycle_fiber(3, 5))) == 3
    assert fiber_euler(normalize_fiber(cycle_fiber(2, 5))) == 2


def test_fiber_euler_requires_normalization():
    with pytest.raises(ModelValidationError):
        fiber_euler(cycle_fiber(3, 5))


# -- tameness -----------------------------------------------------------------------


def test_tame_check_passes():
    fiber = fiber_from_chi(3, {frozenset({"C1"}): 2, frozenset({"C2"}): 2,
                               frozenset({"C1", "C2"}): 1},
                           multiplicities={"C2": 2})
    report = tame_check(fiber)
    assert report.ok and report.offenders == ()


def test_tame_check_flags_offender():
    fiber = fiber_from_chi(2, {frozenset({"C1"}): 2, frozenset({"C2"}): 2,
                               frozenset({"C1", "C2"}): 1},
                           multiplicities={"C2": 2})
    report = tame_check(fiber)
    assert not report.ok
    assert report.offenders == ("C2",)


def test_tame_check_multiplicity_equal_to_p():
    fiber = fiber_from_chi(5, {frozenset({"C1"}): 2}, multiplicities={"C1": 5})
    assert not tame_check(fiber).ok


# -- generic Euler characteristic check ----------------------------------------------


def test_generic_euler_holds_for_cycles():
    model = ArithmeticModel(1, (cycle_fiber(3, 5),), generic_euler=0)
    report = generic_euler_check(model)
    assert report.ok
    assert report.entries[0].weighted_sum == 0


def test_generic_euler_smooth_genus_g():
    for genus in (0, 1, 2):
        chi = 2 - 2 * genus
        fiber = fiber_from_chi(5, {frozenset({"C1"}): chi})
        model = ArithmeticModel(1, (fiber,), generic_euler=chi)
        assert generic_euler_check(model).ok


def test_generic_euler_detects_corruption():
    fiber = fiber_from_chi(5, {frozenset({"C1"}): 3})
    model = ArithmeticModel(1, (fiber,), generic_euler=0)
    report = generic_euler_check(model)
    assert not report.ok


def test_generic_euler_inferred_and_cross_checked():
    model = ArithmeticModel(1, (cycle_fiber(3, 5), cycle_fiber(4, 7)))
    report = generic_euler_check(model)
    assert report.inferred and report.generic_euler == 0 and report.ok


def test_generic_euler_inference_conflict():
    good = cycle_fiber(3, 5)
    bad = fiber_from_chi(7, {frozenset({"C1"}): 3})
    with pytest.raises(ConsistencyError):
        generic_euler_check(ArithmeticModel(1, (good, bad)))


# -- localized Chern degree ------------------------------------------------------------


def test_bloch_degree_smooth_fiber_is_zero():
    # one component with m = 1: -(m-1)*chi* vanishes and there are no deep
    # strata, so the degree is 0 whatever chi is
    for chi in (-2, 0, 2, 5):
        fiber = normalize_fiber(fiber_from_chi(5, {frozenset({"C1"}): chi}))
        assert bloch_degree(fiber) == 0


def test_bloch_degree_cycles():
    for n in (2, 3, 4, 5):
        fiber = normalize_fiber(cycle_fiber(n, 7))
        assert bloch_degree(fiber) == n


def test_bloch_degree_two_forms_agree_randomized():
    rng = random.Random(32)
    for _ in range(40):
        ids, chi = random_strata_lattice(rng)
        mult = {cid: rng.randint(1, 3) for cid in ids}
        fiber = normalize_fiber(fiber_from_chi(5, chi, multiplicities=mult))
        by_id = {c.id: c.multiplicity for c in fiber.components}
        opened = open_chi(fiber)
        first = -sum(
            (by_id[next(iter(J))] - 1) * v for J, v in opened.items() if len(J) == 1
        ) + sum(v for J, v in opened.items() if len(J) >= 2)
        second = -sum(
            by_id[next(iter(J))] * v for J, v in opened.items() if len(J) == 1
        ) + fiber_euler(fiber)
        assert bloch_degree(fiber) == first == second


# -- the full pipeline -------------------------------------------------------------------


def test_conductor_no_bad_primes():
    report = conductor(ArithmeticModel(2, (), generic_euler=4))
    assert report.conductor_factors == {}
    assert report.log_eps_terms == ()


def test_conductor_no_fibers_no_generic_euler():
    report = conductor(ArithmeticModel(2, ()))
    assert report.generic_euler is None
    assert report.conductor_factors == {}


def test_conductor_i3_report():
    model = ArithmeticModel(1, (cycle_fiber(3, 5),), generic_euler=0)
    report = conductor(model)
    summary = report.primes[0]
    assert summary.exponent == -3
    assert summary.bloch_degree == 3
    assert summary.chi_fiber == 3
    assert report.conductor_factors == {5: -3}
    assert report.log_eps_terms == ((5, Fraction(-3)),)
    assert report.has_negative_exponents


def test_conductor_two_primes_multiply():
    model = ArithmeticModel(
        1, (cycle_fiber(2, 5), cycle_fiber(3, 7)), generic_euler=0
    )
    report = conductor(model)
    assert report.conductor_factors == {5: -2, 7: -3}
    assert report.log_eps_terms == ((5, Fraction(-2)), (7, Fraction(-3)))


def test_conductor_smooth_fiber_contributes_nothing():
    fiber = fiber_from_chi(11, {frozenset({"C1"}): -2})
    model = ArithmeticModel(1, (fiber,), generic_euler=-2)
    report = conductor(model)
    assert report.primes[0].exponent == 0
    assert report.conductor_factors == {}


def test_conductor_exponent_negates_bloch_degree():
    rng = random.Random(33)
    produced = 0
    while produced < 20:
        ids, chi = random_strata_lattice(rng)
        fiber = fiber_from_chi(5, chi)
        normalized = normalize_fiber(fiber)
        weighted = sum(
            v for J, v in open_chi(normalized).items() if len(J) == 1
        )
        model = ArithmeticModel(3, (fiber,), generic_euler=weighted)
        report = conductor(model)
        assert report.primes[0].exponent == -report.primes[0].bloch_degree
        produced += 1


def test_conductor_rejects_wild_fiber():
    chi = {frozenset({"C1"}): 2, frozenset({"C2"}): 2, frozenset({"C1", "C2"}): 2}
    fiber = fiber_from_chi(2, chi, multiplicities={"C2": 2})
    with pytest.raises(TamenessError) as info:
        conductor(ArithmeticModel(1, (fiber,), generic_euler=0))
    assert info.value.offenders == ("C2",)


def test_conductor_rejects_inconsistent_model():
    fiber = fiber_from_chi(5, {frozenset({"C1"}): 3})
    with pytest.raises(ConsistencyError):
        conductor(ArithmeticModel(1, (fiber,), generic_euler=0))


def test_conductor_rejects_duplicate_primes():
    model = ArithmeticModel(1, (cycle_fiber(2, 5), cycle_fiber(3, 5)), generic_euler=0)
    with pytest.raises(ModelValidationError):
        conductor(model)
    with pytest.raises(ModelValidationError):
        generic_euler_check(model)


@pytest.mark.parametrize("entry", [conductor, generic_euler_check])
def test_entry_points_validate_hand_built_models(entry):
    # the singleton stratum of an undeclared component would be a KeyError
    # in the derivation if the model were not validated first
    strata = (
        Stratum(frozenset({"C1"}), chi_closed=2),
        Stratum(frozenset({"ghost"}), chi_closed=2),
        Stratum(frozenset({"C1", "ghost"}), chi_closed=1),
    )
    fiber = FiberModel(5, (Component("C1", 1),), strata)
    with pytest.raises(ModelValidationError, match="undeclared components"):
        entry(ArithmeticModel(1, (fiber,), generic_euler=0))


def test_euler_entries_and_report_agree_per_prime():
    model = ArithmeticModel(1, (cycle_fiber(3, 7), cycle_fiber(2, 5)), generic_euler=0)
    entries = generic_euler_check(model).entries
    assert all(type(d) is FiberDerivation for d in entries)
    assert [d.prime for d in entries] == [7, 5]  # model order
    summaries = conductor(model).primes
    assert sorted((d.prime, d.chi_fiber) for d in entries) == [
        (s.prime, s.chi_fiber) for s in summaries
    ] == [(5, 2), (7, 3)]


def test_log_eps_halves_for_even_dimension():
    # d = 0: the coefficient is f_p / 2, an honest half-integer
    chi = {
        frozenset({"C1"}): 1,
        frozenset({"C2"}): 1,
    }
    fiber = fiber_from_chi(3, chi, multiplicities={"C1": 1, "C2": 2})
    model = ArithmeticModel(0, (fiber,), generic_euler=3)
    report = conductor(model)
    assert report.primes[0].exponent == 1
    assert report.log_eps_terms == ((3, Fraction(1, 2)),)
