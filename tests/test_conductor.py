"""Strata inclusion-exclusion and the conductor pipeline."""

import ast
import inspect
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from charcalc.conductor import (
    PRIME_LIMIT,
    ArithmeticModel,
    Component,
    ConductorReport,
    ConsistencyError,
    FiberDerivation,
    FiberModel,
    ModelValidationError,
    Stratum,
    TamenessError,
    bloch_degree,
    closed_strata_from_open,
    conductor,
    conductor_report,
    fiber_euler,
    generic_euler_check,
    normalize_fiber,
    open_strata_from_closed,
    tame_check,
    _is_prime,
    validate_fiber,
    validate_model,
)
from charcalc.modelfile import load_model, parse_model

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


def test_missing_subset_names_the_first_offender_under_any_hash_seed():
    # {A,B,C} and {B,C,D} both lack their pairs: the first declared stratum and
    # its first missing subset, in sorted order, are named whatever the set order
    script = (
        "from charcalc.conductor import Component, FiberModel, ModelValidationError, "
        "Stratum, validate_fiber\n"
        "strata = [Stratum(frozenset(c), chi_closed=2) for c in 'ABCD']\n"
        "strata += [Stratum(frozenset(J), chi_closed=1) for J in ('ABC', 'BCD')]\n"
        "try:\n"
        "    components = tuple(Component(c, 1) for c in 'ABCD')\n"
        "    validate_fiber(FiberModel(3, components, tuple(strata)))\n"
        "except ModelValidationError as error:\n"
        "    print(error)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
        ).stdout
        for hash_seed in ("1", "2", "5")
    }
    assert outputs == {
        "fiber at p=3: stratum ['A', 'B', 'C'] is declared but its subset ['B', 'C'] is not\n"
    }


def test_mixed_sides_are_refused_before_a_missing_subset():
    # the declared side is picked before the lattice walk that finds missing subsets
    strata = (
        Stratum(frozenset({"C1"}), chi_closed=2),
        Stratum(frozenset({"C2"}), chi_open=2),
        Stratum(frozenset({"C3"}), chi_closed=2),
        Stratum(frozenset({"C1", "C2", "C3"}), chi_closed=1),
    )
    comps = tuple(Component(f"C{i}", 1) for i in (1, 2, 3))
    with pytest.raises(ModelValidationError, match="mixed strata data"):
        validate_fiber(FiberModel(3, comps, strata))


def stratum_without_its_subsets():
    """One 20-component stratum over 20 singletons: it lacks most of its
    2^20 - 1 subsets."""
    ids = [f"C{i}" for i in range(20)]
    chi = {frozenset({cid}): 2 for cid in ids}
    chi[frozenset(ids)] = 1
    return fiber_from_chi(5, chi)


def test_normalize_refuses_stratum_without_its_subsets_quickly():
    # validation refuses it before the subsets are enumerated
    start = time.process_time()
    with pytest.raises(ModelValidationError, match="is declared but its subset"):
        normalize_fiber(stratum_without_its_subsets())
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


# Carmichael 561, then the least strong pseudoprime to the first k prime bases
# for k = 1..7, 9 and 12.  341550071728321 is also the least for k = 8, and the
# last one fools every prime base up to 37.
@pytest.mark.parametrize(
    "n",
    [
        561,
        2047,
        1373653,
        25326001,
        3215031751,
        2152302898747,
        3474749660383,
        341550071728321,
        3825123056546413051,
        318665857834031151167461,
    ],
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


DERIVED_SIDE = {"chi_closed": ("chi_open", "inclusion-exclusion gives"),
                "chi_open": ("chi_closed", "the open strata sum to")}


def stated_on_one_side(fiber, given, wrong=()):
    """The strata of a normalized fiber with only ``given`` stated, and the
    derived side stated one too high on the strata at the positions ``wrong``."""
    side, _ = DERIVED_SIDE[given]
    return tuple(
        Stratum(s.components, **{given: getattr(s, given)},
                **({side: getattr(s, side) + 1} if k in wrong else {}))
        for k, s in enumerate(fiber.strata)
    )


@pytest.mark.parametrize("given", DERIVED_SIDE)
def test_derived_side_refusal_names_the_first_disagreement_in_file_order(given):
    side, how = DERIVED_SIDE[given]
    cycle = normalize_fiber(cycle_fiber(6, 7))
    strata = list(cycle.strata)
    random.Random(3).shuffle(strata)
    shuffled = FiberModel(7, cycle.components, tuple(strata))
    for first, second in [(0, 11), (3, 4), (5, 10), (9, 2)]:
        fiber = FiberModel(7, cycle.components, stated_on_one_side(shuffled, given, {first, second}))
        s = strata[min(first, second)]
        with pytest.raises(ModelValidationError) as refusal:
            validate_fiber(fiber)
        assert str(refusal.value) == (
            f"fiber at p=7: stratum {sorted(s.components)} declares "
            f"{side}={getattr(s, side) + 1} but {how} {getattr(s, side)}"
        )


@pytest.mark.parametrize("given", DERIVED_SIDE)
def test_a_component_disagreement_is_named_only_when_every_stratum_agrees(given):
    cycle = normalize_fiber(cycle_fiber(4, 5))
    components = tuple(Component(cid, m, chi + 1 if cid == "C3" else None)
                       for cid, m, chi in cycle.components)
    fiber = FiberModel(5, components, stated_on_one_side(cycle, given))
    with pytest.raises(ModelValidationError) as refusal:
        validate_fiber(fiber)
    assert str(refusal.value) == (
        "fiber at p=5: component C3 declares chi_open=1 but its singleton stratum gives 0"
    )
    last = len(cycle.strata) - 1
    fiber = FiberModel(5, components, stated_on_one_side(cycle, given, {last}))
    with pytest.raises(ModelValidationError, match=r"^fiber at p=5: stratum \[.*\] declares "):
        validate_fiber(fiber)


# -- fiber Euler characteristic ----------------------------------------------------


def test_fiber_euler_single_component():
    fiber = normalize_fiber(fiber_from_chi(5, {frozenset({"C1"}): -2}))
    assert fiber_euler(fiber) == -2


def test_fiber_euler_cycles():
    assert fiber_euler(normalize_fiber(cycle_fiber(3, 5))) == 3
    assert fiber_euler(normalize_fiber(cycle_fiber(2, 5))) == 2


def test_fiber_euler_normalizes_its_input():
    raw = cycle_fiber(3, 5)
    assert fiber_euler(raw) == fiber_euler(normalize_fiber(raw)) == 3
    assert bloch_degree(raw) == bloch_degree(normalize_fiber(raw)) == 3


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


def test_generic_euler_check_and_conductor_return_one_report_type():
    model = ArithmeticModel(1, (cycle_fiber(3, 7), cycle_fiber(2, 5)), generic_euler=0)
    assert type(generic_euler_check(model)) is type(conductor(model)) is ConductorReport


def test_report_primes_are_its_records_by_prime():
    model = ArithmeticModel(
        1, (cycle_fiber(3, 11), cycle_fiber(4, 5), cycle_fiber(2, 7)), generic_euler=0
    )
    report = conductor(model)
    assert [d.prime for d in report.entries] == [11, 5, 7]  # model order
    assert [d.prime for d in report.primes] == [5, 7, 11]
    assert sorted(map(id, report.primes)) == sorted(map(id, report.entries))
    for d in report.primes:
        assert type(d) is FiberDerivation
        assert d.exponent == -d.bloch_degree == report.generic_euler - d.chi_fiber
    assert report.conductor_factors == {5: -4, 7: -2, 11: -3}


def test_report_orders_its_records_once():
    model = ArithmeticModel(1, (cycle_fiber(3, 11), cycle_fiber(4, 5)), generic_euler=0)
    report = conductor(model)
    assert report.primes is report.primes
    assert report.conductor_factors is report.conductor_factors
    with pytest.raises(TypeError):
        report.conductor_factors[5] = 0
    assert report.conductor_factors == {5: -4, 11: -3}
    assert report == conductor(model)


def test_generic_euler_check_reports_a_stated_inconsistency():
    # the one-component fiber at 7 has sum m_i chi*(T_i) = 3, not the stated 0
    good, bad = cycle_fiber(3, 5), fiber_from_chi(7, {frozenset({"C1"}): 3})
    report = generic_euler_check(ArithmeticModel(1, (bad, good), generic_euler=0))
    assert not report.ok and not report.inferred
    flags = {row["prime"]: row["generic_euler_ok"] for row in report.as_dict()["primes"]}
    assert flags == {5: True, 7: False}
    assert all(row["tame"] for row in report.as_dict()["primes"])


def test_entry_points_agree_on_a_model_with_no_fibers():
    # no fiber to infer chi(X_Q) from and none stated: the report has nothing to refuse
    model = ArithmeticModel(1, ())
    report = generic_euler_check(model)
    assert report == conductor(model)
    assert report.generic_euler is None and report.ok and not report.inferred


WILD_FIBER = fiber_from_chi(
    2, {frozenset({"C1"}): 2, frozenset({"C2"}): 2, frozenset({"C1", "C2"}): 2}, {"C2": 2}
)
SMOOTH_AT_7 = fiber_from_chi(7, {frozenset({"C1"}): 3})  # sum m_i chi*(T_i) = 3
# case -> (model, what conductor() raises for it, the message)
REFUSED_MODELS = {
    "wild": (
        ArithmeticModel(1, (WILD_FIBER,), generic_euler=0),
        TamenessError,
        "fiber at p=2 is not tame: p divides the multiplicity of C2",
    ),
    "wild-and-clashing": (
        ArithmeticModel(1, (WILD_FIBER, SMOOTH_AT_7)),
        TamenessError,
        "fiber at p=2 is not tame: p divides the multiplicity of C2",
    ),
    "stated-inconsistent": (
        ArithmeticModel(1, (cycle_fiber(3, 5), SMOOTH_AT_7), generic_euler=0),
        ConsistencyError,
        "generic Euler characteristic check failed: "
        "p=7: sum m_i*chi_open(T_i) = 3 != 0 = chi(X_Q)",
    ),
    "inferred-clash": (
        ArithmeticModel(1, (cycle_fiber(3, 5), SMOOTH_AT_7)),
        ConsistencyError,
        "fibers disagree on chi(X_Q): p=5 gives 0, p=7 gives 3",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED_MODELS))
def test_conductor_report_derives_what_checked_refuses(case):
    model, error, message = REFUSED_MODELS[case]
    report = conductor_report(validate_model(model))
    assert [d.prime for d in report.entries] == [f.prime for f in model.fibers]
    with pytest.raises(error) as refused:
        report.checked()
    assert str(refused.value) == message
    with pytest.raises(error) as refused:
        conductor(model)
    assert str(refused.value) == message


def test_generic_euler_check_refuses_only_an_inferred_clash():
    assert not generic_euler_check(REFUSED_MODELS["stated-inconsistent"][0]).ok
    assert generic_euler_check(REFUSED_MODELS["wild"][0]).ok
    model, _, message = REFUSED_MODELS["inferred-clash"]
    with pytest.raises(ConsistencyError) as refused:
        generic_euler_check(model)
    assert str(refused.value) == message


def test_side_functions_name_the_first_stratum_without_their_side():
    chi = {frozenset({"C1"}): 1, frozenset({"C2"}): 1, frozenset({"C1", "C2"}): 2}
    with pytest.raises(ModelValidationError) as refused:
        open_strata_from_closed(fiber_from_chi(5, chi, open_side=True))
    assert str(refused.value) == "fiber at p=5: stratum ['C1'] has no chi_closed"
    with pytest.raises(ModelValidationError) as refused:
        closed_strata_from_open(fiber_from_chi(5, chi))
    assert str(refused.value) == "fiber at p=5: stratum ['C1'] has no chi_open"


def test_derivation_names_an_undeclared_component():
    strata = (
        Stratum(frozenset({"C1"}), chi_closed=2),
        Stratum(frozenset({"ghost"}), chi_closed=2),
        Stratum(frozenset({"C1", "ghost"}), chi_closed=1),
    )
    raw = FiberModel(5, (Component("C1", 1),), strata)
    for entry in (normalize_fiber, fiber_euler, bloch_degree):
        with pytest.raises(ModelValidationError, match=r"undeclared components \['ghost'\]"):
            entry(raw)


def _strata(chi):
    return tuple(Stratum(frozenset(J), chi_closed=v) for J, v in chi)


TWO_LINES = (Component("C1", 1), Component("C2", 1))
INVALID_FIBERS = {
    "missing-singleton": FiberModel(5, TWO_LINES, _strata([({"C1"}, 2)])),
    "ghost-in-deep-stratum": FiberModel(
        5, TWO_LINES,
        _strata([({"C1"}, 2), ({"C2"}, 2), ({"C1", "C2"}, 1), ({"C1", "ghost"}, 1)]),
    ),
    "ghost-singleton": FiberModel(
        5, TWO_LINES[:1], _strata([({"C1"}, 2), ({"ghost"}, 2), ({"C1", "ghost"}, 1)])
    ),
    "stratum-without-subsets": stratum_without_its_subsets(),
    "composite-prime": fiber_from_chi(6, {frozenset({"C1"}): 2}),
    "no-strata": FiberModel(5, TWO_LINES, ()),
}


@pytest.mark.parametrize("case", sorted(INVALID_FIBERS))
@pytest.mark.parametrize(
    "entry", [normalize_fiber, open_strata_from_closed, fiber_euler, bloch_degree, tame_check],
    ids=lambda f: f.__name__,
)
def test_fiber_functions_refuse_invalid_fibers(entry, case):
    # a typed refusal, never a KeyError and never a value, and quickly
    start = time.process_time()
    with pytest.raises(ModelValidationError):
        entry(INVALID_FIBERS[case])
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize("side", ["closed", "open"])
def test_validation_builds_each_singleton_key_once(monkeypatch, side):
    module = sys.modules[validate_fiber.__module__]
    built = []

    def counted(members):
        built.append(frozenset(members))
        return built[-1]

    fiber = cycle_fiber(6, 7) if side == "closed" else _open_side(cycle_fiber(6, 7))
    monkeypatch.setattr(module, "frozenset", counted, raising=False)
    validate_model(ArithmeticModel(1, (fiber,)))
    assert sorted(built, key=sorted) == [frozenset({c.id}) for c in fiber.components]


def model_refusers(source: str) -> set[str]:
    """The functions of ``source`` whose own bodies raise ModelValidationError."""
    refusers = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(raised, ast.Name) and raised.id == "ModelValidationError":
                refusers.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return refusers


def test_a_fiber_is_refused_only_where_it_is_validated():
    # every check on fiber or model data lives in validate_fiber, validate_model
    # or the side wrappers' _declaring
    source = inspect.getsource(sys.modules[ModelValidationError.__module__])
    assert model_refusers(source) <= {"validate_fiber", "validate_model", "_declaring"}


def test_model_refusers_are_found():
    source = (
        "def assemble(fiber):\n"
        "    def inner():\n"
        "        raise ModelValidationError('inner')\n"
        "    if fiber is None:\n"
        "        raise ModelValidationError\n"
        "    raise ValueError('other')\n"
        "raise ModelValidationError('module')\n"
    )
    assert model_refusers(source) == {"assemble", "inner", None}


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


def test_consistency_messages_past_the_digit_limit():
    # two lines meeting in a point: sum m_i chi* = 2 * 9*10^4299 - 2 has 4,301 digits
    huge = 9 * 10**4299
    chi = {frozenset({"C1"}): huge, frozenset({"C2"}): huge, frozenset({"C1", "C2"}): 1}
    stated = ArithmeticModel(1, (fiber_from_chi(5, chi),), generic_euler=0)
    with pytest.raises(ConsistencyError, match=r"= ~1\.800e\+4300 != 0 = chi\(X_Q\)"):
        conductor(stated)
    negated = {J: -v for J, v in chi.items()}
    inferred = ArithmeticModel(1, (fiber_from_chi(5, chi), fiber_from_chi(7, negated)))
    clash = r"p=5 gives ~1\.800e\+4300, p=7 gives ~-1\.800e\+4300"
    with pytest.raises(ConsistencyError, match=clash):
        conductor(inferred)


# -- records and triples -------------------------------------------------------

MODELS = Path(__file__).resolve().parent.parent / "models"
MODEL_FILES = sorted(MODELS.glob("*.json"))


def test_records_keep_their_public_behaviour():
    def fields(record_type):
        return [(p.name, p.default) for p in inspect.signature(record_type).parameters.values()]

    required = inspect.Parameter.empty
    assert fields(Component) == [("id", required), ("multiplicity", required), ("chi_open", None)]
    assert fields(Stratum) == [("components", required), ("chi_closed", None), ("chi_open", None)]
    J = frozenset({"C1"})
    stratum, component = Stratum(J, 2), Component("C1", 1)
    assert repr(stratum) == "Stratum(components=frozenset({'C1'}), chi_closed=2, chi_open=None)"
    assert repr(component) == "Component(id='C1', multiplicity=1, chi_open=None)"
    assert Stratum(components=J, chi_open=1) == Stratum(J, None, 1)
    for record, field in ((component, "chi_open"), (stratum, "chi_open"), (stratum, "color")):
        with pytest.raises(AttributeError):
            setattr(record, field, 5)
    assert stratum.chi_open is None
    assert hash(stratum) == hash(Stratum(components=J, chi_closed=2))
    assert len({stratum, Stratum(J, 2, None), component, Component("C1", 1)}) == 2
    # a record equals the tuple of its fields
    assert Stratum(J, 1, 2) == (J, 1, 2)


def as_triples(fiber):
    """``fiber`` with each record a plain tuple of its fields."""
    return FiberModel(
        fiber.prime, tuple(map(tuple, fiber.components)), tuple(map(tuple, fiber.strata))
    )


def file_fiber(raw):
    """The fiber a model document's fiber object declares, as it declares it."""
    return FiberModel(
        raw["prime"],
        tuple(Component(c["id"], c["multiplicity"], c.get("chi_open")) for c in raw["components"]),
        tuple(
            Stratum(frozenset(s["components"]), s.get("chi_closed"), s.get("chi_open"))
            for s in raw["strata"]
        ),
    )


def outcome(entry, *args):
    """What ``entry(*args)`` returns, or the type and text of what it raises."""
    try:
        return entry(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_triples_read_as_records(fiber, relative_dimension=None):
    triples = as_triples(fiber)
    assert {type(r) for r in triples.components + triples.strata} <= {tuple}
    for entry in (tame_check, fiber_euler, bloch_degree,
                  open_strata_from_closed, closed_strata_from_open):
        assert outcome(entry, triples) == outcome(entry, fiber)
    for entry in (validate_fiber, normalize_fiber):
        normalized = outcome(entry, triples, relative_dimension)
        assert normalized == outcome(entry, fiber, relative_dimension)
    if isinstance(normalized, FiberModel):
        # equal to records either way, since a record equals its triple
        assert {type(c) for c in normalized.components} == {Component}
        assert {type(s) for s in normalized.strata} == {Stratum}


def _open_side(fiber):
    """``fiber`` declared by its open characteristics."""
    multiplicities = {c.id: c.multiplicity for c in fiber.components}
    opened = open_chi(normalize_fiber(fiber))
    return fiber_from_chi(fiber.prime, opened, multiplicities, open_side=True)


DOUBLE_LINE = fiber_from_chi(
    3, {frozenset({"C1"}): 2, frozenset({"C2"}): 2, frozenset({"C1", "C2"}): 1},
    multiplicities={"C2": 2},
)
RECORD_FIBERS = {
    "cycle-2": cycle_fiber(2, 5),
    "cycle-6": cycle_fiber(6, 7),
    "cycle-6-open": _open_side(cycle_fiber(6, 7)),
    "double-line": DOUBLE_LINE,
    "double-line-open": _open_side(DOUBLE_LINE),
    "declared-component-chi": FiberModel(
        3, (Component("C1", 1, chi_open=2),), (Stratum(frozenset({"C1"}), chi_closed=2),)
    ),
    "mismatched-component-chi": FiberModel(
        3, (Component("C1", 1, chi_open=5),), (Stratum(frozenset({"C1"}), chi_closed=2),)
    ),
    "mismatched-stratum-chi": FiberModel(
        3, TWO_LINES,
        tuple(Stratum(s.components, s.chi_closed, 99) for s in cycle_fiber(2, 3).strata),
    ),
    "mixed-sides": FiberModel(
        3, TWO_LINES,
        (Stratum(frozenset({"C1"}), chi_closed=2), Stratum(frozenset({"C2"}), chi_open=1)),
    ),
    **INVALID_FIBERS,
}


@pytest.mark.parametrize("case", sorted(RECORD_FIBERS))
def test_fiber_functions_read_triples_as_records(case):
    for relative_dimension in (None, 0, 1):
        assert_triples_read_as_records(RECORD_FIBERS[case], relative_dimension)


@pytest.mark.parametrize("path", MODEL_FILES, ids=lambda path: path.stem)
def test_model_files_read_the_same_from_triples_and_records(path):
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    d = doc["relative_dimension"]
    fibers = tuple(map(file_fiber, doc["fibers"]))
    for fiber in fibers:
        assert_triples_read_as_records(fiber, d)
    model = ArithmeticModel(d, fibers, doc.get("generic_euler"))
    assert parse_model(text) == validate_model(model)


@pytest.mark.parametrize("path", MODEL_FILES, ids=lambda path: path.stem)
def test_loaded_models_hold_only_records(path):
    for fiber in load_model(path).fibers:
        assert {type(c) for c in fiber.components} == {Component}
        assert {type(s) for s in fiber.strata} == {Stratum}
