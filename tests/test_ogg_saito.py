"""The conductor exponent against the Ogg-Saito formula.

For a tame elliptic fiber on a regular model with strict normal crossings,
the exponent is -(f + m - 1), where m is the number of components of that
model, and f = 1 for I_n (n >= 1), f = 2 for the additive types II, III,
IV, I_n*, IV*, III* and II* (Ogg 1967; T. Saito, Duke 1988).  The model
need not be minimal: blowing up a point adds one component and raises
chi(X_p) by one, so the formula holds with m counted on the model at hand.
II, III and IV are tested on their SNC resolutions, stars of four
components, and I_1 on the blow-up of its node: the normalized line C and
the exceptional line E of multiplicity 2, meeting in two points.  The formula
uses none of the strata algebra, so it checks the conductor pipeline from
outside.
"""

import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcalc.cli import main
from charcalc.conductor import (
    ArithmeticModel,
    Component,
    FiberModel,
    Stratum,
    TamenessError,
    conductor,
    fiber_euler,
    normalize_fiber,
)
from charcalc.modelfile import load_model

from oracles import blow_up, random_strata_lattice

MODELS = Path(__file__).resolve().parent.parent / "models"

STARRED = [
    ("kodaira_i0_star.json", 5, -6),
    ("kodaira_i2_star.json", 7, -8),
    ("kodaira_iv_star.json", 7, -8),
    ("kodaira_iii_star.json", 8, -9),
    ("kodaira_ii_star.json", 9, -10),
]


# Star resolutions: a centre of multiplicity 6, 4 or 3 meeting three arms.
RESOLVED = [
    ("kodaira_ii.json", 4, -5),
    ("kodaira_iii.json", 4, -5),
    ("kodaira_iv.json", 4, -5),
]


def ogg_saito(f: int, m: int) -> int:
    return -(f + m - 1)


def check_additive_fiber(name, components, expected):
    model = load_model(MODELS / name)
    (fiber,) = model.fibers
    assert len(fiber.components) == components
    assert ogg_saito(2, components) == expected
    (summary,) = conductor(model).primes
    assert summary.prime == 7
    assert summary.exponent == expected


@pytest.mark.parametrize("name, components, expected", STARRED)
def test_starred_fiber(name, components, expected):
    check_additive_fiber(name, components, expected)


@pytest.mark.parametrize("name, components, expected", RESOLVED)
def test_resolved_fiber(name, components, expected):
    check_additive_fiber(name, components, expected)


def cycle(n: int, prime: int) -> FiberModel:
    """I_n: n lines in a cycle, consecutive ones meeting once (twice for n = 2)."""
    ids = [f"C{i}" for i in range(n)]
    strata = [Stratum(frozenset({cid}), chi_closed=2) for cid in ids]
    if n == 2:
        strata.append(Stratum(frozenset(ids), chi_closed=2))
    else:
        strata += [
            Stratum(frozenset({ids[i], ids[(i + 1) % n]}), chi_closed=1)
            for i in range(n)
        ]
    return FiberModel(prime, tuple(Component(cid, 1) for cid in ids), tuple(strata))


@pytest.mark.parametrize("n", range(2, 7))
def test_cycle(n):
    report = conductor(ArithmeticModel(1, (cycle(n, 7),), generic_euler=0))
    assert report.primes[0].exponent == ogg_saito(1, n) == -n


@pytest.mark.parametrize("prime", [5, 7, 11])
def test_nodal_fiber_on_its_blow_up(prime):
    model = load_model(MODELS / "kodaira_i1.json")
    (fiber,) = model.fibers
    assert [c.multiplicity for c in fiber.components] == [1, 2]
    model = replace(model, fibers=(replace(fiber, prime=prime),))
    (summary,) = conductor(model).primes
    assert (summary.prime, summary.chi_fiber) == (prime, 2)
    assert summary.exponent == ogg_saito(1, 2) == -2


def blown_up_cycle(n: int, prime: int) -> FiberModel:
    """I_n with the node of C0 and C1 blown up: E of multiplicity 2 meets C0 and C1."""
    fiber = cycle(n, prime)
    mults, closed = blow_up(
        {c.id: c.multiplicity for c in fiber.components},
        {s.components: s.chi_closed for s in fiber.strata},
        frozenset({"C0", "C1"}),
        1,
    )
    components = tuple(Component(cid, m) for cid, m in mults.items())
    return FiberModel(prime, components, tuple(Stratum(J, chi_closed=v) for J, v in closed.items()))


@pytest.mark.parametrize("n", range(2, 6))
def test_cycle_blown_up_at_a_node(n, tmp_path, capsys):
    report = conductor(ArithmeticModel(1, (blown_up_cycle(n, 5),), generic_euler=0))
    assert report.primes[0].exponent == ogg_saito(1, n + 1)
    # at p = 2 the exceptional line's multiplicity 2 is wild
    fiber = blown_up_cycle(n, 2)
    with pytest.raises(TamenessError):
        conductor(ArithmeticModel(1, (fiber,), generic_euler=0))
    path = tmp_path / "blown_up.json"
    path.write_text(json.dumps({
        "relative_dimension": 1,
        "generic_euler": 0,
        "fibers": [{
            "prime": 2,
            "components": [{"id": c.id, "multiplicity": c.multiplicity} for c in fiber.components],
            "strata": [{"components": sorted(s.components), "chi_closed": s.chi_closed}
                       for s in fiber.strata],
        }],
    }), encoding="utf-8")
    assert main(["conductor", "--model", str(path)]) == 1
    assert capsys.readouterr() == (
        "", f"check failed: fiber at p=2 is not tame: p divides the multiplicity of E{n}\n"
    )


def blown_up_projective_space(d: int, steps: int, seed: int) -> tuple[dict, dict]:
    """A smooth P^d fiber after ``steps`` blow-ups, each at a point of the open
    stratum T*_J for a seeded choice of J among the strata so far."""
    rng = random.Random(seed)
    mults, closed = {"C": 1}, {frozenset({"C"}): d + 1}
    for _ in range(steps):
        mults, closed = blow_up(mults, closed, rng.choice(list(closed)), d)
    return mults, closed


def write_model(path: Path, d: int, prime: int, mults: dict, closed: dict) -> Path:
    path.write_text(json.dumps({
        "relative_dimension": d,
        "generic_euler": d + 1,
        "fibers": [{
            "prime": prime,
            "components": [{"id": cid, "multiplicity": m} for cid, m in mults.items()],
            "strata": [{"components": sorted(J), "chi_closed": chi} for J, chi in closed.items()],
        }],
    }), encoding="utf-8")
    return path


# relative dimension, blow-ups, strata after them
BLOWN_UP = [(1, 2000, 5218), (2, 1000, 4435), (3, 600, 3581)]


@pytest.mark.parametrize("d, steps, strata", BLOWN_UP, ids=[f"d{d}" for d, _, _ in BLOWN_UP])
def test_blown_up_projective_space_through_the_cli(d, steps, strata, tmp_path, capsys):
    # each blow-up of a point lowers the exponent by d, from 0 on the smooth fiber
    mults, closed = blown_up_projective_space(d, steps, seed=d)
    assert (len(mults), len(closed)) == (steps + 1, strata)
    path = write_model(tmp_path / "tame.json", d, 1_000_003, mults, closed)
    assert main(["conductor", "--model", str(path), "--output", "machine"]) == 0
    out, err = capsys.readouterr()
    (prime,) = json.loads(out)["report"]["primes"]
    assert err == ""
    assert (prime["prime"], prime["tame"], prime["exponent"]) == (1_000_003, True, -steps * d)
    # at p = 2 the refusal names each component of even multiplicity, and no other
    wild = [cid for cid, m in mults.items() if math.gcd(m, 2) != 1]
    assert wild
    path = write_model(tmp_path / "wild.json", d, 2, mults, closed)
    assert main(["conductor", "--model", str(path), "--output", "machine"]) == 1
    out, err = capsys.readouterr()
    head = "check failed: fiber at p=2 is not tame: p divides the multiplicity of "
    assert out == "" and err.startswith(head) and err.endswith("\n")
    assert sorted(err[len(head):-1].split(", ")) == sorted(wild)


def fiber_of(prime: int, mults: dict, closed: dict) -> FiberModel:
    components = tuple(Component(cid, m) for cid, m in mults.items())
    return FiberModel(prime, components, tuple(Stratum(J, chi_closed=v) for J, v in closed.items()))


def weighted_sum_and_exponent(fiber: FiberModel, d: int) -> tuple[int, int]:
    """sum m_i chi*(T_i) and the exponent, sum m_i chi*(T_i) - chi(X_p), of
    the fiber as normalize_fiber derives it at relative dimension d."""
    normalized = normalize_fiber(fiber, d)
    weighted = sum(c.multiplicity * c.chi_open for c in normalized.components)
    return weighted, weighted - fiber_euler(normalized)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32))
def test_blowing_up_a_point_lowers_the_exponent_by_d(d, seed):
    # in every relative dimension, on any subset-closed lattice of depth at
    # most d + 1: chi(X_Q) is kept and chi(X_p) rises by d, the P^d that
    # replaces the point less the point
    rng = random.Random(seed)
    ids, closed = random_strata_lattice(rng, max_components=d + 1)
    mults = {cid: rng.randint(1, 4) for cid in ids}
    blown_mults, blown_closed = blow_up(mults, closed, rng.choice(list(closed)), d)
    weighted, exponent = weighted_sum_and_exponent(fiber_of(1_000_003, mults, closed), d)
    blown = weighted_sum_and_exponent(fiber_of(1_000_003, blown_mults, blown_closed), d)
    assert blown == (weighted, exponent - d)
