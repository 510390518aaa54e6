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

from dataclasses import replace
from pathlib import Path

import pytest

from charcalc.conductor import (
    ArithmeticModel,
    Component,
    FiberModel,
    Stratum,
    conductor,
)
from charcalc.modelfile import load_model

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
