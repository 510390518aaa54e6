"""The conductor exponent against the Ogg-Saito formula.

For a tame elliptic fiber whose minimal regular model is already strict
normal crossings, the exponent is -(f + m - 1): m is the number of
components, and f = 1 for I_n (n >= 2), f = 2 for I_n*, IV*, III* and II*
(Ogg 1967; T. Saito, Duke 1988).  The formula uses none of the strata
algebra, so it checks the conductor pipeline from outside.
"""

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


def ogg_saito(f: int, m: int) -> int:
    return -(f + m - 1)


@pytest.mark.parametrize("name, components, expected", STARRED)
def test_starred_fiber(name, components, expected):
    model = load_model(MODELS / name)
    (fiber,) = model.fibers
    assert len(fiber.components) == components
    assert ogg_saito(2, components) == expected
    (summary,) = conductor(model).primes
    assert summary.prime == 7
    assert summary.exponent == expected


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
