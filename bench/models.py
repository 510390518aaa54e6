"""Seeded model files for the conductor-models workload.

Every model comes with the answer the conductor pipeline must give, and
that answer never comes from charcalc itself:

* the cycle ``I_n`` has exponent ``-n``;
* a Kodaira type with ``m`` components has the Ogg-Saito exponent
  ``-(f + m - 1)``, with ``f = 1`` for ``I_n`` and ``f = 2`` for the
  starred types;
* a fiber whose dual complex is a triangulated sphere gets its exponent
  from the inclusion-exclusion closed form in :func:`sphere_fiber`;
* refusals carry the exit code the README documents.

Large primes come from the deterministic Miller-Rabin test below, so the
generator does not share the program's primality code.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Bases that make Miller-Rabin exact below 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


@dataclass(frozen=True)
class ModelCase:
    """One model file and what the CLI must answer for it.

    ``exponents`` maps each prime to its expected exponent; it is empty for
    refusals, whose only expectation is ``exit_code``.
    """

    label: str
    text: str
    exit_code: int = 0
    exponents: tuple[tuple[int, int], ...] = ()
    fibers: int = 0
    strata: int = 0


# -- fibers -------------------------------------------------------------------
#
# A fiber is built as (multiplicities, strata) with components named by
# index; _emit_fiber renames them with seeded labels and shuffles every list, so the
# program sees different text for different seeds but the same amount of work.


def _tree(mults, edges):
    """Rational components meeting transversally in single points."""
    strata = [((i,), 2) for i in range(len(mults))]
    strata += [((a, b), 1) for a, b in edges]
    return list(mults), strata


def _chain(start, mults, edges, mult_list):
    """Append a chain of components hanging off ``start``."""
    prev = start
    for m in mult_list:
        mults.append(m)
        edges.append((prev, len(mults) - 1))
        prev = len(mults) - 1


def kodaira_fiber(kind: str):
    """(multiplicities, strata, expected exponent) for a Kodaira type.

    ``kind`` is ``I<n>`` (n >= 2), ``I<n>*`` (n >= 0), ``IV*``, ``III*`` or
    ``II*``.  The exponent is Ogg-Saito's ``-(f + m - 1)``.
    """
    if kind.startswith("I") and kind[1:].isdigit():
        n = int(kind[1:])
        if n < 2:
            raise ValueError("I_1 is not strict normal crossings")
        strata = [((i,), 2) for i in range(n)]
        if n == 2:
            strata.append(((0, 1), 2))
        else:
            strata += [((i, (i + 1) % n), 1) for i in range(n)]
        return [1] * n, strata, -n
    mults, edges = [], []
    if kind.endswith("*") and kind[1:-1].isdigit():
        n = int(kind[1:-1])
        mults = [2] * (n + 1)
        edges = [(i, i + 1) for i in range(n)]
        for end in (0, n, 0, n):
            _chain(end, mults, edges, [1])
    else:
        arms = {
            "IV*": (3, [[2, 1], [2, 1], [2, 1]]),
            "III*": (4, [[3, 2, 1], [3, 2, 1], [2]]),
            "II*": (6, [[5, 4, 3, 2, 1], [4, 2], [3]]),
        }
        if kind not in arms:
            raise ValueError(f"unknown Kodaira type {kind}")
        centre, chains = arms[kind]
        mults = [centre]
        for chain in chains:
            _chain(0, mults, edges, chain)
    mults, strata = _tree(mults, edges)
    return mults, strata, -(2 + len(mults) - 1)


def stacked_sphere(vertices: int, rng: random.Random):
    """Faces of a random stacked triangulation of the 2-sphere."""
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for v in range(4, vertices):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return faces


def sphere_fiber(vertices: int, rng: random.Random):
    """A relative-dimension-2 fiber whose dual complex is a sphere.

    Components are the vertices, double curves the edges and triple points
    the faces.  With closed characteristics c_v, e_uv and 1, and each edge
    in exactly two faces, inclusion-exclusion gives
    chi_open(v) = c_v - sum_{u~v} e_uv + (faces at v), chi_open(uv) = e_uv - 2
    and chi_open(face) = 1.  Then chi(X_Q) = sum_v m_v chi_open(v),
    chi(X_p) = sum of all chi_open, and the exponent is their difference.
    Returns (multiplicities, closed strata, open strata, exponent, chi(X_Q)).
    """
    faces = stacked_sphere(vertices, rng)
    edges = sorted({tuple(sorted(p)) for f in faces for p in ((f[0], f[1]), (f[0], f[2]), (f[1], f[2]))})
    mults = [rng.choice((1, 1, 2, 3)) for _ in range(vertices)]
    c = [rng.randint(1, 4) for _ in range(vertices)]
    e = {edge: rng.choice((0, 2)) for edge in edges}
    faces_at = [0] * vertices
    curves_at = [0] * vertices
    for f in faces:
        for v in f:
            faces_at[v] += 1
    for (u, v), chi in e.items():
        curves_at[u] += chi
        curves_at[v] += chi
    open_v = [c[v] - curves_at[v] + faces_at[v] for v in range(vertices)]
    closed = [((v,), c[v]) for v in range(vertices)]
    closed += [(edge, e[edge]) for edge in edges]
    closed += [(tuple(f), 1) for f in faces]
    opened = [((v,), open_v[v]) for v in range(vertices)]
    opened += [(edge, e[edge] - 2) for edge in edges]
    opened += [(tuple(f), 1) for f in faces]
    chi_q = sum(m * x for m, x in zip(mults, open_v))
    chi_p = sum(open_v) + sum(e[edge] - 2 for edge in edges) + len(faces)
    return mults, closed, opened, chi_q - chi_p, chi_q


def _emit_fiber(prime, mults, strata, rng, key="chi_closed"):
    names = [f"{'ABCDEFGH'[rng.randrange(8)]}{i}" for i in range(len(mults))]
    rng.shuffle(names)
    components = [{"id": names[i], "multiplicity": m} for i, m in enumerate(mults)]
    rng.shuffle(components)
    rows = []
    for members, chi in strata:
        ids = [names[i] for i in members]
        rng.shuffle(ids)
        rows.append({"components": ids, key: chi})
    rng.shuffle(rows)
    return {"prime": prime, "components": components, "strata": rows}


def _model_text(relative_dimension, fibers, generic_euler=None) -> str:
    doc = {"relative_dimension": relative_dimension, "fibers": fibers}
    if generic_euler is not None:
        doc["generic_euler"] = generic_euler
    return json.dumps(doc, indent=1)


def _strata_count(fibers) -> int:
    return sum(len(f["strata"]) for f in fibers)


# -- the workload ---------------------------------------------------------------

SMALL_PRIMES = (3, 5, 7, 11, 13)
TAME_PRIMES = tuple(p for p in range(7, 100) if is_prime(p))
KODAIRA_TYPES = tuple(f"I{n}" for n in range(2, 10)) + tuple(f"I{n}*" for n in range(5)) + ("IV*", "III*", "II*")
SMALL_TYPES = ("I2", "I3", "I4", "I5", "I0*", "I1*", "IV*", "III*", "II*")
# 11-digit primes in a narrow window, so that trial division costs about the
# same for every seed.
LARGE_PRIME_FLOOR = 2 * 10**10
LARGE_PRIME_WINDOW = 4 * 10**8

SIZES = {
    # cycles, sphere vertex counts, (large-prime models, fibers per model)
    "full": ((100, 400, 1600), (50, 200), (4, 4)),
    "tiny": ((6, 10, 16), (6, 10), (2, 2)),
}


def _single(label, prime, relative_dimension, mults, strata, exponent, rng, generic_euler=0, key="chi_closed"):
    fiber = _emit_fiber(prime, mults, strata, rng, key)
    return ModelCase(
        label,
        _model_text(relative_dimension, [fiber], generic_euler),
        0,
        ((prime, exponent),),
        1,
        len(strata),
    )


def _cycle_case(n, rng) -> ModelCase:
    mults, strata, exponent = kodaira_fiber(f"I{n}")
    return _single(f"cycle-I{n}", rng.choice(SMALL_PRIMES), 1, mults, strata, exponent, rng)


def _sphere_case(vertices, declare_open, rng) -> ModelCase:
    mults, closed, opened, exponent, chi_q = sphere_fiber(vertices, rng)
    # Above the largest multiplicity, 3, so the fiber stays tame.
    prime = rng.choice((5, 7, 11, 13))
    if declare_open:
        # chi(X_Q) is left out and inferred from the only fiber.
        return _single(f"sphere-V{vertices}-open", prime, 2, mults, opened, exponent, rng, None, "chi_open")
    return _single(f"sphere-V{vertices}-closed", prime, 2, mults, closed, exponent, rng, chi_q)


def _large_prime_case(index, fiber_count, rng, used) -> ModelCase:
    fibers, exponents = [], []
    for _ in range(fiber_count):
        prime = next_prime(LARGE_PRIME_FLOOR + rng.randrange(LARGE_PRIME_WINDOW))
        while prime in used:
            prime = next_prime(prime + 1)
        used.add(prime)
        mults, strata, exponent = kodaira_fiber(rng.choice(SMALL_TYPES))
        fibers.append(_emit_fiber(prime, mults, strata, rng))
        exponents.append((prime, exponent))
    return ModelCase(
        f"large-primes-{index}",
        _model_text(1, fibers),
        0,
        tuple(sorted(exponents)),
        fiber_count,
        _strata_count(fibers),
    )


def _refusals(rng) -> list[ModelCase]:
    # Wild: the residue characteristic divides a multiplicity (exit 1).
    kind, prime = rng.choice((("I0*", 2), ("I2*", 2), ("IV*", 3), ("III*", 2), ("II*", 5)))
    mults, strata, _ = kodaira_fiber(kind)
    wild = ModelCase(f"refuse-wild-{kind}", _model_text(1, [_emit_fiber(prime, mults, strata, rng)], 0), 1, (), 1, len(strata))
    # Inconsistent: the fibers imply different chi(X_Q) (exit 1).
    mults, strata, _ = kodaira_fiber(rng.choice(SMALL_TYPES))
    elliptic = _emit_fiber(7, mults, strata, rng)
    if rng.random() < 0.5:
        inconsistent = ModelCase("refuse-inconsistent", _model_text(1, [elliptic], 2), 1, (), 1, len(strata))
    else:
        genus_two = _emit_fiber(11, [1], [((0,), -2)], rng)
        inconsistent = ModelCase("refuse-inconsistent", _model_text(1, [elliptic, genus_two]), 1, (), 2, len(strata) + 1)
    # Malformed: a parse or validation error (exit 2).
    mults, strata, _ = kodaira_fiber(rng.choice(SMALL_TYPES))
    doc = {"relative_dimension": 1, "generic_euler": 0, "fibers": [_emit_fiber(13, mults, strata, rng)]}
    variant = rng.randrange(4)
    if variant == 0:
        doc["fibers"][0]["components"][0]["multiplicity"] = 1.0
        malformed = json.dumps(doc)
    elif variant == 1:
        doc["fibers"][0]["colour"] = "red"
        malformed = json.dumps(doc)
    elif variant == 2:
        malformed = json.dumps(doc)[:-7]
    else:
        doc["fibers"][0]["prime"] = 15
        malformed = json.dumps(doc)
    return [wild, inconsistent, ModelCase(f"refuse-malformed-{variant}", malformed, 2)]


def conductor_cases(seed: int, size: str = "full") -> list[ModelCase]:
    """The seeded model set; the same seed gives the same files."""
    cycles, spheres, (large_models, large_fibers) = SIZES[size]
    rng = random.Random(f"conductor-models/{seed}")
    cases = [_cycle_case(n, rng) for n in cycles]
    for kind in KODAIRA_TYPES:
        mults, strata, exponent = kodaira_fiber(kind)
        cases.append(_single(f"kodaira-{kind}", rng.choice(TAME_PRIMES), 1, mults, strata, exponent, rng))
    for vertices in spheres:
        for declare_open in (False, True):
            cases.append(_sphere_case(vertices, declare_open, rng))
    used: set[int] = set()
    cases += [_large_prime_case(i, large_fibers, rng, used) for i in range(large_models)]
    cases += _refusals(rng)
    return cases
