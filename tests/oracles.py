"""Independent expansion oracles for the test suite.

Everything here is deliberately written from scratch on plain dictionaries
and Fraction lists, with no imports from the package under test, so that
expected values are produced by a second, unrelated computational route.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, lcm, prod

# -- univariate exact series ------------------------------------------------


def exp_coefficients(degree: int) -> list[Fraction]:
    """Power-series coefficients of e^a up to the given degree."""
    return [Fraction(1, factorial(k)) for k in range(degree + 1)]


def todd_line_coefficients(degree: int) -> list[Fraction]:
    """Coefficients of a / (1 - e^{-a}) by degree-by-degree division.

    Solves q(a) * (1 - e^{-a}) = a for q one coefficient at a time.  The
    divisor has coefficients b_k = -(-1)^k / k! for k >= 1 (and b_0 = 0,
    b_1 = 1), so matching the coefficient of a^{m+1} determines q_m from
    the earlier q_i.
    """
    b = [Fraction(0)] + [
        -Fraction((-1) ** k, factorial(k)) for k in range(1, degree + 2)
    ]
    n = [Fraction(0), Fraction(1)] + [Fraction(0)] * degree
    q: list[Fraction] = []
    for m in range(degree + 1):
        acc = n[m + 1]
        for i in range(m):
            acc -= q[i] * b[m + 1 - i]
        q.append(acc / b[1])
    return q


def todd_log_weights(degree: int) -> list[Fraction]:
    """k! (log f)_k for the Todd line f = a / (1 - e^{-a}): 0, then -B_k/k, as
    (log f)' = 1/a - 1/(e^a - 1), with the Bernoulli numbers B_k = (-1)^k k! q_k
    read off the division of :func:`todd_line_coefficients`."""
    q = todd_line_coefficients(degree)
    return [Fraction(0)] + [-(-1) ** k * factorial(k) * q[k] / k for k in range(1, degree + 1)]


def chern_log_weights(degree: int) -> list[Fraction]:
    """k! (log f)_k for f = 1 + a: 0, then (-1)^(k+1) (k-1)!, from
    log(1 + a) = sum (-1)^(k+1) a^k / k."""
    return [Fraction(0)] + [Fraction((-1) ** (k + 1) * factorial(k - 1))
                            for k in range(1, degree + 1)]


# -- tiny group ring over integer root vectors ------------------------------


def gr_unit(n: int) -> dict:
    return {(0,) * n: 1}


def gr_line(root) -> dict:
    return {tuple(root): 1}


def gr_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for r, m in y.items():
        out[r] = out.get(r, 0) + m
        if not out[r]:
            del out[r]
    return out


def gr_scale(x: dict, c: int) -> dict:
    return {r: c * m for r, m in x.items() if c * m}


def gr_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for r1, m1 in x.items():
        for r2, m2 in y.items():
            key = tuple(a + b for a, b in zip(r1, r2))
            out[key] = out.get(key, 0) + m1 * m2
            if not out[key]:
                del out[key]
    return out


def alternating_product(lines) -> dict:
    """Product over the given roots of ([0] - [root]).

    For an effective sum of lines this equals both sides of the rank-d
    gamma identity, expanded directly with no series machinery.
    """
    lines = [tuple(r) for r in lines]
    n = len(lines[0])
    acc = gr_unit(n)
    for root in lines:
        acc = gr_mul(acc, gr_add(gr_unit(n), gr_scale(gr_line(root), -1)))
    return acc


# -- exterior powers of a sum of lines, one line factor at a time -------------


def t_mul(x: dict, y: dict, t_max: int) -> dict:
    """Product of two {(t-power, *root): int} maps, keeping t-powers up to t_max."""
    out: dict = {}
    for (i, *r1), c1 in x.items():
        for (j, *r2), c2 in y.items():
            if i + j <= t_max:
                key = (i + j, *(a + b for a, b in zip(r1, r2)))
                out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def powers_of_one_plus_t(m: int, t_max: int) -> list[int]:
    """(1 + t)^m up to t^t_max: |m| factors 1 + t, or for m < 0 the geometric
    series 1 - t + t^2 - ..., multiplied out as truncated lists."""
    base = [1, 1] if m >= 0 else [(-1) ** k for k in range(t_max + 1)]
    out = [1] + [0] * t_max
    for _ in range(abs(m)):
        out = [sum(out[i] * base[k - i] for i in range(k + 1) if k - i < len(base))
               for k in range(t_max + 1)]
    return out


def lambda_series(lines: dict, n: int, t_max: int) -> dict:
    """lambda_t of the lines {root: multiplicity} over n symbols as
    {(t-power, *root): int}: the product of the factors (1 + t[r])^m, the
    factor's t^k term being [k r] times the t^k coefficient of (1 + t)^m."""
    acc = {(0,) * (n + 1): 1}
    for root, m in lines.items():
        factor = {(k, *(k * e for e in root)): g
                  for k, g in enumerate(powers_of_one_plus_t(m, t_max)) if g}
        acc = t_mul(acc, factor, t_max)
    return acc


def gamma_series(lines: dict, n: int, t_max: int) -> dict:
    """gamma_t = lambda_s at s = t / (1 - t): each term c s^k [r] with s^k
    multiplied out from s = t + t^2 + ... up to t^t_max."""
    s = [0] + [1] * t_max
    powers = [[1] + [0] * t_max]
    for _ in range(t_max):
        last = powers[-1]
        powers.append([sum(last[i] * s[k - i] for i in range(k + 1)) for k in range(t_max + 1)])
    out: dict = {}
    for (k, *root), c in lambda_series(lines, n, t_max).items():
        for j, p in enumerate(powers[k]):
            if p:
                out[(j, *root)] = out.get((j, *root), 0) + c * p
    return {key: c for key, c in out.items() if c}


def t_coefficient(series: dict, power: int) -> dict:
    """The t^power coefficient of a {(t-power, *root): int} map, by root."""
    return {tuple(root): c for (k, *root), c in series.items() if k == power}


# -- classes of symmetric elements, one root prefix at a time -----------------


def dominant_tuples(n: int, degree: int, largest: int | None = None) -> list[tuple]:
    """Every non-increasing n-tuple of non-negative integers with sum at most
    ``degree`` and entries at most ``largest``: one exponent tuple per S_n-orbit
    of monomials."""
    if n == 0:
        return [()]
    largest = degree if largest is None else min(largest, degree)
    return [(a, *rest) for a in range(largest + 1)
            for rest in dominant_tuples(n - 1, degree - a, a)]


def prefix_sum_ch(lines: dict, n: int, degree: int, line) -> dict:
    """ch(x) times the class of the n generic lines with value f(l) = sum_k
    line[k] l^k on one line, for a symmetric x = {root: multiplicity}, as
    {dominant exponent tuple: Fraction}.

    A line m[r] gives m prod_i g_{r_i}(a_i), g_r(l) = e^{rl} f(l), so the
    coefficient at a dominant e with k nonzero entries sums, over the distinct
    k-entry prefixes h of the roots, the multiplicity of the roots starting
    with h times prod_{i<=k} g_{h_i}[e_i]: one term per prefix and orbit.  The
    g_r[j] j! are kept as integers over a common denominator L of f.
    """
    f = [Fraction(c) for c in line][: degree + 1]
    f += [Fraction(0)] * (degree + 1 - len(f))
    L = lcm(*(c.denominator for c in f))
    # G[r][j] = j! g_r[j] L = sum_a C(j, a) r^a (j - a)! f[j - a] L
    G = {
        r: [sum(comb(j, a) * r**a * int(factorial(j - a) * f[j - a] * L) for a in range(j + 1))
            for j in range(degree + 1)]
        for r in {r for root in lines for r in root}
    }
    prefixes = [{} for _ in range(min(n, degree) + 1)]
    for root, mult in lines.items():
        for k, sums in enumerate(prefixes):
            sums[root[:k]] = sums.get(root[:k], 0) + mult
    out = {}
    for e in dominant_tuples(n, degree):
        k = sum(1 for a in e if a)
        total = sum(m * prod(G[r][a] for r, a in zip(h, e)) for h, m in prefixes[k].items())
        if total:
            out[e] = Fraction(total, L**k * prod(factorial(a) for a in e))
    return out


def ch_gamma_rhs(n: int, degree: int) -> dict:
    """The right side of ch(gamma^{n-1}(x - n[0])) = sum_i prod_{j != i} (e^{a_j} - 1)
    for x a sum of n generic lines, as {dominant exponent tuple: Fraction}: the term i
    is the monomials with only a_i absent, so the coefficient is 1 / prod e_j! at each
    dominant e with exactly one zero entry, found by filtering every orbit."""
    return {e: Fraction(1, prod(factorial(a) for a in e))
            for e in dominant_tuples(n, degree) if e.count(0) == 1}


# -- strata inclusion-exclusion ---------------------------------------------


def open_chi_via_unions(chi_closed: dict, J: frozenset) -> int:
    """chi_c of the open stratum, via chi(T_J) - chi(union of covers).

    The deeper part of T_J is the union of the T_{J + {x}}; its Euler
    characteristic is expanded by union inclusion-exclusion, using
    T_A intersect T_B = T_{A union B} and treating undeclared subsets as
    empty.  This is a different route from the subset-lattice Moebius sum.
    """
    covers = [K for K in chi_closed if len(K) == len(J) + 1 and J < K]
    union_chi = 0
    for r in range(1, len(covers) + 1):
        for combo in combinations(covers, r):
            merged = frozenset().union(*combo)
            chi = chi_closed.get(merged, 0)
            union_chi += chi if r % 2 else -chi
    return chi_closed[J] - union_chi


def random_strata_lattice(rng: random.Random, max_components: int = 4):
    """A random subset-closed strata family with Euler characteristics.

    Returns (component ids, {frozenset: chi_closed}).  Singletons are always
    present and the family is closed under non-empty subsets, which is what
    geometry forces on non-empty intersections.
    """
    count = rng.randint(1, max_components)
    ids = [f"C{i + 1}" for i in range(count)]
    family = {frozenset({cid}) for cid in ids}
    pool = [
        frozenset(combo)
        for size in range(2, count + 1)
        for combo in combinations(ids, size)
    ]
    rng.shuffle(pool)
    for J in pool[: rng.randint(0, len(pool))]:
        family.add(J)
    changed = True
    while changed:
        changed = False
        for J in list(family):
            for cid in J:
                sub = J - {cid}
                if sub and sub not in family:
                    family.add(sub)
                    changed = True
    # sorted, so that one seed gives one lattice whatever the hash seed
    return ids, {J: rng.randint(-5, 5) for J in sorted(family, key=sorted)}


def blow_up(mults: dict, closed: dict, J: frozenset, d: int) -> tuple[dict, dict]:
    """A fiber of relative dimension d after blowing up a point P of its open
    stratum T*_J, for 1 <= |J| <= d + 1, as (multiplicities, closed chi).

    The exceptional divisor E is a P^d, with chi(E) = d + 1 and multiplicity
    sum_{i in J} m_i.  For each nonempty I within J, P on the smooth
    (d + 1 - |I|)-fold T_I becomes a P^(d - |I|), so chi(T_I) gains d - |I|,
    and E meets T_I in that P^(d - |I|): a new stratum with chi = d - |I| + 1
    when that is positive.  Every other stratum stays as it is.
    """
    E = f"E{len(mults)}"
    mults = {**mults, E: sum(mults[i] for i in J)}
    closed = {**closed, frozenset({E}): d + 1}
    for size in range(1, len(J) + 1):
        for I in map(frozenset, combinations(sorted(J), size)):
            closed[I] += d - size
            if d - size + 1 > 0:
                closed[I | {E}] = d - size + 1
    return mults, closed
