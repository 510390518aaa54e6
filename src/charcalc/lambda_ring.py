"""Formal virtual bundles split into line symbols, and the classes built
from them.

A :class:`KElement` is an integer group-ring combination of *lines*: each
line is labelled by its first Chern class, an integer lattice vector in the
ambient symbols ``a1..an`` (tensoring lines adds the vectors, so the group
ring multiplication adds roots).  On top of that live the exterior-power
generating series lambda_t and gamma_t (as :class:`TSeries`), and the maps
into :class:`~charcalc.series.GradedSeries`: Chern character, total Chern
class, and Todd class; the last two are exp of the first with its degree-k
part weighted by k! (log f)_k, for f the line value (Hirzebruch), all on
integer numerators with the weights computed once per degree.  For elements
invariant under permuting the symbols, :func:`symmetric_ch` gives the Chern
character times a multiplicative class of the generic lines in one sum, one
coefficient per S_n-orbit.

``KElement`` and ``TSeries`` are term maps like ``GradedSeries``
(:class:`~charcalc.series._TermMap`).  A ``TSeries`` is the group ring with
one more grading: its keys are ``(t-power, *root)`` and its products drop
t-powers above ``t_max``, so ``lambda_t`` and ``gamma_t`` build their term
maps directly and :meth:`TSeries.invert` is the shared substitution.

Everything is exact and immutable; all identities checked downstream are
dictionary equalities.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from operator import itemgetter

from .series import (
    GradedSeries,
    MismatchError,
    Monomial,
    SymmetricSeries,
    _numerators,
    _TermMap,
    dominant_exponents,
    power_coefficients,
)

Root = tuple[int, ...]


def _root(root, symbol_count: int) -> Root:
    """``root`` as a tuple, refused when it has not ``symbol_count`` entries."""
    root = tuple(root)
    if len(root) != symbol_count:
        raise ValueError(f"root {root} has length {len(root)}, expected {symbol_count}")
    return root


class KElement(_TermMap):
    """Finite integer combination of lines, keyed by their root vectors.

    The zero vector is the trivial line (the multiplicative unit).  The
    rank is the sum of multiplicities and may be negative for virtual
    elements.  The constructor validates its input; results of operations
    are built by :meth:`_like`, which skips the validation.
    """

    __slots__ = ()
    _times = ""

    def __init__(self, symbol_count: int, terms=None):
        if symbol_count < 0:
            raise ValueError("symbol_count must be non-negative")
        canonical: dict[Root, int] = {}
        for root, mult in (terms or {}).items():
            root = _root(root, symbol_count)
            if any(not isinstance(e, int) or isinstance(e, bool) for e in root):
                raise ValueError(f"root {root} must have integer entries")
            if not isinstance(mult, int) or isinstance(mult, bool):
                raise TypeError(f"multiplicity must be an integer, got {mult!r}")
            if mult:
                canonical[root] = mult
        super().__init__(symbol_count, None, canonical)

    @staticmethod
    def _scalar(value):
        return value if isinstance(value, int) and not isinstance(value, bool) else None

    # bench/tracer.py wraps only methods in a class's own namespace.
    __mul__ = _TermMap.__mul__

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, symbol_count: int) -> "KElement":
        return cls(symbol_count, {})

    @classmethod
    def unit(cls, symbol_count: int) -> "KElement":
        """The trivial line [0]."""
        return cls(symbol_count, {(0,) * symbol_count: 1})

    @classmethod
    def line(cls, root) -> "KElement":
        root = tuple(root)
        return cls(len(root), {root: 1})

    @classmethod
    def sum_of_lines(cls, roots) -> "KElement":
        roots = [tuple(r) for r in roots]
        if not roots:
            raise ValueError("sum_of_lines needs at least one root")
        return cls(len(roots[0]), Counter(roots))

    # -- inspection ---------------------------------------------------

    def multiplicity(self, root) -> int:
        return self._terms.get(_root(root, self.symbol_count), 0)

    @property
    def rank(self) -> int:
        """The augmentation: sum of multiplicities."""
        return sum(self._terms.values())

    def dual(self) -> "KElement":
        """Negate every root; multiplicities are preserved."""
        return self._like({tuple(-e for e in r): m for r, m in self._terms.items()})

    @staticmethod
    def _render_key(root: Root) -> str:
        if not any(root):
            return "[0]"
        parts = []
        for i, e in enumerate(root):
            if e == 1:
                parts.append(f"+a{i + 1}")
            elif e == -1:
                parts.append(f"-a{i + 1}")
            elif e:
                parts.append(f"{e:+d}a{i + 1}")
        return f"[{''.join(parts).removeprefix('+')}]"


class TSeries(_TermMap):
    """Polynomial in an auxiliary variable t with KElement coefficients,
    truncated at a fixed power of t.

    The term c t^k [r] is keyed by ``(k, *r)``; its degree is k, and
    products drop degrees above ``t_max``.
    """

    __slots__ = ()
    _times = ""
    _lead = 1
    _degree = itemgetter(0)
    _scalar = staticmethod(KElement._scalar)

    def __init__(self, coefficients):
        coeffs = list(coefficients)
        if not coeffs:
            raise ValueError("TSeries needs at least the t^0 coefficient")
        if not all(isinstance(c, KElement) for c in coeffs):
            raise TypeError("TSeries coefficients must be KElements")
        n = coeffs[0].symbol_count
        if any(c.symbol_count != n for c in coeffs):
            raise MismatchError("TSeries coefficients over mixed symbol counts")
        terms = {(k, *root): m for k, c in enumerate(coeffs) for root, m in c._terms.items()}
        super().__init__(n, len(coeffs) - 1, terms)

    @classmethod
    def one(cls, symbol_count: int, t_max: int) -> "TSeries":
        return cls([KElement.unit(symbol_count)] + [KElement.zero(symbol_count)] * t_max)

    @property
    def t_max(self) -> int:
        return self._bound

    def coefficient(self, power: int) -> KElement:
        if not 0 <= power <= self.t_max:
            raise ValueError(f"t-power {power} out of range [0, {self.t_max}]")
        terms = {key[1:]: m for key, m in self._terms.items() if key[0] == power}
        return KElement.zero(self.symbol_count)._like(terms)

    # bench/tracer.py wraps only methods in a class's own namespace.
    __mul__ = _TermMap.__mul__

    def invert(self) -> "TSeries":
        """Inverse of a TSeries whose constant coefficient is the unit line:
        for x = 1 - N, the sum of N^k, which stops at k = t_max."""
        if self.coefficient(0) != KElement.unit(self.symbol_count):
            raise ValueError("can only invert a TSeries with unit constant coefficient")
        return (1 - self).substitute([1] * (self.t_max + 1))

    @staticmethod
    def _render_key(key) -> str:
        power = "" if not key[0] else "t" if key[0] == 1 else f"t^{key[0]}"
        return power + KElement._render_key(key[1:])


# -- lambda and gamma operations ------------------------------------------


def lambda_t(x: KElement, t_max: int) -> TSeries:
    """Exterior-power generating series, truncated at t^t_max.

    A single line [r] has lambda_t = 1 + t[r], so m[r] has
    (1 + t[r])^m = sum_k g_k [k r] t^k with g_k the coefficients of
    (1 + t)^m (generalized binomials when m < 0); sums extend
    multiplicatively.
    """
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    result = TSeries.one(x.symbol_count, t_max)
    lines = {m: power_coefficients([1, 1], m, t_max) for m in set(x._terms.values())}
    for root, mult in x.terms():
        factor = {(k, *(k * e for e in root)): int(c) for k, c in enumerate(lines[mult])}
        result = result * result._like(factor)
    return result


def gamma_t(x: KElement, t_max: int) -> TSeries:
    """Substitute s = t/(1-t) into lambda_s(x) and re-truncate at t^t_max.

    Uses s^k = sum_{j >= k} C(j-1, k-1) t^j for k >= 1, so the lambda term
    m t^k [r] moves to every t^j [r] with j >= k, weighted by C(j-1, k-1).
    """
    lam = lambda_t(x, t_max)
    terms = {lam._unit: 1}  # gamma^0 = lambda^0 = [0]
    for (k, *root), mult in lam._terms.items():
        for j in range(k, t_max + 1) if k else ():
            key = (j, *root)
            terms[key] = terms.get(key, 0) + mult * comb(j - 1, k - 1)
    return lam._like(terms)


def lambda_k(x: KElement, k: int) -> KElement:
    """The k-th exterior power coefficient of lambda_t(x)."""
    return lambda_t(x, k).coefficient(k)


def gamma_k(x: KElement, k: int) -> KElement:
    """The k-th gamma operation, read off gamma_t(x)."""
    return gamma_t(x, k).coefficient(k)


def alternating_lambda_sum(x: KElement) -> KElement:
    """Sum of (-1)^i lambda^i(x) for i = 0..rank(x)."""
    d = x.rank
    if d < 0:
        raise ValueError(f"alternating lambda sum needs non-negative rank, got {d}")
    terms: dict[Root, int] = {}
    for (k, *root), mult in lambda_t(x, d)._terms.items():
        root = tuple(root)
        terms[root] = terms.get(root, 0) + (-1) ** k * mult
    return x._like(terms)


# -- characteristic classes -------------------------------------------------


def ch(x: KElement, truncation_degree: int) -> GradedSeries:
    """Chern character: additive, with ch([r]) = exp(c1(r)).

    ch = sum_k psi^k / k! over Adams operations, so the coefficient of a^e is
    S(e) / prod e_i! with S(e) = sum m prod r_i^e_i over the lines m[r] of x:
    an integer, summed over each root's support and divided once if nonzero.
    """
    D, n = truncation_degree, x.symbol_count
    zero = GradedSeries.zero(n, D)  # refuses a negative D before the sums index by it
    sums: dict[Monomial, int] = {}
    for root, mult in x._terms.items():
        support = [i for i, c in enumerate(root) if c]
        # (exponents of a_1 .. a_done, mult * prod r_i^e_i, degree left)
        level, done = [((0,) * n if not support else (), mult, D)], 0
        for i in support:
            end = n if i == support[-1] else i + 1
            pieces = [(0,) * (i - done) + (k,) + (0,) * (end - i - 1) for k in range(D + 1)]
            powers = [root[i] ** k for k in range(D + 1)]
            level = [(head + pieces[k], value * powers[k], room - k)
                     for head, value, room in level for k in range(room + 1)]
            done = end
        for key, value, _ in level:
            sums[key] = sums.get(key, 0) + value
    factorials = [factorial(k) for k in range(D + 1)]
    terms = {key: Fraction(s, prod(factorials[e] for e in key)) for key, s in sums.items() if s}
    return zero._like(terms)


@lru_cache(maxsize=64)
def _log_weights(line: tuple, D: int) -> tuple[tuple[int, ...], int]:
    """Integer numerators of k! (log f)_k, k = 0..D, over one denominator, for
    f(l) = sum_k line[k] l^k: one substitution of the log(1 + u) coefficients."""
    u = GradedSeries(1, D, {(k,): c for k, c in enumerate(line) if k})
    log = u.substitute([0] + [Fraction((-1) ** (k + 1), k) for k in range(1, D + 1)])
    weights, w = _numerators({k: factorial(k) * log.coefficient((k,)) for k in range(D + 1)})
    return tuple(weights.values()), w


def _multiplicative(chern_character: GradedSeries, line: tuple) -> GradedSeries:
    """exp of ch(x) with degree-k terms weighted by k! (log f)_k: the class of x
    whose value on a line l is f(l) = sum_k line[k] l^k, line[0] = 1, on integer numerators."""
    D = chern_character.truncation_degree
    weights, w = _log_weights(line, D)
    X, d = _numerators(chern_character._terms)
    weighted = {e: c * weights[k] for e, c in X.items() if weights[k := sum(e)]}
    exp = {k: Fraction(1, factorial(k)) for k in range(D + 1)}
    return chern_character._horner(weighted, d * w, exp)


def total_chern(x: KElement, truncation_degree: int) -> GradedSeries:
    """Total Chern class: product of (1 + c1(r))^mult over the lines of x."""
    return _multiplicative(ch(x, truncation_degree), (1, 1))


def chern_k(x: KElement, k: int, truncation_degree: int | None = None) -> GradedSeries:
    """The degree-k Chern class, as a homogeneous series."""
    D = k if truncation_degree is None else truncation_degree
    if D < k:
        raise ValueError("truncation degree must be at least k")
    return total_chern(x, D).component(k)


def todd_line(mult: int, truncation_degree: int) -> list[Fraction]:
    """Coefficients of (l / (1 - e^{-l}))^mult up to l^truncation_degree: the
    Todd class of mult copies of a line l.

    The line value is f(l)^(-1) for f(l) = (1 - e^{-l}) / l
    = sum_k (-l)^k / (k+1)!, so mult lines contribute f(l)^(-mult).
    """
    if truncation_degree < 0:
        raise ValueError("truncation_degree must be non-negative")
    f = [Fraction((-1) ** k, factorial(k + 1)) for k in range(truncation_degree + 1)]
    return power_coefficients(f, -mult, truncation_degree)


@lru_cache(maxsize=64)
def _todd_line(mult: int, D: int) -> tuple[Fraction, ...]:
    return tuple(todd_line(mult, D))


def todd(x: KElement, truncation_degree: int) -> GradedSeries:
    """Todd class: multiplicative, with line value l / (1 - e^{-l})."""
    return _multiplicative(ch(x, truncation_degree), _todd_line(1, truncation_degree))


# -- classes of symmetric elements, one coefficient per S_n-orbit -------------


def symmetric_ch(x: KElement, truncation_degree: int, line=(1,)) -> SymmetricSeries:
    """ch(x) times the class of the n generic lines a1 + ... + an with value
    f(l) = sum_k line[k] l^k on one line l, line[0] = 1, for an x invariant
    under permuting the symbols, as a :class:`~charcalc.series.SymmetricSeries`.

    A line m[r] of x gives m prod_i g_{r_i}(a_i), g_r(l) = e^{rl} f(l) (Hirzebruch,
    *Topological Methods*, section 1), and g_r[0] = 1.  So with b! line[b] = Q_b / q
    and j! g_r[j] = H_r[j] / q, H_r[j] = sum_a C(j, a) r^a Q_{j-a}, the coefficient
    at a dominant e with k nonzero entries is sum m prod_{i<=k} H_{r_i}[e_i] /
    (q^k prod e_i!), summed once per k-entry root prefix; for f = 1 only the
    prefixes with no zero entry add.  An x that some adjacent transposition of
    the symbols changes is refused with ValueError.
    """
    D, n, lines = truncation_degree, x.symbol_count, x._terms
    zero = SymmetricSeries(n, D)  # refuses a negative D before the sums index by it
    f = power_coefficients(line, 1, D)  # line, zero-padded to degree D; refuses line[0] != 1
    Q, q = _numerators({b: factorial(b) * c for b, c in enumerate(f)})
    trivial = not any(f[1:])
    prefixes: list[dict[Root, int]] = [{} for _ in range(min(n, D) + 1)]
    for root, mult in lines.items():
        for i in range(n - 1):
            if root[i] != root[i + 1]:
                swapped = root[:i] + (root[i + 1], root[i]) + root[i + 2:]
                if lines.get(swapped, 0) != mult:
                    raise ValueError(
                        f"not invariant under permuting the symbols: {KElement._render_key(root)} "
                        f"has multiplicity {mult}, {KElement._render_key(swapped)} has "
                        f"{lines.get(swapped, 0)}"
                    )
        for k, sums in enumerate(prefixes):
            if k and trivial and not root[k - 1]:
                break
            sums[root[:k]] = sums.get(root[:k], 0) + mult
    H = {r: [sum(comb(j, a) * r**a * Q[j - a] for a in range(j + 1)) for j in range(D + 1)]
         for r in {r for sums in prefixes for head in sums for r in head}}
    factorials = [factorial(k) for k in range(D + 1)]
    terms = {}
    for e in dominant_exponents(n, D):
        k = n - e.count(0)
        s = sum(m * prod(H[r][a] for r, a in zip(head, e)) for head, m in prefixes[k].items())
        if s:
            terms[e] = Fraction(s, q**k * prod(factorials[a] for a in e))
    return zero._like(terms)
