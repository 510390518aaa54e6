"""Formal virtual bundles split into line symbols, and the classes built
from them.

A :class:`KElement` is an integer group-ring combination of *lines*: each
line is labelled by its first Chern class, an integer lattice vector in the
ambient symbols ``a1..an`` (tensoring lines adds the vectors, so the group
ring multiplication adds roots).  On top of that live the exterior-power
generating series lambda_t and gamma_t (as :class:`TSeries`), and the maps
into :class:`~charcalc.series.GradedSeries`: Chern character, total Chern
class, and Todd class.

Everything is exact and immutable; all identities checked downstream are
dictionary equalities.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod

from .series import GradedSeries, MismatchError, Monomial, _TermMap, power_coefficients

Root = tuple[int, ...]


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
            root = tuple(root)
            if len(root) != symbol_count:
                raise ValueError(
                    f"root {root} has length {len(root)}, expected {symbol_count}"
                )
            if any(not isinstance(e, int) for e in root):
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
        n = len(roots[0])
        terms: dict[Root, int] = {}
        for r in roots:
            terms[r] = terms.get(r, 0) + 1
        return cls(n, terms)

    # -- inspection ---------------------------------------------------

    def terms(self):
        """Iterate (root, multiplicity) pairs in a deterministic order."""
        return iter(sorted(self._terms.items()))

    def multiplicity(self, root) -> int:
        return self._terms.get(tuple(root), 0)

    @property
    def rank(self) -> int:
        """The augmentation: sum of multiplicities."""
        return sum(self._terms.values())

    def dual(self) -> "KElement":
        """Negate every root; multiplicities are preserved."""
        return self._like({tuple(-e for e in r): m for r, m in self._terms.items()})

    def _render_key(self, root: Root) -> str:
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


class TSeries:
    """Polynomial in an auxiliary variable t with KElement coefficients,
    truncated at a fixed power of t."""

    __slots__ = ("symbol_count", "_coeffs")

    def __init__(self, coefficients):
        coeffs = list(coefficients)
        if not coeffs:
            raise ValueError("TSeries needs at least the t^0 coefficient")
        n = coeffs[0].symbol_count
        for c in coeffs:
            if not isinstance(c, KElement):
                raise TypeError("TSeries coefficients must be KElements")
            if c.symbol_count != n:
                raise MismatchError("TSeries coefficients over mixed symbol counts")
        object.__setattr__(self, "symbol_count", n)
        object.__setattr__(self, "_coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("TSeries is immutable")

    @classmethod
    def one(cls, symbol_count: int, t_max: int) -> "TSeries":
        unit = KElement.unit(symbol_count)
        zero = KElement.zero(symbol_count)
        return cls([unit] + [zero] * t_max)

    @property
    def t_max(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, power: int) -> KElement:
        if not 0 <= power <= self.t_max:
            raise ValueError(f"t-power {power} out of range [0, {self.t_max}]")
        return self._coeffs[power]

    def _check_compatible(self, other: "TSeries"):
        if self.symbol_count != other.symbol_count or self.t_max != other.t_max:
            raise MismatchError("TSeries ambients differ (symbol count or t truncation)")

    def __mul__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        self._check_compatible(other)
        zero = KElement.zero(self.symbol_count)
        out = [zero] * (self.t_max + 1)
        for i, ci in enumerate(self._coeffs):
            if ci.is_zero:
                continue
            for j in range(self.t_max + 1 - i):
                cj = other._coeffs[j]
                if cj.is_zero:
                    continue
                out[i + j] = out[i + j] + ci * cj
        return TSeries(out)

    def invert(self) -> "TSeries":
        """Inverse of a TSeries whose constant coefficient is the unit line."""
        unit = KElement.unit(self.symbol_count)
        if self._coeffs[0] != unit:
            raise ValueError("can only invert a TSeries with unit constant coefficient")
        out = [unit]
        for k in range(1, self.t_max + 1):
            acc = KElement.zero(self.symbol_count)
            for j in range(1, k + 1):
                acc = acc + self._coeffs[j] * out[k - j]
            out.append(-acc)
        return TSeries(out)

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    __hash__ = None

    def __repr__(self):
        inner = ", ".join(f"t^{k}: {c}" for k, c in enumerate(self._coeffs))
        return f"TSeries({inner})"


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
    n = x.symbol_count
    result = TSeries.one(n, t_max)
    for root, mult in x.terms():
        g = power_coefficients([1, 1], mult, t_max)
        factor = [x._like({tuple(k * e for e in root): int(c)}) for k, c in enumerate(g)]
        result = result * TSeries(factor)
    return result


def gamma_t(x: KElement, t_max: int) -> TSeries:
    """Substitute s = t/(1-t) into lambda_s(x) and re-truncate at t^t_max.

    Uses s^k = sum_{j >= k} C(j-1, k-1) t^j, so each gamma coefficient is an
    integer combination of lambda coefficients.
    """
    lam = lambda_t(x, t_max)
    n = x.symbol_count
    out = [KElement.unit(n)]
    for j in range(1, t_max + 1):
        acc = KElement.zero(n)
        for k in range(1, j + 1):
            acc = acc + lam.coefficient(k) * comb(j - 1, k - 1)
        out.append(acc)
    return TSeries(out)


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
    lam = lambda_t(x, d)
    acc = KElement.zero(x.symbol_count)
    for i in range(d + 1):
        term = lam.coefficient(i)
        acc = acc + (-term if i % 2 else term)
    return acc


# -- characteristic classes -------------------------------------------------


def ch(x: KElement, truncation_degree: int) -> GradedSeries:
    """Chern character: additive, with ch([r]) = exp(c1(r)).

    ch = sum_k psi^k / k! over Adams operations, so the coefficient of a^e is
    S(e) / prod e_i! with S(e) = sum m prod r_i^e_i over the lines m[r] of x:
    an integer, summed over each root's support and divided once if nonzero.
    """
    D, n = truncation_degree, x.symbol_count
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
    return GradedSeries.zero(n, D)._like(terms)


def total_chern(x: KElement, truncation_degree: int) -> GradedSeries:
    """Total Chern class: product of (1 + c1(r))^mult over the lines of x."""
    acc = GradedSeries.one(x.symbol_count, truncation_degree)
    for root, mult in x.terms():
        g = power_coefficients([1, 1], mult, truncation_degree)
        acc = acc * GradedSeries.linear_form(root, truncation_degree).substitute(g)
    return acc


def chern_k(x: KElement, k: int, truncation_degree: int | None = None) -> GradedSeries:
    """The degree-k Chern class, as a homogeneous series."""
    D = k if truncation_degree is None else truncation_degree
    if D < k:
        raise ValueError("truncation degree must be at least k")
    return total_chern(x, D).component(k)


def todd(x: KElement, truncation_degree: int) -> GradedSeries:
    """Todd class: multiplicative, with line value l / (1 - e^{-l}).

    That value is f(l)^(-1) for f(l) = (1 - e^{-l}) / l
    = sum_k (-l)^k / (k+1)!, so m lines of root r contribute f(l)^(-m).
    """
    D = truncation_degree
    f = [Fraction((-1) ** k, factorial(k + 1)) for k in range(D + 1)]
    acc = GradedSeries.one(x.symbol_count, D)
    for root, mult in x.terms():
        g = power_coefficients(f, -mult, D)
        acc = acc * GradedSeries.linear_form(root, D).substitute(g)
    return acc
