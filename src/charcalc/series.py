"""Exact truncated polynomial algebra in formal degree-1 symbols.

A :class:`GradedSeries` is a finite sum of monomials in the symbols
``a1, ..., an`` with `fractions.Fraction` coefficients, truncated above a
fixed total degree ``D``.  Every operation is exact; there is no floating
point anywhere.  Two series are equal exactly when their canonical term
maps agree, so identity checks reduce to dictionary equality.

The truncation degree is part of the value, not ambient state: combining
series with different symbol counts or truncation degrees raises
:class:`MismatchError` instead of coercing silently.

A series of one line (``e^l``, ``l/(1-e^{-l})``, ``(1+l)^m``) is a
univariate power series, from :func:`power_coefficients`, evaluated at the
linear form ``l`` by :meth:`GradedSeries.substitute`.

``GradedSeries`` and :class:`~charcalc.lambda_ring.KElement` are both term
maps, keyed by exponent tuples, and share their ring operations, comparison
and rendering through :class:`_TermMap`.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import factorial
from numbers import Rational

Monomial = tuple[int, ...]


class MismatchError(ValueError):
    """Operands live in different ambients (symbol count or truncation degree)."""


def _coefficient(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floating-point coefficients are not allowed; use Fraction")
    if not isinstance(value, Rational) or isinstance(value, bool):
        raise TypeError(f"coefficient must be an integer or Fraction, got {value!r}")
    return Fraction(value)


def power_coefficients(f, m: int, degree: int) -> list[Fraction]:
    """Coefficients of f(t)^m up to t^degree, for f[0] = 1 and any integer m.

    Uses J. C. P. Miller's recurrence, which follows from t g' f = m t f' g
    for g = f^m:  g_0 = 1 and  g_k = (1/k) sum_{j=1..k} ((m+1)j - k) f_j g_{k-j}.
    Missing coefficients of f are zero, so ``[1, 1]`` is 1 + t.
    """
    f = [_coefficient(c) for c in f]
    if not f or f[0] != 1:
        raise ValueError("power_coefficients needs f[0] = 1")
    g = [Fraction(1)]
    for k in range(1, degree + 1):
        js = range(1, min(k, len(f) - 1) + 1)
        g.append(sum(((m + 1) * j - k) * f[j] * g[k - j] for j in js) / Fraction(k))
    return g


def render_sum(texts) -> str:
    """Join signed term texts as ``a + b - c``; ``0`` when there are none."""
    out = ""
    for text in texts:
        if not out:
            out = text
        elif text.startswith("-"):
            out += f" - {text[1:]}"
        else:
            out += f" + {text}"
    return out or "0"


def _product(xs: dict, ys: dict, bound: int | None) -> dict:
    """Term map of the product of two term maps: exponents add.  With a
    ``bound``, terms of total degree above it are never formed: ``ys`` is
    grouped by degree, and a group that would overshoot is skipped."""
    if bound is None:
        by_degree = {0: ys.items()}  # one group of degree 0, which fits in room 0
    else:
        by_degree = defaultdict(list)
        for mono, coeff in ys.items():
            by_degree[sum(mono)].append((mono, coeff))
    product: dict[Monomial, Fraction] = {}
    for mono_x, coeff_x in xs.items():
        room = 0 if bound is None else bound - sum(mono_x)
        for degree_y, bucket in by_degree.items():
            if degree_y > room:
                continue
            for mono_y, coeff_y in bucket:
                key = tuple(a + b for a, b in zip(mono_x, mono_y))
                value = product.get(key)
                product[key] = coeff_x * coeff_y if value is None else value + coeff_x * coeff_y
    return product


class _TermMap:
    """Immutable map from exponent tuples of length ``symbol_count`` to
    nonzero coefficients, multiplied by adding exponents.

    The ambient is the symbol count and the product bound ``_bound``: terms
    of total degree above it are dropped, and None means no bound.  Subclasses
    validate outside input in their public ``__init__`` and supply
    ``terms``, ``_scalar``, ``_render_key`` and ``_times``; every result of
    an operation is built by the trusted :meth:`_like`.
    """

    __slots__ = ("symbol_count", "_bound", "_terms")

    def __init__(self, symbol_count: int, bound: int | None, terms: dict):
        """Store an ambient and a term map that are already valid for it."""
        object.__setattr__(self, "symbol_count", symbol_count)
        object.__setattr__(self, "_bound", bound)
        object.__setattr__(self, "_terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, terms: dict):
        """Trusted constructor over this ambient: ``terms`` must already be
        valid for it.  Only zero coefficients are dropped; ``terms`` is not
        kept."""
        result = object.__new__(type(self))
        _TermMap.__init__(
            result, self.symbol_count, self._bound, {k: c for k, c in terms.items() if c}
        )
        return result

    @property
    def is_zero(self) -> bool:
        return not self._terms

    # -- ring operations ----------------------------------------------

    def _ambient(self) -> str:
        bound = "" if self._bound is None else f", D={self._bound}"
        return f"n={self.symbol_count}{bound}"

    def _check_compatible(self, other: "_TermMap"):
        if self.symbol_count != other.symbol_count or self._bound != other._bound:
            raise MismatchError(
                f"cannot combine {type(self).__name__}({self._ambient()}) with "
                f"{type(other).__name__}({other._ambient()})"
            )

    def _coerce(self, value):
        """``value`` as a term map of this class, a scalar as a constant term
        over this ambient, or None when it is neither."""
        if isinstance(value, type(self)):
            return value
        scalar = self._scalar(value)
        if scalar is None:
            return None
        return self._like({(0,) * self.symbol_count: scalar})

    # The reflected operators and subtraction go through ``self.__add__`` and
    # ``self.__mul__``, so wrapping those two on a subclass wraps every sum
    # and product.

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_compatible(other)
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            merged[key] = merged.get(key, 0) + coeff
        return self._like(merged)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return self._like({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            self._check_compatible(other)
            return self._like(_product(self._terms, other._terms, self._bound))
        scalar = self._scalar(other)
        if scalar is None:
            return NotImplemented
        return self._like({k: c * scalar for k, c in self._terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    # -- comparison / display -------------------------------------------

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.symbol_count == other.symbol_count
            and self._bound == other._bound
            and self._terms == other._terms
        )

    __hash__ = None

    def __str__(self):
        texts = []
        for key, coeff in self.terms():
            body = self._render_key(key)
            if not body:
                texts.append(str(coeff))
            elif coeff == 1:
                texts.append(body)
            elif coeff == -1:
                texts.append(f"-{body}")
            else:
                texts.append(f"{coeff}{self._times}{body}")
        return render_sum(texts)

    def __repr__(self):
        return f"{type(self).__name__}({self._ambient()}, {self})"


class GradedSeries(_TermMap):
    """Sparse polynomial in ``symbol_count`` symbols, truncated at total degree
    ``truncation_degree``.

    Terms are keyed by exponent tuples.  The constructor validates its
    input and canonicalizes: zero coefficients are dropped and monomials of
    total degree above the truncation bound are discarded (that is what
    truncation means for every arithmetic operation, so the constructor
    behaves the same way).  Results of operations on valid series are built
    by :meth:`_like`, which skips the validation.
    """

    __slots__ = ()
    _times = "*"

    def __init__(self, symbol_count: int, truncation_degree: int, terms=None):
        if symbol_count < 0:
            raise ValueError("symbol_count must be non-negative")
        if truncation_degree < 0:
            raise ValueError("truncation_degree must be non-negative")
        canonical: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != symbol_count:
                raise ValueError(
                    f"monomial {mono} has {len(mono)} exponents, expected {symbol_count}"
                )
            if any(not isinstance(e, int) or e < 0 for e in mono):
                raise ValueError(f"monomial {mono} has invalid exponents")
            if sum(mono) > truncation_degree:
                continue
            value = _coefficient(coeff)
            if value:
                canonical[mono] = value
        super().__init__(symbol_count, truncation_degree, canonical)

    @property
    def truncation_degree(self) -> int:
        return self._bound

    @staticmethod
    def _scalar(value):
        return Fraction(value) if isinstance(value, Rational) and type(value) is not bool else None

    # bench/tracer.py wraps only methods in a class's own namespace.
    __add__ = _TermMap.__add__
    __mul__ = _TermMap.__mul__

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, symbol_count: int, truncation_degree: int) -> "GradedSeries":
        return cls(symbol_count, truncation_degree, {})

    @classmethod
    def constant(cls, value, symbol_count: int, truncation_degree: int) -> "GradedSeries":
        mono = (0,) * symbol_count
        return cls(symbol_count, truncation_degree, {mono: value})

    @classmethod
    def one(cls, symbol_count: int, truncation_degree: int) -> "GradedSeries":
        return cls.constant(1, symbol_count, truncation_degree)

    @classmethod
    def symbol(cls, index: int, symbol_count: int, truncation_degree: int) -> "GradedSeries":
        """The degree-1 symbol ``a_{index+1}``."""
        if not 0 <= index < symbol_count:
            raise ValueError(f"symbol index {index} out of range for {symbol_count} symbols")
        return cls.linear_form([int(i == index) for i in range(symbol_count)], truncation_degree)

    @classmethod
    def linear_form(cls, coefficients, truncation_degree: int) -> "GradedSeries":
        """Sum c_i * a_i for an integer/rational coefficient vector."""
        coefficients = tuple(coefficients)
        n = len(coefficients)
        units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        return cls(n, truncation_degree, dict(zip(units, coefficients)))

    # -- inspection ---------------------------------------------------

    def terms(self):
        """Iterate (monomial, coefficient) pairs in a deterministic order."""
        return iter(sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0])))

    def coefficient(self, monomial) -> Fraction:
        return self._terms.get(tuple(monomial), Fraction(0))

    @property
    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.symbol_count, Fraction(0))

    def component(self, degree: int) -> "GradedSeries":
        """The homogeneous part of the given total degree."""
        if not 0 <= degree <= self._bound:
            raise ValueError(f"degree {degree} out of range [0, {self._bound}]")
        return self._like({m: c for m, c in self._terms.items() if sum(m) == degree})

    def truncate(self, truncation_degree: int) -> "GradedSeries":
        """Reduce the truncation degree, discarding higher terms (the public
        constructor discards them)."""
        if truncation_degree > self._bound:
            raise ValueError("cannot raise the truncation degree of a series")
        return GradedSeries(self.symbol_count, truncation_degree, self._terms)

    # -- univariate substitution ------------------------------------------

    def substitute(self, coefficients) -> "GradedSeries":
        """Sum c_k x^k for x = self, which must have zero constant term.

        Horner's rule: r = c_k + x * r from the top coefficient down.  The
        partial sum at c_k is later multiplied by x^k, so it is kept only up
        to degree D - k; coefficients past D contribute nothing.
        """
        if self.constant_term:
            raise ValueError("the series must have zero constant term")
        D = self.truncation_degree
        coeffs = [_coefficient(c) for c in coefficients][: D + 1]
        unit = (0,) * self.symbol_count
        acc: dict[Monomial, Fraction] = {}
        for k in range(len(coeffs) - 1, -1, -1):
            acc = _product(acc, self._terms, D - k)
            acc[unit] = acc.get(unit, 0) + coeffs[k]
        return self._like(acc)

    def invert(self) -> "GradedSeries":
        """Multiplicative inverse at the same truncation degree.

        Requires a nonzero constant term.  Writes x = c*(1 - N) with N of
        positive valuation; the inverse is (1/c) * sum N^k, which stops at
        k = D because N is nilpotent under truncation.
        """
        c = self.constant_term
        if not c:
            raise ValueError("series with zero constant term is not invertible")
        nil = 1 - self * (1 / c)
        return nil.substitute([1] * (self.truncation_degree + 1)) * (1 / c)

    def exp(self) -> "GradedSeries":
        """Exponential sum x^k / k!, defined for zero constant term."""
        D = self.truncation_degree
        return self.substitute([Fraction(1, factorial(k)) for k in range(D + 1)])

    # -- display --------------------------------------------------------

    def _render_key(self, mono: Monomial) -> str:
        parts = []
        for i, e in enumerate(mono):
            if e == 1:
                parts.append(f"a{i + 1}")
            elif e > 1:
                parts.append(f"a{i + 1}^{e}")
        return "*".join(parts)
