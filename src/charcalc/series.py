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

A :class:`SymmetricSeries` is a series invariant under permuting the
symbols, kept as one coefficient per S_n-orbit of monomials; it differs from
``GradedSeries`` in having no product (:func:`~charcalc.lambda_ring.symmetric_ch`).

``GradedSeries``, ``SymmetricSeries``, :class:`~charcalc.lambda_ring.KElement`
and :class:`~charcalc.lambda_ring.TSeries` are all term maps, keyed by exponent
tuples, and share their ring operations, comparison, rendering and
:meth:`_TermMap.substitute` through :class:`_TermMap`; :meth:`_TermMap._product`
multiplies two integer numerator maps, except on ``SymmetricSeries``.  The one
substitution also inverts both bounded maps, ``GradedSeries`` and ``TSeries``.

The shared product and substitution run on integers, as FLINT's ``fmpq_poly``
does: integer numerators over one common denominator per operand, one division
per result term, and ``int`` coefficients (``KElement``, ``TSeries``) as they are;
the one Horner loop, :meth:`_TermMap._horner`, takes such a numerator map.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import reduce
from math import factorial, lcm
from numbers import Rational
from operator import add

Monomial = tuple[int, ...]


class MismatchError(ValueError):
    """Operands live in different ambients (symbol count or truncation degree)."""


def _coefficient(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floating-point coefficients are not allowed; use Fraction")
    if not isinstance(value, Rational) or isinstance(value, bool):
        raise TypeError(f"coefficient must be an integer or Fraction, got {value!r}")
    return Fraction(value)


def _numerators(terms: dict) -> tuple[dict, int]:
    """Integer numerators of ``terms`` over the lcm of its denominators; an ``int`` map as is."""
    if all(isinstance(c, int) for c in terms.values()):
        return terms, 1
    d = reduce(lcm, (c.denominator for c in terms.values()), 1)
    return {key: c.numerator * (d // c.denominator) for key, c in terms.items()}, d


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


def dominant_exponents(symbol_count: int, degree: int):
    """Every non-increasing exponent tuple of ``symbol_count`` entries and
    total degree at most ``degree``: one key per S_n-orbit of monomials."""

    def extend(head, top, room, left):
        if not left:
            yield head
            return
        for k in range(min(top, room) + 1):
            yield from extend(head + (k,), k, room - k, left - 1)

    return extend((), degree, degree, symbol_count)


def _monomial(mono, symbol_count: int) -> Monomial:
    """``mono`` as a tuple, refused when it has not ``symbol_count`` exponents."""
    mono = tuple(mono)
    if len(mono) != symbol_count:
        raise ValueError(f"monomial {mono} has {len(mono)} exponents, expected {symbol_count}")
    return mono


def _monomial_terms(symbol_count: int, truncation_degree: int, terms, dominant=False) -> dict:
    """Validated term map of outside input: exponent tuples of the right
    length with non-negative ``int`` entries (non-increasing when
    ``dominant``) and exact coefficients.  Zero coefficients and terms above
    the truncation degree are dropped."""
    if symbol_count < 0:
        raise ValueError("symbol_count must be non-negative")
    if truncation_degree < 0:
        raise ValueError("truncation_degree must be non-negative")
    canonical: dict[Monomial, Fraction] = {}
    for mono, coeff in (terms or {}).items():
        mono = _monomial(mono, symbol_count)
        if any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in mono):
            raise ValueError(f"monomial {mono} has invalid exponents")
        if dominant and any(a < b for a, b in zip(mono, mono[1:])):
            raise ValueError(f"monomial {mono} is not dominant (non-increasing)")
        if sum(mono) > truncation_degree:
            continue
        value = _coefficient(coeff)
        if value:
            canonical[mono] = value
    return canonical


class _TermMap:
    """Immutable map from exponent tuples to nonzero coefficients, multiplied
    by adding exponents.  A key holds ``_lead`` leading exponents, then one
    exponent for each of the ``symbol_count`` symbols.

    The ambient is the symbol count and the product bound ``_bound``: terms
    whose ``_degree`` is above it are dropped, and None means no bound.
    Subclasses validate outside input in their public ``__init__`` and
    supply ``_scalar``, ``_render_key`` and ``_times``, and ``_degree`` when
    bounded; every result of an operation is built by the trusted
    :meth:`_like`, and every product of two numerator maps by :meth:`_product`.
    """

    __slots__ = ("symbol_count", "_bound", "_terms")
    _lead = 0
    _degree = None

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
    def _unit(self) -> tuple:
        """The key of the constant term."""
        return (0,) * (self._lead + self.symbol_count)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """Iterate (key, coefficient) pairs in a deterministic order: by
        degree first when the map is bounded, then by key."""
        if self._degree is None:
            return iter(sorted(self._terms.items()))
        degree = self._degree
        return iter(sorted(self._terms.items(), key=lambda kv: (degree(kv[0]), kv[0])))

    def component(self, degree: int):
        """The homogeneous part of the given degree."""
        if self._bound is None:
            raise TypeError(f"{type(self).__name__} has no degree bound to take components under")
        if not 0 <= degree <= self._bound:
            raise ValueError(f"degree {degree} out of range [0, {self._bound}]")
        degree_of = self._degree
        return self._like({k: c for k, c in self._terms.items() if degree_of(k) == degree})

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
        return self._like({self._unit: scalar})

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
            (xs, dx), (ys, dy) = _numerators(self._terms), _numerators(other._terms)
            product = self._product(xs, ys, self._bound)
            if xs is self._terms and ys is other._terms:
                return self._like(product)
            return self._like({key: Fraction(v, dx * dy) for key, v in product.items() if v})
        scalar = self._scalar(other)
        if scalar is None:
            return NotImplemented
        return self._like({k: c * scalar for k, c in self._terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def _product(self, xs: dict, ys: dict, bound: int | None) -> dict:
        """Integer numerators of the product of two numerator maps; zero sums
        may stay.  With a ``bound``, terms of degree above it are never formed:
        ``ys`` is grouped by degree, and a group that would overshoot is skipped."""
        degree = self._degree
        if bound is None:
            by_degree = {0: ys.items()}  # one group of degree 0, which fits in room 0
        else:
            by_degree = defaultdict(list)
            for mono, coeff in ys.items():
                by_degree[degree(mono)].append((mono, coeff))
        product: dict = {}
        for mono_x, coeff_x in xs.items():
            room = 0 if bound is None else bound - degree(mono_x)
            for degree_y, bucket in by_degree.items():
                if degree_y > room:
                    continue
                for mono_y, coeff_y in bucket:
                    key = tuple(map(add, mono_x, mono_y))
                    product[key] = product.get(key, 0) + coeff_x * coeff_y
        return product

    def substitute(self, coefficients):
        """Sum c_k x^k for x = self, a bounded map with no term of degree 0 (:meth:`_horner`)."""
        if self._bound is None:
            raise TypeError(f"{type(self).__name__} has no degree bound to substitute under")
        if any(self._degree(key) == 0 for key in self._terms):
            raise ValueError("the series must have zero constant term")
        coeffs = dict(enumerate(self._scalar(c) for c in coefficients))
        if None in coeffs.values():
            raise TypeError(f"{type(self).__name__} substitution needs scalar coefficients")
        return self._horner(*_numerators(self._terms), coeffs)

    def _horner(self, X: dict, d: int, coefficients: dict):
        """Sum c_k x^k for x = X/d, X integer numerators with no degree-0 term.

        Horner's rule, r = c_k + x * r from the top down, keeps the partial sum
        at c_k only up to degree D - k, as x^k raises it by at least k.  With
        c_k = C_k/q, the integer sums A_K = C_K, A_k = C_k d^(K-k) + X A_(k+1)
        give A_0 / (q d^K): one division per term, none for ``int`` c_k."""
        D, unit, K = self._bound, self._unit, min(len(coefficients), self._bound + 1) - 1
        C, q = _numerators(coefficients)
        acc: dict = {}
        for k in range(K, -1, -1):
            acc = self._product(acc, X, D - k)
            acc[unit] = acc.get(unit, 0) + C[k] * d ** (K - k)
        if C is coefficients:
            return self._like(acc)
        return self._like({key: Fraction(value, q * d**K) for key, value in acc.items() if value})

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
    _degree = sum

    def __init__(self, symbol_count: int, truncation_degree: int, terms=None):
        terms = _monomial_terms(symbol_count, truncation_degree, terms)
        super().__init__(symbol_count, truncation_degree, terms)

    @property
    def truncation_degree(self) -> int:
        return self._bound

    @staticmethod
    def _scalar(value):
        return Fraction(value) if isinstance(value, Rational) and type(value) is not bool else None

    # bench/tracer.py wraps only methods in a class's own namespace.
    __add__ = _TermMap.__add__
    __mul__ = _TermMap.__mul__
    component = _TermMap.component

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

    def coefficient(self, monomial) -> Fraction:
        return self._terms.get(_monomial(monomial, self.symbol_count), Fraction(0))

    @property
    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.symbol_count, Fraction(0))

    def truncate(self, truncation_degree: int) -> "GradedSeries":
        """Reduce the truncation degree, discarding higher terms (the public
        constructor discards them)."""
        if truncation_degree > self._bound:
            raise ValueError("cannot raise the truncation degree of a series")
        return GradedSeries(self.symbol_count, truncation_degree, self._terms)

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


class SymmetricSeries(_TermMap):
    """Series in ``symbol_count`` symbols that is invariant under permuting
    them, truncated at total degree ``truncation_degree``, stored as one
    coefficient per S_n-orbit of monomials.

    An orbit is keyed by its dominant (non-increasing) exponent tuple e, and
    every monomial of the orbit has the coefficient stored at e: the series
    is sum_e c_e m_e over the monomial symmetric functions m_e (Macdonald,
    *Symmetric Functions and Hall Polynomials*, I.2).  The constructor
    validates that every key is dominant; sums, scalars, comparison and
    rendering are shared with :class:`GradedSeries`.  Two orbit series do not
    multiply and do not substitute: :meth:`_product` raises TypeError.
    """

    __slots__ = ()
    _times = "*"
    _degree = sum
    _scalar = staticmethod(GradedSeries._scalar)

    def __init__(self, symbol_count: int, truncation_degree: int, terms=None):
        terms = _monomial_terms(symbol_count, truncation_degree, terms, dominant=True)
        super().__init__(symbol_count, truncation_degree, terms)

    def _product(self, xs: dict, ys: dict, bound: int) -> dict:
        """Refused, for ``*`` and substitute: the dense kernel would be wrong on orbits."""
        raise TypeError("SymmetricSeries do not multiply; use symmetric_ch(x, D, line)")

    def _render_key(self, key: Monomial) -> str:
        """``m(e1,e2,...)`` over the nonzero entries; empty for the constant."""
        parts = [str(e) for e in key if e]
        return f"m({','.join(parts)})" if parts else ""

