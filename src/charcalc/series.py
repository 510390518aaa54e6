"""Exact truncated polynomial algebra in formal degree-1 symbols.

A :class:`GradedSeries` is a finite sum of monomials in the symbols
``a1, ..., an`` with `fractions.Fraction` coefficients, truncated above a
fixed total degree ``D``.  Every operation is exact; there is no floating
point anywhere.  Two series are equal exactly when their canonical term
maps agree, so identity checks reduce to dictionary equality.

The truncation degree is part of the value, not ambient state: combining
series with different symbol counts or truncation degrees raises
:class:`MismatchError` instead of coercing silently.

No series of one line is built here: :mod:`~charcalc.lambda_ring` names each
class by its line value, ``l/(1-e^{-l})`` from the Bernoulli numbers or
``1+l``, reads the coefficients of its logarithm off it by
(log f)' = f'/f, and weights ``ch`` by them.

A :class:`SymmetricSeries` is a series invariant under permuting the
symbols, kept as one coefficient per S_n-orbit of monomials; it differs from
``GradedSeries`` in having no product (:func:`~charcalc.lambda_ring.symmetric_ch`).

``GradedSeries``, ``SymmetricSeries``, :class:`~charcalc.lambda_ring.KElement`
and :class:`~charcalc.lambda_ring.TSeries` are all term maps, keyed by
monomials, and share their ring operations, comparison, rendering and
:meth:`_TermMap.substitute` through :class:`_TermMap`; :meth:`_TermMap._product`
multiplies two integer numerator maps, except on ``SymmetricSeries``.  The one
substitution also inverts both bounded maps, ``GradedSeries`` and ``TSeries``.
The others key by exponent tuples; ``GradedSeries`` packs each tuple into one
``int`` and gives tuples back where a term leaves the map, and its product
is :func:`_packed_product`, which adds integers.  The lambda operations pack
in the same way, with signed digits, in one kernel of their own
(:func:`~charcalc.lambda_ring._lambda_terms`), and build a ``TSeries`` or
``KElement`` only from its result; the lambda laws of ``homomorphism``
multiply those packed terms by the same :func:`_packed_product`.

Every term map is stored as FLINT's ``fmpq_poly`` stores a polynomial: integer
numerators over one positive denominator, kept reduced, so that the canonical
form is unique and the whole class layer runs on integers.  ``KElement`` and
``TSeries`` always have denominator 1.  A ``Fraction`` is made only where a
coefficient leaves the map: :meth:`_TermMap.terms`, ``str`` and the lookups of
``GradedSeries``.  The Horner loop of substitution, :meth:`_TermMap.substitute`,
runs on such numerator maps.  So do the class kernels of
:mod:`~charcalc.lambda_ring`, which build no series: the Chern character,
:func:`~charcalc.lambda_ring._ch_terms`, and the exp of the classes by the graded
recurrence, :func:`~charcalc.lambda_ring._exp_terms`, both on the keys of
:func:`_pack`.  The classes wrap their result into a ``GradedSeries`` once, and
the class laws of ``homomorphism`` multiply them by :func:`_packed_product`.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from numbers import Rational
from operator import add

from . import render_sum

Monomial = tuple[int, ...]


class MismatchError(ValueError):
    """Operands live in different ambients (symbol count or truncation degree)."""


def _coefficient(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floating-point coefficients are not allowed; use Fraction")
    if not isinstance(value, Rational) or isinstance(value, bool):
        raise TypeError(f"coefficient must be an integer or Fraction, got {value!r}")
    return Fraction(value)


def _size(value, name: str) -> int:
    """``value`` as a symbol count, truncation degree or t-power bound: an
    ``int`` that is not a ``bool`` (TypeError otherwise), and non-negative
    (ValueError otherwise)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative")
    return value


def _index(value, bound: int, name: str) -> int:
    """``value`` as a degree or t-power of a map bounded by ``bound``: an ``int``
    that is not a ``bool`` (TypeError otherwise), in [0, ``bound``] (ValueError
    otherwise)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if not 0 <= value <= bound:
        raise ValueError(f"{name} {value} out of range [0, {bound}]")
    return value


def _numerators(terms: dict) -> tuple[dict, int]:
    """Integer numerators of ``terms`` over the lcm of its denominators, which
    is reduced for reduced ``Fraction`` values; an ``int`` map as is, over 1."""
    if all(isinstance(c, int) for c in terms.values()):
        return terms, 1
    d = reduce(lcm, (c.denominator for c in terms.values()), 1)
    return {key: c.numerator * (d // c.denominator) for key, c in terms.items()}, d


def dominant_exponents(symbol_count: int, degree: int):
    """Every non-increasing exponent tuple of ``symbol_count`` entries and
    total degree at most ``degree``, in lexicographic order: one key per
    S_n-orbit of monomials.  Lazy, as a walk may pass hundreds of thousands of
    orbits; each tuple follows the one before it by raising its last entry that
    can grow and clearing the entries after it."""
    if degree < 0:
        return
    e, room, k = [0] * symbol_count, degree, 0  # k: the nonzero entries, which come first
    while True:
        yield tuple(e)
        i = min(k, symbol_count - 1)
        while i >= 0 and not (room and (not i or e[i] < e[i - 1])):
            room += e[i]
            e[i] = 0
            i -= 1
        if i < 0:
            return
        e[i] += 1
        room -= 1
        k = i + 1


def _key(entries, symbol_count: int) -> tuple[int, ...]:
    """``entries`` as a tuple, refused when it has not one entry per symbol: a
    monomial's exponents or a line's root."""
    key = tuple(entries)
    if len(key) != symbol_count:
        raise ValueError(f"key {key} has {len(key)} entries, expected {symbol_count}")
    return key


def _pack(mono: Monomial, base: int) -> int:
    """The ``GradedSeries`` key of a^mono in ``base`` = D + 1: the degree in
    digit 0 and e_i in digit i + 1."""
    return sum(mono) + sum(e * base**i for i, e in enumerate(mono, 1))


def _monomial_terms(symbol_count: int, truncation_degree: int, terms, dominant=False) -> dict:
    """Validated term map of outside input: exponent tuples of the right
    length with non-negative ``int`` entries (non-increasing when
    ``dominant``) and exact coefficients.  Zero coefficients and terms above
    the truncation degree are dropped."""
    _size(symbol_count, "symbol_count")
    _size(truncation_degree, "truncation_degree")
    canonical: dict[Monomial, Fraction] = {}
    for mono, coeff in (terms or {}).items():
        mono = _key(mono, symbol_count)
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


def _packed_product(xs: dict, ys: dict, B: int, bound: int) -> dict:
    """Integer numerators of the product of two numerator maps on packed keys,
    whose degree is ``key % B`` and which multiply by adding; zero sums may
    stay.  ``ys`` is grouped by degree, and no pair of degree above ``bound``
    is formed.  The keys of ``GradedSeries`` (:func:`_pack`) and the balanced
    lambda keys of :func:`~charcalc.lambda_ring._lambda_terms` are both such
    keys; the caller keeps ``bound`` low enough that no digit carries."""
    by_degree = defaultdict(list)
    for key, coeff in ys.items():
        by_degree[key % B].append((key, coeff))
    product: dict = {}
    for key_x, coeff_x in xs.items():
        room = bound - key_x % B
        for degree_y, bucket in by_degree.items():
            if degree_y <= room:
                for key_y, coeff_y in bucket:
                    key = key_x + key_y
                    product[key] = product.get(key, 0) + coeff_x * coeff_y
    return product


class _TermMap:
    """Immutable map from monomials to nonzero coefficients, multiplied by
    adding exponents.  A key holds ``_lead`` leading exponents, then one for
    each of the ``symbol_count`` symbols, as a tuple or, on ``GradedSeries``,
    packed into an ``int`` that :meth:`_exponents` unpacks.  The coefficient
    at a key is ``_nums[key] / _den``: nonzero integer numerators over one positive
    denominator, with ``gcd(_den, *numerators) == 1`` (``_den == 1`` when empty).

    The ambient is the symbol count and the product bound ``_bound``: terms
    whose ``_degree`` is above it are dropped, and None means no bound.
    Subclasses validate outside input in their public ``__init__`` and
    supply ``_scalar``, ``_render_key`` and ``_times``, ``_degree`` of a key
    when bounded, and ``_value`` when their coefficients are ``int``; every
    result of an operation is built by the trusted :meth:`_trusted`, through
    :meth:`_like` when the ambient is the operand's, and every product of two
    numerator maps by :meth:`_product`.
    """

    __slots__ = ("symbol_count", "_bound", "_nums", "_den")
    _lead = 0
    _degree = None

    def __init__(self, symbol_count: int, bound: int | None, terms: dict, den: int = 1):
        """Store an ambient and a reduced numerator map that are already valid for it."""
        object.__setattr__(self, "symbol_count", symbol_count)
        object.__setattr__(self, "_bound", bound)
        object.__setattr__(self, "_nums", terms)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _trusted(cls, symbol_count: int, bound: int | None, terms: dict, den: int = 1):
        """Trusted constructor over the ambient ``(symbol_count, bound)`` for the
        coefficients ``terms[key] / den``: integer numerators whose keys are
        already valid for it, over a positive ``den``.  Zero numerators are
        dropped and the common gcd is divided out, so the result is canonical.
        The map is copied only to do either, so the result may keep ``terms``
        itself: a caller hands over a map that it no longer changes."""
        if not all(terms.values()):
            terms = {k: c for k, c in terms.items() if c}
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {k: c // g for k, c in terms.items()}
                den //= g
        result = object.__new__(cls)
        _TermMap.__init__(result, symbol_count, bound, terms, den)
        return result

    def _like(self, terms: dict, den: int = 1):
        """:meth:`_trusted` over this map's type and ambient."""
        return self._trusted(self.symbol_count, self._bound, terms, den)

    def _value(self, numerator: int):
        """The coefficient ``numerator / _den`` as it leaves the map."""
        return Fraction(numerator, self._den)

    @property
    def _unit(self) -> tuple:
        """The key of the constant term."""
        return (0,) * (self._lead + self.symbol_count)

    @property
    def is_zero(self) -> bool:
        return not self._nums

    _exponents = staticmethod(lambda key: key)  # the exponent tuple of a key, as it leaves the map

    def terms(self):
        """Iterate (exponent tuple, coefficient) pairs in a deterministic
        order: by degree first when the map is bounded, then by tuple."""
        exponents, value, degree = self._exponents, self._value, self._degree or (lambda key: 0)
        items = sorted((degree(k), exponents(k), value(c)) for k, c in self._nums.items())
        return ((key, c) for _, key, c in items)

    def component(self, degree: int):
        """The homogeneous part of the given degree."""
        if self._bound is None:
            raise TypeError(f"{type(self).__name__} has no degree bound to take components under")
        _index(degree, self._bound, "degree")
        degree_of = self._degree
        return self._like(
            {k: c for k, c in self._nums.items() if degree_of(k) == degree}, self._den
        )

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
        return self._like({self._unit: scalar.numerator}, scalar.denominator)

    # The reflected operators and subtraction go through ``self.__add__`` and
    # ``self.__mul__``, so wrapping those two on a subclass wraps every sum
    # and product.

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_compatible(other)
        den = lcm(self._den, other._den)
        fx, fy = den // self._den, den // other._den
        merged = {k: c * fx for k, c in self._nums.items()} if fx != 1 else dict(self._nums)
        for key, coeff in other._nums.items():
            merged[key] = merged.get(key, 0) + coeff * fy
        return self._like(merged, den)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return self._like({k: -c for k, c in self._nums.items()}, self._den)

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
            product = self._product(self._nums, other._nums, self._bound)
            return self._like(product, self._den * other._den)
        scalar = self._scalar(other)
        if scalar is None:
            return NotImplemented
        p = scalar.numerator
        return self._like({k: c * p for k, c in self._nums.items()}, self._den * scalar.denominator)

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
        """Sum c_k x^k for x = self, a bounded map with no term of degree 0, and
        c_k the k-th coefficient, for k = 0..K with K = min(len(coefficients), D + 1) - 1.

        Horner's rule, r = c_k + x * r from the top down, keeps the partial sum
        at c_k only up to degree D - k, as x^k raises it by at least k.  With
        x = X/d and c_k = C_k/q over integer numerators, the integer sums
        A_K = C_K, A_k = C_k d^(K-k) + X A_(k+1) give the result A_0 / (q d^K),
        reduced once by :meth:`_like`; no coefficients (K = -1) give zero."""
        if self._bound is None:
            raise TypeError(f"{type(self).__name__} has no degree bound to substitute under")
        if any(self._degree(key) == 0 for key in self._nums):
            raise ValueError("the series must have zero constant term")
        coeffs = dict(enumerate(self._scalar(c) for c in coefficients))
        if None in coeffs.values():
            raise TypeError(f"{type(self).__name__} substitution needs scalar coefficients")
        C, q = _numerators(coeffs)
        X, d, D, unit = self._nums, self._den, self._bound, self._unit
        K = min(len(C), D + 1) - 1
        acc: dict = {}
        for k in range(K, -1, -1):
            acc = self._product(acc, X, D - k)
            acc[unit] = acc.get(unit, 0) + C[k] * d ** (K - k)
        return self._like(acc, q * d ** max(K, 0))

    # -- comparison / display -------------------------------------------

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.symbol_count == other.symbol_count
            and self._bound == other._bound
            and self._den == other._den
            and self._nums == other._nums
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

    Terms are keyed by exponent tuples packed into one ``int`` in base
    B = D + 1 (:func:`_pack`): a product of monomials adds their keys, the
    degree of a key is ``key % B`` and the constant term is key 0.  The
    constructor validates its input and canonicalizes: zero coefficients are
    dropped and monomials of total degree above the truncation bound are
    discarded (that is what truncation means for every arithmetic operation,
    so the constructor behaves the same way).  Results of operations on
    valid series are built by :meth:`_like`, which skips the validation.
    """

    __slots__ = ()
    _times = "*"
    _unit = 0

    def __init__(self, symbol_count: int, truncation_degree: int, terms=None):
        terms = _monomial_terms(symbol_count, truncation_degree, terms)
        packed = {_pack(mono, truncation_degree + 1): c for mono, c in terms.items()}
        super().__init__(symbol_count, truncation_degree, *_numerators(packed))

    @property
    def truncation_degree(self) -> int:
        return self._bound

    @property
    def _degree(self):
        B = self._bound + 1
        return lambda key: key % B

    def _exponents(self, key: int) -> Monomial:
        B = self._bound + 1
        return tuple(key // B**i % B for i in range(1, self.symbol_count + 1))

    def _product(self, xs: dict, ys: dict, bound: int) -> dict:
        """:meth:`_TermMap._product` on packed keys (:func:`_packed_product`):
        no digit carries, as no term of degree above ``bound`` <= D is formed."""
        return _packed_product(xs, ys, self._bound + 1, bound)

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
        if not 0 <= index < _size(symbol_count, "symbol_count"):
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
        mono = _key(monomial, self.symbol_count)
        # a non-integral, negative or over-degree entry: its packed key could alias a term
        if any(e % 1 for e in mono) or min(mono, default=0) < 0 or sum(mono) > self._bound:
            return Fraction(0)
        return self._value(self._nums.get(_pack(mono, self._bound + 1), 0))

    @property
    def constant_term(self) -> Fraction:
        return self._value(self._nums.get(0, 0))

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
        super().__init__(symbol_count, truncation_degree, *_numerators(terms))

    def _product(self, xs: dict, ys: dict, bound: int) -> dict:
        """Refused, for ``*`` and substitute: the dense kernel would be wrong on orbits."""
        raise TypeError("SymmetricSeries do not multiply; use symmetric_ch(x, D, line)")

    def _render_key(self, key: Monomial) -> str:
        """``m(e1,e2,...)`` over the nonzero entries; empty for the constant."""
        parts = [str(e) for e in key if e]
        return f"m({','.join(parts)})" if parts else ""

