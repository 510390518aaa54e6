"""Formal virtual bundles split into line symbols, and the classes built
from them.

A :class:`KElement` is an integer group-ring combination of *lines*: each
line is labelled by its first Chern class, an integer lattice vector in the
ambient symbols ``a1..an`` (tensoring lines adds the vectors, so the group
ring multiplication adds roots).  On top of that live the exterior-power
generating series lambda_t and gamma_t (as :class:`TSeries`), and the maps
into :class:`~charcalc.series.GradedSeries`: Chern character, total Chern
class, and Todd class; the last two are exp of the first with its degree-k
part weighted by k! (log f)_k, for f the line value (Hirzebruch).  Two kernels
compute them on integer numerators over one denominator, on the packed keys of
``GradedSeries``, and build no series: :func:`_ch_terms` for ch, which closes
each root's last two nonzero entries from one cached table
(:func:`_ch_closing`), and :func:`_exp_terms` for the weighted exp; each class
wraps its kernels' result into a ``GradedSeries`` once.  A class is named by
its line value alone, 1 + l or the Todd line, a closed form in the Bernoulli
numbers: one reader, :func:`_line_value`, takes it, and one function,
:func:`_line_weights`, gives its weights by (log f)' = f'/f, once per line
value and degree.  For elements invariant under permuting the symbols,
:func:`symmetric_ch` gives the Chern character times a multiplicative class of
the generic lines with one coefficient, and one linear factor of a polynomial
product, per S_n-orbit.

``KElement`` and ``TSeries`` are term maps like ``GradedSeries``
(:class:`~charcalc.series._TermMap`).  A ``TSeries`` is the group ring with
one more grading: its keys are ``(t-power, *root)`` and its products drop
t-powers above ``t_max``; :meth:`TSeries.invert` is the shared substitution.
The lambda operations multiply no term maps: one kernel,
:func:`_lambda_terms`, gives lambda_t on packed integer keys, on which a line
factor (1 + t[r])^m multiplies by adding integers.  ``lambda_t`` unpacks it
into a ``TSeries``.  Every other lambda operation is a weighted sum of the
lambda^j, and one fold reads them all (:func:`_lambda_fold`): in one pass over
the packed lambda_t terms of the nontrivial lines, it adds each term, weighted
by each row of a weight table, at its root and the row's index.  ``gamma_t``
folds the rows of gamma^0..gamma^t_max (:func:`_gamma_weights`) and unpacks a
``TSeries``; ``gamma_k`` and ``alternating_lambda_sum`` fold one row and
unpack only its roots.  The trivial line [0] is the unit, so m[0] is the
scalar (1 + t)^m, folded into the weights.  ``gala`` compares one row's folded
roots without unpacking them, and the lambda_t law of ``homomorphism``
multiplies packed terms at one shared base by
:func:`~charcalc.series._packed_product` and unpacks nothing.

Everything is exact and immutable; all identities checked downstream are
dictionary equalities.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from operator import itemgetter, mul

from .series import (
    GradedSeries,
    MismatchError,
    SymmetricSeries,
    _coefficient,
    _index,
    _key,
    _numerators,
    _size,
    _TermMap,
    dominant_exponents,
)

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
        _size(symbol_count, "symbol_count")
        canonical: dict[Root, int] = {}
        for root, mult in (terms or {}).items():
            root = _key(root, symbol_count)
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

    @staticmethod
    def _value(numerator: int) -> int:
        """A multiplicity, over the denominator 1 of every KElement."""
        return numerator

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
        return self._nums.get(_key(root, self.symbol_count), 0)

    @property
    def rank(self) -> int:
        """The augmentation: sum of multiplicities."""
        return sum(self._nums.values())

    def dual(self) -> "KElement":
        """Negate every root; multiplicities are preserved."""
        return self._like({tuple(-e for e in r): m for r, m in self._nums.items()})

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
    _value = staticmethod(KElement._value)

    def __init__(self, coefficients):
        coeffs = list(coefficients)
        if not coeffs:
            raise ValueError("TSeries needs at least the t^0 coefficient")
        if not all(isinstance(c, KElement) for c in coeffs):
            raise TypeError("TSeries coefficients must be KElements")
        n = coeffs[0].symbol_count
        if any(c.symbol_count != n for c in coeffs):
            raise MismatchError("TSeries coefficients over mixed symbol counts")
        terms = {(k, *root): m for k, c in enumerate(coeffs) for root, m in c._nums.items()}
        super().__init__(n, len(coeffs) - 1, terms)

    @classmethod
    def one(cls, symbol_count: int, t_max: int) -> "TSeries":
        zeros = [KElement.zero(symbol_count)] * _size(t_max, "t_max")
        return cls([KElement.unit(symbol_count)] + zeros)

    @property
    def t_max(self) -> int:
        return self._bound

    def coefficient(self, power: int) -> KElement:
        _index(power, self.t_max, "t-power")
        terms = {key[1:]: m for key, m in self._nums.items() if key[0] == power}
        return KElement._trusted(self.symbol_count, None, terms)

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


@lru_cache(maxsize=256)
def _binomials(m: int, t_max: int) -> tuple[int, ...]:
    """The coefficients of (1 + t)^m up to t^t_max, for any integer m: the
    generalized binomials C(m, k), which are (-1)^k C(k - m - 1, k) when m < 0."""
    if m >= 0:
        return tuple(comb(m, k) for k in range(t_max + 1))
    return tuple((-1) ** k * comb(k - m - 1, k) for k in range(t_max + 1))


def _lambda_terms(x: KElement, t_max: int, base: int = 0) -> tuple[int, dict[int, int]]:
    """lambda_t(x) truncated at t^t_max on packed keys, as (B, terms); cancelled
    terms may stay as zeros.

    The term c t^k [r] is keyed by k + sum_i r_i B^i: the t-power in digit 0
    and each root entry a balanced digit in base B = max(``base``, B_x), for
    x's own base B_x = 2 t_max max(1, max |e|) + 1 and e the entries of the
    roots of x.  A kept term has k <= t_max and entries at most k max |e| in
    size, so no digit carries, and the factor (1 + t[r])^m of a line m[r] is
    sum_k g_k t^k [k r] (:func:`_binomials`), keyed by k s_r for s_r the key of
    t[r]: multiplying by it adds integers.

    Packed at one base B no smaller than their own, two elements' terms
    multiply by :func:`~charcalc.series._packed_product` with bound t_max: a
    kept product term has t-power at most t_max and entries at most
    t_max max |e| <= B // 2 in size, so again no digit carries, and packed
    equality, zeros dropped, is equality of the ``TSeries``.
    """
    _size(t_max, "t_max")
    lines = x._nums
    B = max(base, 2 * t_max * max(1, max((abs(e) for root in lines for e in root), default=0)) + 1)
    # (k, g_k) for k >= 1 and g_k != 0; the t^0 term 1 of each factor copies terms as they are
    factors = {m: [(k, g) for k, g in enumerate(_binomials(m, t_max)) if k and g]
               for m in set(lines.values())}
    powers = [B**i for i in range(1, x.symbol_count + 1)]
    terms = {0: 1}
    for root, mult in lines.items():
        step = 1 + sum(map(mul, root, powers))
        grown = dict(terms)
        for k, g in factors[mult]:
            room, shift = t_max - k, k * step
            for key, c in terms.items():
                if key % B <= room:
                    key += shift
                    grown[key] = grown.get(key, 0) + g * c
        terms = grown
    return B, terms


def _roots(packed, B: int, n: int) -> dict[int, Root]:
    """The root of each packed key k + sum_i r_i B^i, 0 <= k < B and |r_i| <= B // 2,
    as a tuple of its n balanced digits r_i, in one pass over the keys: each key
    is split by one divmod into its low digits, digit 0 among them, and its high
    digits, a half is decoded the first time it is met and kept for every later
    key that shares it, and the root is the two halves joined.  The low half is
    digit 0 and n // 2 root digits, or fewer if its divisor would pass 2^30,
    past which a division is slower; any low half of 1 to n + 1 digits decodes
    the same roots."""
    h, low = B // 2, max(1, min(n // 2 + 1, 30 // B.bit_length()))  # digits in the low half
    cut = B**low
    offset = sum(h * B**i for i in range(1, n + 1))  # makes every root digit non-negative

    def digits(q: int, count: int) -> Root:
        out = []
        for _ in range(count):
            q, d = divmod(q, B)
            out.append(d - h)
        return tuple(out)

    lows: dict[int, Root] = {}
    highs: dict[int, Root] = {}
    roots = {}
    for key in packed:
        hi, lo = divmod(key + offset, cut)
        first = lows.get(lo)
        if first is None:
            first = lows[lo] = digits(lo // B, low - 1)
        second = highs.get(hi)
        if second is None:
            second = highs[hi] = digits(hi, n + 1 - low)
        roots[key] = first + second
    return roots


def _tseries(x: KElement, t_max: int, B: int, terms: dict[int, int]) -> TSeries:
    """The TSeries over the ambient of x of packed ``terms`` (:func:`_lambda_terms`),
    the t-power in digit 0, built by the trusted ``_trusted``.  Each root is
    decoded once, at its key with digit 0 cleared."""
    roots = _roots({key - key % B for key in terms}, B, x.symbol_count)
    return TSeries._trusted(x.symbol_count, t_max,
                            {(key % B, *roots[key - key % B]): c for key, c in terms.items()})


def lambda_t(x: KElement, t_max: int) -> TSeries:
    """Exterior-power generating series, truncated at t^t_max.

    A single line [r] has lambda_t = 1 + t[r], so m[r] has
    (1 + t[r])^m = sum_k g_k [k r] t^k with g_k the integer coefficients of
    (1 + t)^m (:func:`_binomials`); sums extend multiplicatively
    (:func:`_lambda_terms`).
    """
    return _tseries(x, t_max, *_lambda_terms(x, t_max))


@lru_cache(maxsize=64)
def _gamma_weights(k: int) -> tuple[int, ...]:
    """The weights of lambda^0..lambda^k in gamma^k: gamma^k = sum_{j=1..k}
    C(k-1, j-1) lambda^j for k >= 1, and gamma^0 = lambda^0 = [0], so
    lambda^0 counts only in gamma^0."""
    return tuple([int(not k)] + [comb(k - 1, j - 1) for j in range(1, k + 1)])


@lru_cache(maxsize=256)
def _fold_table(rows: tuple[tuple[int, ...], ...], m: int, t_max: int) -> tuple:
    """By t-power i of lambda_t(y), the rows k of :func:`_lambda_fold` that weight
    it, as (k - i, weight): lambda^i(y) has the weight sum_{j >= i} rows[k][j] C(m, j - i)
    in row k, for m the multiplicity of the trivial line."""
    binomials = _binomials(m, t_max)
    return tuple(tuple((k - i, w) for k, row in enumerate(rows)
                       if (w := sum(map(mul, row[i:], binomials))))
                 for i in range(t_max + 1))


def _lambda_fold(
    x: KElement, t_max: int, rows: tuple[tuple[int, ...], ...]
) -> tuple[int, dict[int, int]]:
    """The weighted sums sum_j rows[k][j] lambda^j(x), j = 0..t_max, one per row k,
    on packed keys, as (B, folded); zero sums may stay.

    In one pass over the packed terms of lambda_t (:func:`_lambda_terms`), the
    term m t^j [r] adds rows[k][j] m at key r B + k, for every row k: only digit 0
    changes, from j to k, so a row k <= t_max reads as the t-power k and the root
    stays key // B.  The trivial line is the unit, so lambda_t(y + m[0]) =
    lambda_t(y) (1 + t)^m: lambda^i(y) gets the weight
    sum_{j >= i} rows[k][j] C(m, j - i) (:func:`_fold_table`, kept per rows, m and
    t_max), and no root meets (1 + t)^m.  B is the base of y, so every folded
    entry is at most t_max max |e| <= B // 2 in size."""
    unit = x._unit
    m = x._nums.get(unit, 0)
    y = x._like({r: c for r, c in x._nums.items() if r != unit})
    B, lam = _lambda_terms(y, t_max)  # refuses a negative t_max
    table = _fold_table(rows, m, t_max)
    folded: dict[int, int] = {}
    for key, mult in lam.items():
        for shift, w in table[key % B]:
            shift += key
            folded[shift] = folded.get(shift, 0) + w * mult
    return B, folded


def gamma_t(x: KElement, t_max: int) -> TSeries:
    """Substitute s = t/(1-t) into lambda_s(x) and re-truncate at t^t_max: the
    t^k coefficient is gamma^k, so each row k of :func:`_gamma_weights` is folded
    to the t-power k (:func:`_lambda_fold`)."""
    rows = tuple(_gamma_weights(k) for k in range(_size(t_max, "t_max") + 1))
    return _tseries(x, t_max, *_lambda_fold(x, t_max, rows))


def _kelement(x: KElement, B: int, folded: dict[int, int]) -> KElement:
    """The KElement over the ambient of x of one row's folded sums at the keys
    r B (:func:`_lambda_fold`), unpacked by :func:`_roots`."""
    roots = _roots(folded, B, x.symbol_count)  # in the order of folded
    return x._like(dict(zip(roots.values(), folded.values())))


def gamma_k(x: KElement, k: int) -> KElement:
    """The k-th gamma operation: the t^k coefficient of gamma_t(x), the one row
    :func:`_gamma_weights` folded by :func:`_lambda_fold`: no gamma_t is built,
    and the trivial lines of x enter as a scalar in t."""
    return _kelement(x, *_lambda_fold(x, _size(k, "k"), (_gamma_weights(k),)))


def alternating_lambda_sum(x: KElement) -> KElement:
    """Sum of (-1)^i lambda^i(x) for i = 0..rank(x), with the trivial lines
    of x as a scalar in t, folded by :func:`_lambda_fold`."""
    d = x.rank
    if d < 0:
        raise ValueError(f"alternating lambda sum needs non-negative rank, got {d}")
    return _kelement(x, *_lambda_fold(x, d, (tuple((-1) ** j for j in range(d + 1)),)))


# -- characteristic classes -------------------------------------------------


@lru_cache(maxsize=64)
def _factorials(D: int) -> tuple[int, ...]:
    """0!, 1!, ..., D!."""
    return tuple(factorial(k) for k in range(D + 1))


@lru_cache(maxsize=256)
def _ch_steps(r: int, shift: int, D: int) -> tuple:
    """Per room left, 0..D, the steps of :func:`_ch_terms` for a root entry r that is
    not one of its last two: (k shift, r^k C(room, k), room - k) for k = 0..room."""
    return tuple(tuple((k * shift, r**k * comb(room, k), room - k) for k in range(room + 1))
                 for room in range(D + 1))


class _Closing(dict):
    """The rows of :func:`_ch_closing` by room left, each built the first time it is read."""

    __slots__ = ("tail",)

    def __init__(self, tail):
        self.tail = tail

    def __missing__(self, room: int) -> tuple:
        if self.tail:  # the first entry's steps, each into the row of the rest at the room left
            (r, shift), rest = self.tail[0], _ch_closing(*self.tail[1:])
            row = tuple((k * shift + key, r**k * comb(room, k) * value)
                        for k in range(room + 1) for key, value in rest[room - k])
        else:
            row = ((0, factorial(room)),)
        self[room] = row
        return row


@lru_cache(maxsize=256)
def _ch_closing(*tail) -> _Closing:
    """The steps that close a root of :func:`_ch_terms` on its last one or two nonzero
    entries, ``tail`` = ((r, shift), ...): per room left, (sum k_i shift_i,
    prod r_i^k_i room!/prod k_i!) over the exponents k with sum k_i <= room.  A row
    depends on the tail and the room alone.  It is built when a root first reads it,
    from the first entry's steps and the rows of the rest of the tail (the empty
    tail's row is room!), so a root of at most two entries builds the row of room D
    of its table, C(D + 2, 2) entries, not all C(D + 3, 3) of them."""
    return _Closing(tail)


def _ch_terms(x: KElement, D: int) -> tuple[dict[int, int], int]:
    """The ch kernel: ch(x) up to degree D as (numerators, denominator), on the
    keys of :func:`~charcalc.series._pack` at base B = D + 1; zero sums may stay.

    ch = sum_k psi^k / k! over Adams operations, so the coefficient of a^e is
    S(e) / prod e_i! with S(e) = sum m prod r_i^e_i over the lines m[r] of x.
    The numerators are S(e) D! / prod e_i! over D!, summed over each root's
    nonzero entries: a step that gives a_i the exponent k out of room left multiplies
    by r_i^k C(room, k) and adds k (B^i + 1) to the key (:func:`_ch_steps`).  The last
    one or two entries close from one table (:func:`_ch_closing`), whose row for the
    room left holds their steps composed and times the factorial of the room then
    left, so its terms go straight into the sums; the entry before them is walked
    inline, so a root of at most three entries builds no list.  A trivial line m[0]
    adds m D! at key 0.  A negative or non-``int`` D is refused first.
    """
    factorials = _factorials(_size(D, "truncation_degree"))
    shifts = [(D + 1) ** i + 1 for i in range(1, x.symbol_count + 1)]
    sums = {0: x._nums.get(x._unit, 0) * factorials[D]}
    for root, mult in x._nums.items():
        if entries := [(r, shift) for r, shift in zip(root, shifts) if r]:
            closing = _ch_closing(*entries[-2:])
            if len(entries) < 3:
                for k, step in closing[D]:
                    sums[k] = sums.get(k, 0) + mult * step
                continue
            level = [(0, mult, D)]  # (key so far, mult prod r_i^e_i D!/(prod e_i! room!), room)
            for r, shift in entries[:-3]:
                by_room = _ch_steps(r, shift, D)
                level = [(key + k, value * step, left)
                         for key, value, room in level for k, step, left in by_room[room]]
            by_room = _ch_steps(*entries[-3], D)
            for key, value, room in level:
                for k, step, left in by_room[room]:
                    k += key
                    step *= value
                    for j, close in closing[left]:
                        j += k
                        sums[j] = sums.get(j, 0) + step * close
    return sums, factorials[D]


def ch(x: KElement, truncation_degree: int) -> GradedSeries:
    """Chern character: additive, with ch([r]) = exp(c1(r)) (:func:`_ch_terms`)."""
    return GradedSeries._trusted(x.symbol_count, truncation_degree, *_ch_terms(x, truncation_degree))


@lru_cache(maxsize=64)
def _bernoulli(D: int) -> tuple[Fraction, ...]:
    """The Bernoulli numbers B_0..B_D, with B_1 = -1/2, from
    sum_{k<=m} C(m+1, k) B_k = 0 for m >= 1."""
    B = [Fraction(1)]
    for m in range(1, D + 1):
        B.append(-sum(comb(m + 1, k) * b for k, b in enumerate(B)) / (m + 1))
    return tuple(B)


@lru_cache(maxsize=64, typed=True)  # typed: a bool D is refused, not read from the entry of 1
def todd_line(truncation_degree: int) -> tuple[Fraction, ...]:
    """Coefficients of l / (1 - e^{-l}) up to l^truncation_degree, the Todd
    class of one line l: (-1)^k B_k / k! (Hirzebruch, *Topological Methods*,
    section 1.5).  Multiplicities enter through the weighted ``ch`` of
    :func:`_exp_terms`, which reads this series as its line value, not through
    powers of it.
    """
    _size(truncation_degree, "truncation_degree")
    return tuple((-1) ** k * b / factorial(k) for k, b in enumerate(_bernoulli(truncation_degree)))


def _line_value(line, D: int) -> list:
    """The line value f(l) = sum_k line[k] l^k as its exact coefficients f_0..f_D,
    cut or padded with zeros to D + 1; refused with ValueError unless f_0 = 1."""
    f = [_coefficient(c) for c in line][:D + 1]
    if not f or f[0] != 1:
        raise ValueError("a class needs a line value f with f[0] = 1")
    return f + [0] * (D + 1 - len(f))


@lru_cache(maxsize=64)
def _line_weights(line: tuple, D: int) -> tuple[tuple[int, ...], int]:
    """k! (log f)_k, k = 0..D, for the line value f of ``line`` (:func:`_line_value`),
    as integer numerators over one denominator.  With g = log f, g_0 = 0 as
    f_0 = 1, and (log f)' = f'/f, that is f g' = f', gives
    k g_k = k f_k - sum_{j<k} j g_j f_(k-j)."""
    f = _line_value(line, D)
    g = [0]
    for k in range(1, D + 1):
        g.append(f[k] - Fraction(sum(j * g[j] * f[k - j] for j in range(1, k)), k))
    weights, w = _numerators({k: factorial(k) * c for k, c in enumerate(g)})
    return tuple(weights.values()), w


def _exp_terms(X: dict[int, int], d: int, line: tuple, D: int) -> tuple[dict[int, int], int]:
    """The exp kernel: the class whose value on a line l is f(l), for the line
    value ``line`` of f, of the Chern character X / d, on the keys of
    :func:`~charcalc.series._pack` at base B = D + 1, as (numerators,
    denominator); zero sums may stay.

    It is exp(x) for x = ch with its degree-k terms weighted by k! (log f)_k,
    that is Z / d' with Z_k = numerators[k] X_k and d' = d w, for the weights
    (numerators, w) of :func:`_line_weights`; they vanish at k = 0, so x has no
    constant term.  The graded recurrence
    k Y_k = sum_{j=1..k} j x_j Y_(k-j) for Y = exp(x) (Macdonald, *Symmetric
    Functions and Hall Polynomials*, I.2) runs on P_k = k! d'^k Y_k: P_0 = 1 and
    P_k = sum_j j (k-1)!/(k-j)! d'^(j-1) Z_j P_(k-j), and every pair formed lands
    in degree exactly k <= D, so none is dropped.  The result is
    sum_k P_k (D!/k!) d'^(D-k) over D! d'^D.
    """
    numerators, w = _line_weights(line, D)
    B, d = D + 1, d * w
    parts: list[list] = [[] for _ in range(B)]  # Z_j as (key, numerator) pairs
    for key, c in X.items():
        if c and numerators[k := key % B]:
            parts[k].append((key, c * numerators[k]))
    P = [{0: 1}]
    for k in range(1, B):
        level: dict = {}
        scale = 1  # (k-1)!/(k-j)! d'^(j-1), from j = 1
        for j in range(1, k + 1):
            if parts[j] and P[k - j]:
                below = P[k - j].items()
                for key_x, coeff_x in parts[j]:
                    c = j * scale * coeff_x
                    for key_y, coeff_y in below:
                        key = key_x + key_y
                        level[key] = level.get(key, 0) + c * coeff_y
            scale *= (k - j) * d
        P.append(level)
    out: dict = {}
    weight = 1  # D!/k! d'^(D-k), from k = D; D! d'^D at k = 0
    for k in range(B - 1, -1, -1):
        for key, c in P[k].items():
            out[key] = c * weight
        if k:
            weight *= k * d
    return out, weight


def total_chern(x: KElement, truncation_degree: int) -> GradedSeries:
    """Total Chern class: multiplicative, with line value 1 + l."""
    D = truncation_degree
    return GradedSeries._trusted(x.symbol_count, D, *_exp_terms(*_ch_terms(x, D), (1, 1), D))


def chern_k(x: KElement, k: int, truncation_degree: int | None = None) -> GradedSeries:
    """The degree-k Chern class, as a homogeneous series."""
    _size(k, "k")
    D = k if truncation_degree is None else _size(truncation_degree, "truncation_degree")
    if D < k:
        raise ValueError("truncation degree must be at least k")
    return total_chern(x, D).component(k)


def todd(x: KElement, truncation_degree: int) -> GradedSeries:
    """Todd class: multiplicative, with line value l / (1 - e^{-l})."""
    D = truncation_degree
    return GradedSeries._trusted(x.symbol_count, D, *_exp_terms(*_ch_terms(x, D), todd_line(D), D))


# -- classes of symmetric elements, one coefficient per S_n-orbit -------------


def symmetric_ch(x: KElement, truncation_degree: int, line=(1,)) -> SymmetricSeries:
    """ch(x) times the class of the n generic lines a1 + ... + an with value
    f(l) = sum_k line[k] l^k on one line l, line[0] = 1, for an x invariant
    under permuting the symbols, as a :class:`~charcalc.series.SymmetricSeries`.

    A line m[r] of x gives m prod_i g_{r_i}(a_i), g_r(l) = e^{rl} f(l) (Hirzebruch,
    *Topological Methods*, section 1), and g_r[0] = 1.  So with b! line[b] = Q_b / q
    and j! g_r[j] = H_r[j] / q, H_r[j] = sum_a C(j, a) r^a Q_{j-a}, the coefficient
    at a dominant e with k nonzero entries is sum_h M(h) prod_{i<=k} H_{h_i}[e_i] /
    (q^k prod e_i!) over the k-entry root prefixes h, M(h) the multiplicity of the
    roots that start with h.  For a symmetric x, M(h) depends only on the multiset
    mu of h, so the sum is sum_mu M(mu) A(mu, e), A(mu, e) the coefficient of
    prod_v u_v^mu_v in prod_{i<=k} sum_v u_v H_v[e_i] (Macdonald, *Symmetric
    Functions and Hall Polynomials*, I.2).

    One pass over the roots groups them by S_n-orbit, which also checks that x
    is symmetric; M(mu) is then the sum over the orbits rho that contain mu of
    their multiplicity times the arrangements of rho - mu.  The products are
    built along the dominant e in the order of
    :func:`~charcalc.series.dominant_exponents`, where e less its last nonzero
    entry comes before e: one linear factor per orbit, O(k) terms for roots with
    two distinct entries.  For f = 1, H_0[j] = 0 for j > 0, so no mu with a zero
    is read.  The result holds integer numerators over q^min(n, D) D!.  An x with
    an orbit whose arrangements do not all carry the multiplicity of its first
    root is refused with ValueError, as is a line value with line[0] != 1
    (:func:`_line_value`).
    """
    D, n, lines = truncation_degree, x.symbol_count, x._nums
    zero = SymmetricSeries(n, D)  # refuses a negative D before the sums index by it
    f = _line_value(line, D)
    Q, q = _numerators({b: factorial(b) * c for b, c in enumerate(f)})
    trivial = not any(f[1:])
    top = min(n, D)  # the most nonzero entries of a dominant e
    orbits: dict[Root, list[int]] = {}  # dominant root: [multiplicity, roots that have it]
    for root, mult in lines.items():
        orbit = orbits.setdefault(tuple(sorted(root, reverse=True)), [mult, 0])
        orbit[1] += orbit[0] == mult
    shapes = {rho: Counter(rho) for rho in orbits}  # entry value: how many entries have it
    for rho, (mult, seen) in orbits.items():
        arrangements = factorial(n) // prod(map(factorial, shapes[rho].values()))
        if seen != arrangements:
            raise ValueError(
                f"not invariant under permuting the symbols: {seen} of the {arrangements} "
                f"arrangements of {KElement._render_key(rho)} have multiplicity {mult}"
            )
    values = sorted({v for rho in orbits for v in rho})
    # u_v is z^(B^i) for the i-th value: a monomial of degree at most top < B is one power of z
    shift = {v: (top + 1) ** i for i, v in enumerate(values)}
    # M[k]: M(mu) at the k-multisets mu; the roots of an orbit rho that start with the
    # arrangement h of mu are the arrangements of rho - mu after it
    M: list[dict[int, int]] = [{} for _ in range(top + 1)]
    for rho, (mult, _) in orbits.items():
        # (monomial of mu, k): prod_v (c_v - mu_v)!, taking mu_v of the c_v entries v of rho
        rests = {(0, 0): 1}
        for v, c in shapes[rho].items():
            takes = range((0 if trivial and not v else c) + 1)
            rests = {(key + t * shift[v], k + t): rest * factorial(c - t)
                     for (key, k), rest in rests.items() for t in takes if k + t <= top}
        for (key, k), rest in rests.items():
            M[k][key] = M[k].get(key, 0) + mult * (factorial(n - k) // rest)
    H = {v: [sum(comb(j, a) * v**a * Q[j - a] for a in range(j + 1)) for j in range(D + 1)]
         for v in values}
    factor = [[(shift[v], H[v][a]) for v in values if H[v][a]] for a in range(D + 1)]
    factorials = [factorial(k) for k in range(D + 1)]
    scale = [q ** (top - k) for k in range(top + 1)]
    terms = {}
    # path[i]: for the first i entries of the current e, prod_{j<=i} sum_v u_v H_v[e_j] at the
    # monomials of M[i] only, as no other grows into one that M reads, and D! / prod_{j<=i} e_j!
    path = [({0: 1}, factorials[D])]
    for e in dominant_exponents(n, D):
        k = n - e.count(0)
        if k:
            last, (before, weight) = e[k - 1], path[k - 1]
            times: dict[int, int] = {}
            for key, c in before.items():
                for step, h in factor[last]:
                    if (grown := key + step) in M[k]:
                        times[grown] = times.get(grown, 0) + c * h
            del path[k:]
            path.append((times, weight // factorials[last]))
        times, weight = path[k]
        s = sum(m * times.get(key, 0) for key, m in M[k].items())
        if s:
            terms[e] = s * scale[k] * weight
    return zero._like(terms, q**top * factorials[D])
