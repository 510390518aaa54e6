"""Bloch conductor arithmetic on combinatorial normal-crossings fiber data.

A bad fiber is described by its irreducible components (with
multiplicities) and the intersection strata T_J = intersection of the
components in J, each carrying an integer Euler characteristic.  Closed and
open (compactly supported) strata characteristics determine each other by
inclusion-exclusion over the subset lattice; everything downstream — the
fiber Euler characteristic, the per-prime degree of the localized top Chern
class, the conductor exponents, and log|eps| — is exact integer and
rational arithmetic on those numbers.

Component and Stratum are named tuples.  The fiber functions read records by
position, so a plain triple of the fields serves as well (see FiberModel).

validate_fiber is the one place a fiber's data is refused, a declared value
that disagrees with the derived one included, and it returns the fiber it has
checked in normal form: Component records carrying chi*(T_i) and Stratum
records carrying both sides, in file order.  normalize_fiber is the library
name of that normal form.  Validation walks the lattice once: the
inclusion-exclusion that derives the undeclared side steps from each stratum J
to every J - {c}, so a J - {c} that is not a stratum surfaces there as the
missing subset.  Each stratum record is then touched once more: the values
stated on the derived side are read in file order, and the derived value is
looked up only where one is stated.
validate_model validates and normalizes each fiber once; each normalized fiber
is derived once into a FiberDerivation, the one place chi(X_p) and the localized
Chern degree are computed.  conductor_report gathers a validated model's
records into one ConductorReport, which every rendering reads, and
ConductorReport.checked is the one place a report is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from math import gcd
from types import MappingProxyType
from typing import NamedTuple


class ModelValidationError(ValueError):
    """Structurally invalid fiber or model data."""


class TamenessError(ValueError):
    """A component multiplicity is divisible by the residue characteristic."""

    def __init__(self, prime: int, offenders: tuple[str, ...]):
        self.prime = prime
        self.offenders = offenders
        names = ", ".join(offenders)
        super().__init__(
            f"fiber at p={prime} is not tame: p divides the multiplicity of {names}"
        )


class ConsistencyError(ValueError):
    """Fibers imply contradictory generic-fiber Euler characteristics."""


def _shown(value: int) -> str:
    """``value`` in decimal, or to four digits past the int-to-str digit limit."""
    try:
        return str(value)
    except ValueError:
        return f"~{Decimal(value):.3e}"


class Component(NamedTuple):
    id: str
    multiplicity: int
    chi_open: int | None = None


class Stratum(NamedTuple):
    components: frozenset[str]
    chi_closed: int | None = None
    chi_open: int | None = None


@dataclass(frozen=True)
class FiberModel:
    """One bad fiber: its prime, components and strata.

    The fiber functions read each record by position, as
    (id, multiplicity, chi_open) and (components, chi_closed, chi_open), so a
    plain triple serves as well as a Component or Stratum: the model reader
    hands over the triples it has checked and builds no record of its own.
    validate_fiber returns Component and Stratum records.
    """

    prime: int
    components: tuple[Component, ...]
    strata: tuple[Stratum, ...]


@dataclass(frozen=True)
class ArithmeticModel:
    relative_dimension: int
    fibers: tuple[FiberModel, ...]
    generic_euler: int | None = None


@dataclass(frozen=True)
class TameReport:
    offenders: tuple[str, ...]  # the components whose multiplicity p divides

    @property
    def ok(self) -> bool:
        return not self.offenders


@dataclass(frozen=True)
class FiberDerivation:
    """Everything the conductor formula reads from one fiber, and the only
    place chi(X_p), the localized Chern degree and the exponent are computed.

    ``fiber`` carries both characteristics on every stratum; the sums run
    over its open strata T*_J, writing chi* for chi_c(T*_J).
    """

    fiber: FiberModel
    tame: TameReport
    singles: int  # sum (m_i - 1) chi*(T_i)
    weighted_sum: int  # sum m_i chi*(T_i)
    deep: int  # sum of chi*(T_J) over |J| >= 2

    @property
    def prime(self) -> int:
        return self.fiber.prime

    @property
    def chi_fiber(self) -> int:
        """chi(X_p): the open strata partition the fiber, so their compactly
        supported characteristics add up."""
        return self.weighted_sum - self.singles + self.deep

    @property
    def bloch_degree(self) -> int:
        """Degree of the localized top Chern class:
        -sum (m_i - 1) chi*(T_i) + sum of chi*(T_J) over |J| >= 2.

        This is also -sum m_i chi*(T_i) + chi(X_p), identically, since chi(X_p)
        is the sum of all the chi*.
        """
        return self.deep - self.singles

    @property
    def exponent(self) -> int:
        """sum m_i chi*(T_i) - chi(X_p) = -bloch_degree: the Artin exponent
        f_p = chi(X_Q) - chi(X_p) exactly when chi(X_Q) = sum m_i chi*(T_i), as
        it is at every prime of a report that conductor() returns."""
        return self.weighted_sum - self.chi_fiber


@dataclass(frozen=True)
class ConductorReport:
    """The fibers' records in model order against chi(X_Q), stated or ``inferred``
    from the first fiber, and None for a model with no fibers that states none.

    ``primes`` holds the same records by prime, and ``conductor_factors`` the
    factored A(X), prime -> exponent by prime with zero exponents omitted, as a
    read-only mapping; both are computed on first read, then kept.
    """

    relative_dimension: int
    generic_euler: int | None
    entries: tuple[FiberDerivation, ...]
    inferred: bool = False

    @cached_property
    def primes(self) -> tuple[FiberDerivation, ...]:
        return tuple(sorted(self.entries, key=lambda d: d.prime))

    @cached_property
    def conductor_factors(self) -> MappingProxyType[int, int]:
        return MappingProxyType({d.prime: d.exponent for d in self.primes if d.exponent})

    def _agreed(self) -> ConductorReport:
        """The report, refused if chi(X_Q) was inferred and a fiber disagrees:
        no stated value adjudicates."""
        if self.inferred and not self.ok:
            clash = next(d for d in self.entries if not self.euler_holds(d))
            raise ConsistencyError(
                f"fibers disagree on chi(X_Q): p={self.entries[0].prime} gives "
                f"{_shown(self.generic_euler)}, p={clash.prime} gives {_shown(clash.weighted_sum)}"
            )
        return self

    def checked(self) -> ConductorReport:
        """The report, refused unless every fiber is tame and the generic-Euler
        identity holds at every prime, so that each record's exponent is the
        Artin exponent f_p = chi(X_Q) - chi(X_p)."""
        for d in self.entries:
            if not d.tame.ok:
                raise TamenessError(d.prime, d.tame.offenders)
        if not self._agreed().ok:
            chi_q = _shown(self.generic_euler)
            details = "; ".join(
                f"p={d.prime}: sum m_i*chi_open(T_i) = {_shown(d.weighted_sum)} != {chi_q} = chi(X_Q)"
                for d in self.entries if not self.euler_holds(d)
            )
            raise ConsistencyError(f"generic Euler characteristic check failed: {details}")
        return self

    def euler_holds(self, d: FiberDerivation) -> bool:
        """chi(X_Q) = sum m_i chi*(T_i) at the prime of the record ``d``."""
        return d.weighted_sum == self.generic_euler

    @property
    def ok(self) -> bool:
        return all(map(self.euler_holds, self.entries))

    @property
    def log_conductor_terms(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((p, Fraction(e)) for p, e in self.conductor_factors.items())

    @property
    def log_eps_terms(self) -> tuple[tuple[int, Fraction], ...]:
        """log|eps(X)| = (d+1)/2 * log A(X), as exact multiples of log p."""
        half = Fraction(self.relative_dimension + 1, 2)
        return tuple((p, half * c) for p, c in self.log_conductor_terms)

    @property
    def has_negative_exponents(self) -> bool:
        return any(e < 0 for e in self.conductor_factors.values())

    def as_dict(self) -> dict:
        return {
            "relative_dimension": self.relative_dimension,
            "generic_euler": self.generic_euler,
            "primes": [
                {
                    "prime": d.prime,
                    "chi_fiber": d.chi_fiber,
                    "bloch_degree": d.bloch_degree,
                    "exponent": d.exponent,
                    "tame": d.tame.ok,
                    "generic_euler_ok": self.euler_holds(d),
                }
                for d in self.primes
            ],
            "conductor_factors": {str(p): e for p, e in self.conductor_factors.items()},
            "log_conductor_terms": [
                {"prime": p, "coefficient": str(c)} for p, c in self.log_conductor_terms
            ],
            "log_eps_terms": [
                {"prime": p, "coefficient": str(c)} for p, c in self.log_eps_terms
            ],
            "negative_exponents": self.has_negative_exponents,
        }


# -- validation ---------------------------------------------------------

# Miller-Rabin with these bases is exact below PRIME_LIMIT (Sorenson and
# Webster, 2015); larger primes are refused rather than guessed.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < PRIME_LIMIT."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
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


def validate_fiber(fiber: FiberModel, relative_dimension: int | None = None) -> FiberModel:
    """Check one fiber's combinatorial data and return it normalized: the one
    place a fiber is refused.  Each component gets chi_open, its singleton's
    chi*(T_i), and each stratum both characteristics, in file order.

    Every stratum must carry chi_closed or every stratum chi_open; with
    partially mixed data neither direction of the inclusion-exclusion can
    run.  The other side is derived by _superset_sums, whose walk over the
    edges J -> J - {c} of the lattice is also the subset-closure check: a
    J - {c} that is not a stratum surfaces as the missing subset.  Any value
    declared on the derived side, on a stratum in file order and then on a
    component, must agree with the derived one.
    """
    where = f"fiber at p={fiber.prime}"
    if fiber.prime >= PRIME_LIMIT:
        raise ModelValidationError(
            f"{where}: primes at or above {PRIME_LIMIT} are beyond the exact "
            "primality test"
        )
    if not _is_prime(fiber.prime):
        raise ModelValidationError(f"{where}: {fiber.prime} is not a prime")
    ids = [cid for cid, _, _ in fiber.components]
    if not ids:
        raise ModelValidationError(f"{where}: fiber has no components")
    if len(set(ids)) != len(ids):
        raise ModelValidationError(f"{where}: duplicate component ids")
    for cid, multiplicity, _ in fiber.components:
        if multiplicity < 1:
            raise ModelValidationError(
                f"{where}: component {cid} has multiplicity {multiplicity} < 1"
            )
    declared = set(ids)
    closed: dict[frozenset[str], int | None] = {}
    opened: dict[frozenset[str], int | None] = {}
    for J, chi_closed, chi_open in fiber.strata:
        if not J:
            raise ModelValidationError(f"{where}: stratum with empty component set")
        if not J <= declared:
            raise ModelValidationError(
                f"{where}: stratum {sorted(J)} references undeclared components "
                f"{sorted(J - declared)}"
            )
        if J in closed:
            raise ModelValidationError(f"{where}: duplicate stratum {sorted(J)}")
        if chi_closed is None and chi_open is None:
            raise ModelValidationError(
                f"{where}: stratum {sorted(J)} carries no Euler characteristic"
            )
        if relative_dimension is not None and len(J) > relative_dimension + 1:
            raise ModelValidationError(
                f"{where}: stratum {sorted(J)} has depth {len(J)} > d+1 = "
                f"{relative_dimension + 1}, so it would have negative dimension"
            )
        closed[J] = chi_closed
        opened[J] = chi_open
    singletons = [frozenset({cid}) for cid in ids]
    for cid, key in zip(ids, singletons):
        if key not in closed:
            raise ModelValidationError(f"{where}: missing singleton stratum for {cid}")
    if None not in closed.values():
        given, stated, sign, side, how = closed, opened, -1, "chi_open", "inclusion-exclusion gives"
    elif None not in opened.values():
        given, stated, sign, side, how = opened, closed, 1, "chi_closed", "the open strata sum to"
    else:
        raise ModelValidationError(
            f"{where}: mixed strata data; supply chi_closed for all strata or "
            "chi_open for all strata"
        )
    try:
        derived = _superset_sums(given, sign)
    except KeyError:
        # A non-empty intersection forces all of its sub-intersections
        # non-empty; name the first offender in file order, not in set order.
        J, sub = next((J, J - {c}) for J, _, _ in fiber.strata
                      if len(J) > 1 for c in sorted(J) if J - {c} not in given)
        raise ModelValidationError(
            f"{where}: stratum {sorted(J)} is declared but its subset "
            f"{sorted(sub)} is not"
        ) from None
    # The given side holds its own declarations, so only a value stated on the
    # derived side can disagree; stated was filled in file order, and derived is
    # read only where a value is stated.
    for J, chi in stated.items():
        if chi is not None and chi != derived[J]:
            raise ModelValidationError(
                f"{where}: stratum {sorted(J)} declares {side}={_shown(chi)} "
                f"but {how} {_shown(derived[J])}"
            )
    closed, opened = (given, derived) if sign < 0 else (derived, given)
    components = []
    for (cid, multiplicity, declared), key in zip(fiber.components, singletons):
        chi = opened[key]
        if declared is not None and declared != chi:
            raise ModelValidationError(
                f"{where}: component {cid} declares chi_open={_shown(declared)} but "
                f"its singleton stratum gives {_shown(chi)}"
            )
        components.append(Component(cid, multiplicity, chi))
    # closed and opened both hold the strata in file order
    strata = tuple(map(Stratum, closed, closed.values(), opened.values()))
    return FiberModel(fiber.prime, tuple(components), strata)


def validate_model(model: ArithmeticModel) -> ArithmeticModel:
    """The model with each fiber validated and normalized once, in model order."""
    if model.relative_dimension < 0:
        raise ModelValidationError("relative_dimension must be non-negative")
    primes = [f.prime for f in model.fibers]
    if len(set(primes)) != len(primes):
        raise ModelValidationError("fiber primes must be pairwise distinct")
    d = model.relative_dimension
    fibers = tuple(normalize_fiber(f, d) for f in model.fibers)
    return ArithmeticModel(d, fibers, model.generic_euler)


# -- inclusion-exclusion over the strata lattice --------------------------


def _superset_sums(values: dict[frozenset[str], int], sign: int) -> dict[frozenset[str], int]:
    """Inclusion-exclusion over the strata lattice: for each stratum J, the
    sum of sign^(|J2| - |J|) * values[J2] over the strata J2 containing J.

    sign = -1 turns closed characteristics into open ones and sign = +1
    turns open ones back into closed ones.  The sum runs one component c at
    a time: its pass adds sign times the running value of each stratum J2
    that contains c to J2 - {c}, so after the passes of components C each J
    holds the sum over the J2 containing J with J2 - J inside C.  That is
    one step per member of each stratum, not one per subset.  A J2 - {c}
    that is not a key raises KeyError: validate_fiber names it as the
    missing subset.
    """
    out = dict(values)
    passes: dict[str, list[frozenset[str]]] = {}
    for J2 in values:
        if len(J2) > 1:
            for c in J2:
                passes.setdefault(c, []).append(J2)
    for c, strata in passes.items():
        drop = {c}
        for J2 in strata:
            out[J2 - drop] += sign * out[J2]
    return out


def normalize_fiber(fiber: FiberModel, relative_dimension: int | None = None) -> FiberModel:
    """The fiber with both chi_closed and chi_open on every stratum and chi_open
    on every component, as validate_fiber returns it.

    validate_fiber refuses the data, declared values that disagree with the
    derived ones among it.  Absent strata are empty intersections and
    contribute 0.  Idempotent.
    """
    return validate_fiber(fiber, relative_dimension)


def _declaring(fiber: FiberModel, side: str) -> FiberModel:
    """Require the characteristic ``side`` on every stratum."""
    position = Stratum._fields.index(side)
    missing = [s[0] for s in fiber.strata if s[position] is None]
    if missing:
        raise ModelValidationError(
            f"fiber at p={fiber.prime}: stratum {sorted(missing[0])} has no {side}"
        )
    return fiber


def open_strata_from_closed(fiber: FiberModel) -> FiberModel:
    """Populate chi_open by inclusion-exclusion on a fiber with chi_closed on
    every stratum (see normalize_fiber)."""
    return normalize_fiber(_declaring(fiber, "chi_closed"))


def closed_strata_from_open(fiber: FiberModel) -> FiberModel:
    """Populate chi_closed from chi_open; inverse of open_strata_from_closed."""
    return normalize_fiber(_declaring(fiber, "chi_open"))


# -- numerical pipeline ---------------------------------------------------


def _derive(fiber: FiberModel) -> FiberDerivation:
    """The record of a fiber that normalize_fiber returned, whose components
    carry chi*(T_i).  Tameness is recorded, not enforced."""
    singles = sum((c.multiplicity - 1) * c.chi_open for c in fiber.components)
    weighted = sum(c.multiplicity * c.chi_open for c in fiber.components)
    deep = sum(s.chi_open for s in fiber.strata if len(s.components) > 1)
    offenders = tuple(c.id for c in fiber.components if gcd(c.multiplicity, fiber.prime) != 1)
    return FiberDerivation(fiber, TameReport(offenders), singles, weighted, deep)


def tame_check(fiber: FiberModel) -> TameReport:
    """Every multiplicity must be prime to the residue characteristic
    (FiberDerivation.tame)."""
    return _derive(normalize_fiber(fiber)).tame


def fiber_euler(fiber: FiberModel) -> int:
    """chi(X_p) of a fiber, raw or normalized (FiberDerivation.chi_fiber)."""
    return _derive(normalize_fiber(fiber)).chi_fiber


def bloch_degree(fiber: FiberModel) -> int:
    """Localized Chern degree of a fiber, raw or normalized (FiberDerivation.bloch_degree)."""
    return _derive(normalize_fiber(fiber)).bloch_degree


def conductor_report(model: ArithmeticModel) -> ConductorReport:
    """The report of the fibers of a model that validate_model returned, in
    model order, against chi(X_Q): the stated value, else the first fiber's,
    else None.  Nothing is refused here; see ConductorReport.checked."""
    entries = tuple(map(_derive, model.fibers))
    inferred = model.generic_euler is None and bool(entries)
    chi_q = entries[0].weighted_sum if inferred else model.generic_euler
    return ConductorReport(model.relative_dimension, chi_q, entries, inferred)


def generic_euler_check(model: ArithmeticModel) -> ConductorReport:
    """Check chi(X_Q) = sum m_i chi*(T_i) at every bad prime of a model; the
    report says whether it holds (``ok``) and does not enforce it, except that
    fibers disagreeing on an inferred chi(X_Q) are refused."""
    return conductor_report(validate_model(model))._agreed()


def conductor(model: ArithmeticModel) -> ConductorReport:
    """Full pipeline: validate, normalize, check tameness and consistency,
    then report per-prime exponents, the factored conductor, and log|eps|."""
    return conductor_report(validate_model(model)).checked()
