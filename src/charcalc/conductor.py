"""Bloch conductor arithmetic on combinatorial normal-crossings fiber data.

A bad fiber is described by its irreducible components (with
multiplicities) and the intersection strata T_J = intersection of the
components in J, each carrying an integer Euler characteristic.  Closed and
open (compactly supported) strata characteristics determine each other by
inclusion-exclusion over the subset lattice; everything downstream — the
fiber Euler characteristic, the per-prime degree of the localized top Chern
class, the conductor exponents, and log|eps| — is exact integer and
rational arithmetic on those numbers.

validate_model validates and normalizes each fiber once; each normalized fiber
is derived once into a FiberDerivation, the one place chi(X_p) and the localized
Chern degree are computed.  The generic-Euler check and the conductor both
return one ConductorReport over those records, and every rendering reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import gcd


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


@dataclass(frozen=True)
class Component:
    id: str
    multiplicity: int
    chi_open: int | None = None


@dataclass(frozen=True)
class Stratum:
    components: frozenset[str]
    chi_closed: int | None = None
    chi_open: int | None = None


@dataclass(frozen=True)
class FiberModel:
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
    prime: int
    ok: bool
    offenders: tuple[str, ...] = ()


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
    from the first fiber, and None for a model with no fibers that states none."""

    relative_dimension: int
    generic_euler: int | None
    entries: tuple[FiberDerivation, ...]
    inferred: bool = False

    def euler_holds(self, d: FiberDerivation) -> bool:
        """chi(X_Q) = sum m_i chi*(T_i) at the prime of the record ``d``."""
        return d.weighted_sum == self.generic_euler

    @property
    def ok(self) -> bool:
        return all(map(self.euler_holds, self.entries))

    @property
    def primes(self) -> tuple[FiberDerivation, ...]:
        return tuple(sorted(self.entries, key=lambda d: d.prime))

    @property
    def conductor_factors(self) -> dict[int, int]:
        """Factored A(X): prime -> exponent, by prime, zero exponents omitted."""
        return {d.prime: d.exponent for d in self.primes if d.exponent}

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


def validate_fiber(fiber: FiberModel, relative_dimension: int | None = None) -> None:
    """Check the structural invariants of one fiber's combinatorial data."""
    where = f"fiber at p={fiber.prime}"
    if fiber.prime >= PRIME_LIMIT:
        raise ModelValidationError(
            f"{where}: primes at or above {PRIME_LIMIT} are beyond the exact "
            "primality test"
        )
    if not _is_prime(fiber.prime):
        raise ModelValidationError(f"{where}: {fiber.prime} is not a prime")
    ids = [c.id for c in fiber.components]
    if not ids:
        raise ModelValidationError(f"{where}: fiber has no components")
    if len(set(ids)) != len(ids):
        raise ModelValidationError(f"{where}: duplicate component ids")
    for c in fiber.components:
        if c.multiplicity < 1:
            raise ModelValidationError(
                f"{where}: component {c.id} has multiplicity {c.multiplicity} < 1"
            )
    declared = set(ids)
    seen: set[frozenset[str]] = set()
    for stratum in fiber.strata:
        J = stratum.components
        if not J:
            raise ModelValidationError(f"{where}: stratum with empty component set")
        unknown = J - declared
        if unknown:
            raise ModelValidationError(
                f"{where}: stratum {sorted(J)} references undeclared components "
                f"{sorted(unknown)}"
            )
        if J in seen:
            raise ModelValidationError(f"{where}: duplicate stratum {sorted(J)}")
        seen.add(J)
        if stratum.chi_closed is None and stratum.chi_open is None:
            raise ModelValidationError(
                f"{where}: stratum {sorted(J)} carries no Euler characteristic"
            )
        if relative_dimension is not None and len(J) > relative_dimension + 1:
            raise ModelValidationError(
                f"{where}: stratum {sorted(J)} has depth {len(J)} > d+1 = "
                f"{relative_dimension + 1}, so it would have negative dimension"
            )
    for cid in ids:
        if frozenset({cid}) not in seen:
            raise ModelValidationError(f"{where}: missing singleton stratum for {cid}")
    # A non-empty intersection forces all of its sub-intersections non-empty.
    for J in seen:
        for cid in J:
            sub = J - {cid}
            if sub and sub not in seen:
                raise ModelValidationError(
                    f"{where}: stratum {sorted(J)} is declared but its subset "
                    f"{sorted(sub)} is not"
                )


def validate_model(model: ArithmeticModel) -> ArithmeticModel:
    """The model with each fiber validated and normalized once, in model order."""
    if model.relative_dimension < 0:
        raise ModelValidationError("relative_dimension must be non-negative")
    primes = [f.prime for f in model.fibers]
    if len(set(primes)) != len(primes):
        raise ModelValidationError("fiber primes must be pairwise distinct")
    d = model.relative_dimension
    return replace(model, fibers=tuple(normalize_fiber(f, d) for f in model.fibers))


# -- inclusion-exclusion over the strata lattice --------------------------


def _superset_sums(values: dict[frozenset[str], int], sign: int) -> dict[frozenset[str], int]:
    """Inclusion-exclusion over the strata lattice: for each stratum J, the
    sum of sign^(|J2| - |J|) * values[J2] over the strata J2 containing J.

    sign = -1 turns closed characteristics into open ones and sign = +1
    turns open ones back into closed ones.  Each J2 adds its term to all of
    its proper subsets, which validate_fiber makes strata.
    """
    out = dict(values)
    for J2, value in values.items():
        for size in range(1, len(J2)):
            for J in map(frozenset, combinations(J2, size)):
                out[J] += sign ** (len(J2) - size) * value
    return out


def normalize_fiber(fiber: FiberModel, relative_dimension: int | None = None) -> FiberModel:
    """Validate a fiber (see validate_fiber) and fill in both chi_closed and
    chi_open for every stratum.

    The input must carry chi_closed on all strata or chi_open on all
    strata; partially mixed data is rejected since neither direction of
    the inclusion-exclusion can run.  Absent strata are empty
    intersections and contribute 0.  Idempotent; any declared value on
    the derived side, on a stratum or a component, must agree with the
    derived one.
    """
    validate_fiber(fiber, relative_dimension)
    where = f"fiber at p={fiber.prime}"
    if all(s.chi_closed is not None for s in fiber.strata):
        closed = {s.components: s.chi_closed for s in fiber.strata}
        opened = _superset_sums(closed, -1)
    elif all(s.chi_open is not None for s in fiber.strata):
        opened = {s.components: s.chi_open for s in fiber.strata}
        closed = _superset_sums(opened, 1)
    else:
        raise ModelValidationError(
            f"{where}: mixed strata data; supply chi_closed for all strata or "
            "chi_open for all strata"
        )
    for s in fiber.strata:
        J = s.components
        if s.chi_open is not None and s.chi_open != opened[J]:
            raise ModelValidationError(
                f"{where}: stratum {sorted(J)} declares chi_open={_shown(s.chi_open)} "
                f"but inclusion-exclusion gives {_shown(opened[J])}"
            )
        if s.chi_closed is not None and s.chi_closed != closed[J]:
            raise ModelValidationError(
                f"{where}: stratum {sorted(J)} declares chi_closed={_shown(s.chi_closed)} "
                f"but the open strata sum to {_shown(closed[J])}"
            )
    components = []
    for c in fiber.components:
        chi = opened[frozenset({c.id})]
        if c.chi_open is not None and c.chi_open != chi:
            raise ModelValidationError(
                f"{where}: component {c.id} declares chi_open={_shown(c.chi_open)} but "
                f"its singleton stratum gives {_shown(chi)}"
            )
        components.append(replace(c, chi_open=chi))
    strata = tuple(
        replace(s, chi_closed=closed[s.components], chi_open=opened[s.components])
        for s in fiber.strata
    )
    return FiberModel(fiber.prime, tuple(components), strata)


def _declaring(fiber: FiberModel, side: str) -> FiberModel:
    """Require the characteristic ``side`` on every stratum."""
    missing = [s for s in fiber.strata if getattr(s, side) is None]
    if missing:
        raise ModelValidationError(
            f"fiber at p={fiber.prime}: stratum "
            f"{sorted(missing[0].components)} has no {side}"
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


def tame_check(fiber: FiberModel) -> TameReport:
    """Every multiplicity must be prime to the residue characteristic."""
    offenders = tuple(
        c.id for c in fiber.components if gcd(c.multiplicity, fiber.prime) != 1
    )
    return TameReport(fiber.prime, not offenders, offenders)


def _derive(fiber: FiberModel) -> FiberDerivation:
    """The record of a fiber that normalize_fiber returned, whose components
    carry chi*(T_i).  Tameness is recorded, not enforced."""
    singles = sum((c.multiplicity - 1) * c.chi_open for c in fiber.components)
    weighted = sum(c.multiplicity * c.chi_open for c in fiber.components)
    deep = sum(s.chi_open for s in fiber.strata if len(s.components) > 1)
    return FiberDerivation(fiber, tame_check(fiber), singles, weighted, deep)


def fiber_euler(fiber: FiberModel) -> int:
    """chi(X_p) of a fiber, raw or normalized (FiberDerivation.chi_fiber)."""
    return _derive(normalize_fiber(fiber)).chi_fiber


def bloch_degree(fiber: FiberModel) -> int:
    """Localized Chern degree of a fiber, raw or normalized (FiberDerivation.bloch_degree)."""
    return _derive(normalize_fiber(fiber)).bloch_degree


def _derive_validated(model: ArithmeticModel) -> tuple[FiberDerivation, ...]:
    """The record of each fiber, in model order, of a model that
    validate_model returned."""
    return tuple(map(_derive, model.fibers))


def _euler_report(model: ArithmeticModel, fibers: tuple[FiberDerivation, ...]) -> ConductorReport:
    """The report of the derived fibers against chi(X_Q).  When the model does not
    state chi(X_Q) it is inferred from the first fiber, and disagreement between
    fibers is then a hard error since no stated value adjudicates."""
    stated = model.generic_euler
    if stated is None and not fibers:
        raise ConsistencyError(
            "generic_euler is not stated and there are no fibers to infer it from"
        )
    expected = fibers[0].weighted_sum if stated is None else stated
    report = ConductorReport(model.relative_dimension, expected, fibers, stated is None)
    if report.inferred and not report.ok:
        clash = next(d for d in fibers if not report.euler_holds(d))
        raise ConsistencyError(
            f"fibers disagree on chi(X_Q): p={fibers[0].prime} gives "
            f"{_shown(expected)}, p={clash.prime} gives {_shown(clash.weighted_sum)}"
        )
    return report


def generic_euler_check(model: ArithmeticModel) -> ConductorReport:
    """Check chi(X_Q) = sum m_i chi*(T_i) at every bad prime of a model; the
    report says whether it holds (``ok``) and does not enforce it."""
    model = validate_model(model)
    return _euler_report(model, _derive_validated(model))


def conductor_report(
    model: ArithmeticModel, fibers: tuple[FiberDerivation, ...]
) -> ConductorReport:
    """The report of derived fibers, refused unless every fiber is tame and
    the generic-Euler identity holds at every prime, so that each record's
    exponent is the Artin exponent f_p = chi(X_Q) - chi(X_p)."""
    for d in fibers:
        if not d.tame.ok:
            raise TamenessError(d.prime, d.tame.offenders)
    if not fibers:
        return ConductorReport(model.relative_dimension, model.generic_euler, ())
    report = _euler_report(model, fibers)
    if not report.ok:
        chi_q = _shown(report.generic_euler)
        details = "; ".join(
            f"p={d.prime}: sum m_i*chi_open(T_i) = {_shown(d.weighted_sum)} != {chi_q} = chi(X_Q)"
            for d in fibers if not report.euler_holds(d)
        )
        raise ConsistencyError(f"generic Euler characteristic check failed: {details}")
    return report


def conductor(model: ArithmeticModel) -> ConductorReport:
    """Full pipeline: validate, normalize, check tameness and consistency,
    then report per-prime exponents, the factored conductor, and log|eps|."""
    model = validate_model(model)
    return conductor_report(model, _derive_validated(model))
