"""The twelfth-plurigenus decision table: surface invariants in, Kodaira
class out, with the known class-II subtypes resolved where the table is
unambiguous and "unresolved" where small-characteristic exotics live.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError, _check_int, _check_record
from .model import validate_characteristic

KOD_CLASSES = ("I", "II", "III", "IV")
KOD0_SUBTYPES = ("Abelian", "K3", "Enriques", "hyperelliptic", "unresolved")

# integer solutions of sum (1 - 1/m_j) = 2 with m_j >= 2; their lcms
# divide 12, which is where the twelfth plurigenus comes from
TORSION_TUPLES = ((2, 2, 2, 2), (2, 3, 6), (2, 4, 4), (3, 3, 3))


@dataclass(frozen=True, slots=True)
class SurfaceInvariants:
    p12: int
    k2_min: int
    pg: int = 0
    q: int = 0
    canonical_torsion: int | None = None
    p: int = 0

    def __post_init__(self):
        for name in ("p12", "k2_min", "pg", "q"):
            _check_int(name, getattr(self, name))
        if self.canonical_torsion is not None:
            _check_int("canonical_torsion", self.canonical_torsion)
        if self.p12 < 0 or self.pg < 0 or self.q < 0:
            raise InvalidInputError("p12, pg, q must be nonnegative")
        validate_characteristic(self.p)
        if self.canonical_torsion is not None and self.canonical_torsion < 1:
            raise InvalidInputError("canonical torsion order must be >= 1")
        if self.p12 == 1:
            if self.canonical_torsion is None or 12 % self.canonical_torsion != 0:
                raise InvalidInputError(
                    "P_12 = 1 forces a canonical torsion order dividing 12"
                )


@dataclass(frozen=True, slots=True)
class KodairaClass:
    kodaira_class: str
    subtype: str | None = None

    def __post_init__(self):
        if self.kodaira_class not in KOD_CLASSES:
            raise InvalidInputError(f"unknown class {self.kodaira_class!r}")
        if self.subtype is not None and self.kodaira_class != "II":
            raise InvalidInputError("subtype only applies to class II")
        if self.subtype is not None and self.subtype not in KOD0_SUBTYPES:
            raise InvalidInputError(f"unknown subtype {self.subtype!r}")

    def to_dict(self) -> dict:
        return {"class": self.kodaira_class, "subtype": self.subtype}


def classify(inv: SurfaceInvariants) -> KodairaClass:
    """P_12 = 0: ruled.  P_12 = 1: Kodaira dimension zero.  P_12 >= 2:
    properly (quasi-)elliptic when the minimal model has K^2 = 0, general
    type when K^2 > 0."""
    _check_record(inv, SurfaceInvariants)
    if inv.p12 == 0:
        return KodairaClass("I")
    if inv.p12 == 1:
        return KodairaClass("II", classify_kod0_subtype(inv))
    if inv.k2_min < 0:
        raise InvalidInputError(
            "P_12 >= 2 with negative minimal K^2 is inconsistent "
            "(a minimal non-ruled surface has K^2 >= 0)"
        )
    return KodairaClass("III" if inv.k2_min == 0 else "IV")


def classify_kod0_subtype(inv: SurfaceInvariants) -> str:
    """Resolve the Kodaira-dimension-zero families when the classical
    table applies; small-characteristic exotics stay unresolved."""
    _check_record(inv, SurfaceInvariants)
    if inv.p12 != 1:
        raise InvalidInputError("subtype classification needs P_12 = 1")
    if inv.pg == 1 and inv.q == 2:
        return "Abelian"
    if inv.pg == 1 and inv.q == 0:
        return "K3"
    if inv.pg == 0 and inv.q == 0 and inv.canonical_torsion == 2:
        return "Enriques"
    if inv.q == 1 and inv.canonical_torsion in (2, 3, 4, 6):
        return "hyperelliptic"
    return "unresolved"


def torsion_solutions() -> tuple[tuple[int, ...], ...]:
    """All multiplicity tuples with sum (1 - 1/m_j) = 2, found by search
    over m_j <= 24 and at most 6 terms and checked against the known list."""
    target = Fraction(2)
    found: list[tuple[int, ...]] = []

    def search(prefix: list[int], remaining: Fraction, last: int) -> None:
        if remaining == 0:
            found.append(tuple(prefix))
            return
        if len(prefix) >= 6 or remaining < 0:
            return
        for m in range(last, 25):
            term = 1 - Fraction(1, m)
            if term > remaining:
                break
            search(prefix + [m], remaining - term, m)

    search([], target, 2)
    result = tuple(sorted(found))
    if result != TORSION_TUPLES:
        raise AssertionError(
            f"torsion-tuple search disagrees with the known list: {result}"
        )
    return result
