"""Build fibration types from finite-abelian-group cover data.

A Galois cover of the projective line branched over r points, with
abelian Galois group G given by invariant factors and one local
monodromy per branch point, exists when the monodromies sum to zero and
generate G.  The induced elliptic fibration acquires a tame multiple
fibre of multiplicity equal to each monodromy's order, and the cover
curve's genus follows from Riemann-Hurwitz.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import (
    InvalidInputError,
    UnsupportedInputError,
    _check_ints,
    _check_record,
    _check_tuple,
)
from .model import FibrationNumericalType, factorization

# The generation check visits every element of the group, so larger
# groups are refused before it runs.
MAX_GROUP_ORDER = 10**5


@dataclass(frozen=True, slots=True)
class AbelianGroupData:
    invariant_factors: tuple[int, ...]
    monodromies: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        factors = _check_ints("invariant factor", self.invariant_factors, 2)
        if not factors:
            raise InvalidInputError("need at least one invariant factor")
        monos = []
        for g in _check_tuple("monodromies", self.monodromies):
            g = _check_ints("monodromy residue", g)
            if len(g) != len(factors):
                raise InvalidInputError(
                    "each monodromy needs one residue per invariant factor"
                )
            monos.append(tuple(x % d for x, d in zip(g, factors)))
        object.__setattr__(self, "invariant_factors", factors)
        object.__setattr__(self, "monodromies", tuple(monos))
        if self.group_order > MAX_GROUP_ORDER:
            raise UnsupportedInputError(
                f"group order {self.group_order} exceeds MAX_GROUP_ORDER "
                f"= {MAX_GROUP_ORDER}"
            )
        if any(
            sum(g[k] for g in self.monodromies) % d != 0
            for k, d in enumerate(factors)
        ):
            raise InvalidInputError("local monodromies must sum to zero in the group")
        if self.subgroup_order(self.monodromies) != self.group_order:
            raise InvalidInputError("local monodromies must generate the group")

    @property
    def group_order(self) -> int:
        return prod(self.invariant_factors)

    def element_order(self, g: tuple[int, ...]) -> int:
        return lcm(*(d // gcd(d, x) for x, d in zip(g, self.invariant_factors)))

    def subgroup_order(self, generators) -> int:
        factors = self.invariant_factors
        zero = tuple(0 for _ in factors)
        seen = {zero}
        frontier = [zero]
        while frontier:
            cur = frontier.pop()
            for g in generators:
                nxt = tuple((c + x) % d for c, x, d in zip(cur, g, factors))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen)


def cover_to_type(data: AbelianGroupData) -> FibrationNumericalType:
    """The tame genus-zero type with one multiple fibre per nontrivial
    local monodromy, of multiplicity its order.  Admissibility (slope
    positivity in particular) is checked downstream, not here."""
    _check_record(data, AbelianGroupData)
    return FibrationNumericalType.tame_type(
        data.element_order(g) for g in data.monodromies if data.element_order(g) > 1
    )


def bad_characteristics(data: AbelianGroupData) -> tuple[int, ...]:
    """Advisory: primes dividing some local monodromy order.  The cover
    construction is only guaranteed to behave away from these; the
    emitted type still carries characteristic zero."""
    _check_record(data, AbelianGroupData)
    primes = {
        q for g in data.monodromies for q, _ in factorization(data.element_order(g))
    }
    return tuple(sorted(primes))


def riemann_hurwitz_genus(data: AbelianGroupData) -> int:
    """Genus of the cover curve: 2g - 2 = |G| (-2 + sum (1 - 1/m_j))."""
    _check_record(data, AbelianGroupData)
    rhs = Fraction(-2)
    for g in data.monodromies:
        m = data.element_order(g)
        if m > 1:
            rhs += 1 - Fraction(1, m)
    rhs *= data.group_order
    if rhs.denominator != 1:
        raise InvalidInputError("non-integral Euler term: inconsistent cover data")
    val = rhs.numerator
    if val < -2 or val % 2 != 0:
        raise InvalidInputError(f"no curve has 2g - 2 = {val}")
    return (val + 2) // 2
