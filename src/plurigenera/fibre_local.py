"""Local invariants of a multiple fibre: the torsion lengths a wild
fibre can have, and the admissible canonical coefficients.

The section-ring dimension h^0(O_{nF'}) of thickenings of a wild fibre
grows by one exactly at its jumping values.  The model implemented here
is a forced walk: starting from position 1 with torsion order nu, the
next jump sits at (current position) + (current order), and at each jump
the order either stays or is multiplied by the characteristic p.  The
growth choice is the only nondeterminism; order growth never happens off
a jump.  This reproduces the known first jumping value nu + 1 and the
second-jump dichotomy {2*nu + 1, (p+1)*nu + 1}.  The torsion length is
the number of jumps within m; ``achievable_torsion_lengths`` derives the
set of lengths from the walk's states without listing the walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidInputError, UnsupportedInputError, _int_text
from .model import FIBRE_RULE_CACHE_SIZE, is_prime

# The largest p**e of a wild fibre whose torsion lengths are derived: the
# forced walk visits about p**e * e states and keeps a p**e-bit set per
# state (on a 2-core x86-64 VM with Python 3.11: 0.14 s and 26 MB at
# 2**12, 5.7 s and 723 MB at 2**16).
MAX_WILD_POWER = 2**12


@dataclass(frozen=True, slots=True)
class CoefficientSet:
    """Admissible canonical coefficients; ``sharp`` is false when no rule
    narrows the divisibility-constrained superset (t >= 3)."""

    values: frozenset[int]
    sharp: bool

    def __contains__(self, a: int) -> bool:
        return a in self.values

    def sorted(self) -> list[int]:
        return sorted(self.values)


def _power_exponent(m: int, nu: int, p: int) -> int:
    """The e >= 1 with m = nu * p**e, or raise."""
    if m % nu != 0:
        raise InvalidInputError(
            f"torsion order must divide multiplicity: {_int_text(nu)} | {_int_text(m)}"
        )
    q, e = m // nu, 0
    while q % p == 0:
        q //= p
        e += 1
    if q != 1 or e < 1:
        raise InvalidInputError(
            f"inconsistent wild fibre: m={_int_text(m)} is not nu*p^e for "
            f"nu={_int_text(nu)}, p={_int_text(p)}"
        )
    return e


def admissible_coefficients(
    m: int, nu: int, p: int, t: int, h1_at_most_one: bool = False
) -> CoefficientSet:
    """The set of canonical coefficients a allowed for a fibre with the
    given multiplicity, torsion order, and torsion length t.

    Tame (t=0): {m-1}.  t=1, or h^1(O_S) <= 1: {m-1, m-1-nu}.
    t=2: {m-1, m-1-nu, m-1-2nu, m-1-(p+1)nu}.  t >= 3: every a with
    nu | a+1, flagged as not sharp.  Negative values are dropped.
    """
    if m < 2 or nu < 1 or t < 0:
        raise InvalidInputError(
            f"bad fibre data m={_int_text(m)}, nu={_int_text(nu)}, t={_int_text(t)}"
        )
    if t == 0:
        if nu != m:
            raise InvalidInputError(
                f"tame fibres carry torsion order nu = m, "
                f"got nu={_int_text(nu)}, m={_int_text(m)}"
            )
        return CoefficientSet(frozenset({m - 1}), True)
    if p == 0 or not is_prime(p):
        raise InvalidInputError("wild fibres need prime characteristic")
    _power_exponent(m, nu, p)
    if t == 1 or h1_at_most_one:
        raw = {m - 1, m - 1 - nu}
    elif t == 2:
        raw = {m - 1, m - 1 - nu, m - 1 - 2 * nu, m - 1 - (p + 1) * nu}
    else:
        return CoefficientSet(frozenset(range(nu - 1, m, nu)), False)
    return CoefficientSet(frozenset(a for a in raw if a >= 0), True)


@lru_cache(maxsize=FIBRE_RULE_CACHE_SIZE)
def achievable_torsion_lengths(nu: int, e: int, p: int) -> frozenset[int]:
    """Torsion lengths t realizable by some jump profile on m = nu*p^e.

    Derived mechanically from the forced walk; e = 0 gives t = 0 (the
    first jump nu + 1 falls beyond m = nu).  Raises
    ``UnsupportedInputError`` past p**e = ``MAX_WILD_POWER``.
    """
    if not is_prime(p) or nu < 1 or e < 0:
        raise InvalidInputError(
            f"bad wild data nu={_int_text(nu)}, e={_int_text(e)}, p={_int_text(p)}"
        )
    if e > MAX_WILD_POWER.bit_length() or p**e > MAX_WILD_POWER:
        raise UnsupportedInputError(
            f"wild fibre with p^e = {_int_text(p)}^{_int_text(e)} exceeds "
            f"MAX_WILD_POWER = {MAX_WILD_POWER}"
        )
    m = nu * p**e
    # reach[(j, o)]: bit c is set when a walk from next jump j with order
    # o makes c more jumps; a next jump past m ends the walk (bit 0).
    # States are settled children first from an explicit stack, since a
    # walk can be m steps deep.
    start = (nu + 1, nu)
    reach: dict[tuple[int, int], int] = {}
    stack = [start] if start[0] <= m else []
    while stack:
        j, o = stack[-1]
        children = [(j + grown, grown) for grown in (o, p * o)]
        pending = [c for c in children if c[0] <= m and c not in reach]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        bits = 0
        for child in children:
            bits |= reach[child] if child[0] <= m else 1
        reach[(j, o)] = bits << 1
    bits = reach.get(start, 1)
    return frozenset(c for c in range(bits.bit_length()) if bits >> c & 1)
