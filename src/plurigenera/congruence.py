"""Condition U and the quasi-linear forms of the plurigenus arithmetic.

Condition U_i on sequences (m_1..m_r | nu_1..nu_r) asks for integers
n_1..n_r with n_i = 1 mod nu_i and sum n_j/m_j integral.  Two deciders
are provided: a gcd-based procedure (fast, derived) and an exhaustive
residue search (the oracle the fast one is validated against).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .errors import (
    InvalidInputError,
    OracleBoundExceededError,
    UnsupportedInputError,
    _check_int,
    _check_ints,
)

DEFAULT_ORACLE_BOUND = 10**6


@dataclass(frozen=True, slots=True)
class ConditionUInstance:
    """Multiplicities, torsion orders, and a distinguished 1-based index."""

    m: tuple[int, ...]
    nu: tuple[int, ...]
    i: int

    def __post_init__(self):
        object.__setattr__(self, "m", _check_ints("m", self.m))
        object.__setattr__(self, "nu", _check_ints("nu", self.nu))
        if len(self.m) != len(self.nu) or not self.m:
            raise InvalidInputError("m and nu must be nonempty lists of equal length")
        _check_u_data(self.m, self.nu)
        if not 1 <= _check_int("i", self.i) <= len(self.m):
            raise InvalidInputError(f"index i out of range: {self.i}")


def _check_u_data(m, nu) -> None:
    for m_j, nu_j in zip(m, nu):
        if m_j < 2:
            raise InvalidInputError(f"multiplicities must be >= 2, got {m_j}")
        if nu_j < 1 or m_j % nu_j != 0:
            raise InvalidInputError(f"need nu | m, got nu={nu_j}, m={m_j}")


def _u_holds(big_m: int, weight: int, nu_i: int, others: int) -> bool:
    """U_i from M = lcm(m_j), the weight M/m_i and the gcd of the other
    weights M/m_j (j != i)."""
    return weight % gcd(big_m, nu_i * weight, others) == 0


def check_condition_U(inst: ConditionUInstance) -> bool:
    """Decide condition U_i by linear-congruence solvability.

    With M = lcm(m_j), writing n_i = 1 + k*nu_i, the residues reachable
    by the free variables form the subgroup of Z/M generated by
    nu_i*M/m_i and the M/m_j (j != i); solvability is divisibility of
    M/m_i by the subgroup's generator gcd.
    """
    big_m = lcm(*inst.m)
    weights = [big_m // m_j for m_j in inst.m]
    i = inst.i - 1
    others = gcd(*weights[:i], *weights[i + 1 :])
    return _u_holds(big_m, weights[i], inst.nu[i], others)


def check_condition_U_bruteforce(
    inst: ConditionUInstance, max_combos: int = DEFAULT_ORACLE_BOUND
) -> bool:
    """Exhaustive search over residues modulo each m_j; the independent
    oracle for ``check_condition_U``."""
    i = inst.i - 1
    big_m = lcm(*inst.m)
    combos = 1
    for j, m_j in enumerate(inst.m):
        combos *= (m_j // inst.nu[j]) if j == i else m_j
        if combos > max_combos:  # stop before the product grows huge
            raise OracleBoundExceededError(
                f"the residue combinations exceed the oracle bound {max_combos}"
            )
    weights = [big_m // m_j for m_j in inst.m]
    ranges = [
        range(1, m_j + 1, inst.nu[j]) if j == i else range(m_j)
        for j, m_j in enumerate(inst.m)
    ]
    for combo in product(*ranges):
        total = 0
        for n_j, w_j in zip(combo, weights):
            total += n_j * w_j
        if total % big_m == 0:
            return True
    return False


def check_all_U(fibration) -> bool:
    """Conjunction of U_i over all multiple fibres of an elliptic
    fibration over the projective line with chi = 0."""
    if fibration.g != 0 or fibration.chi != 0:
        raise UnsupportedInputError("condition U applies only when g = 0 and chi = 0")
    if fibration.quasi_elliptic:
        raise UnsupportedInputError("condition U is stated for elliptic fibrations")
    m = [f.m for f in fibration.fibres]
    nu = [f.nu for f in fibration.fibres]
    _check_u_data(m, nu)
    return _all_u(m, nu)


def _all_u(m, nu) -> bool:
    """Every U_i for validated data (m_j >= 2, nu_j | m_j); true when
    there are no fibres.  The gcd of the weights other than the i-th is
    the gcd of a prefix and a suffix gcd, so the work is linear in r."""
    big_m = lcm(*m)
    weights = [big_m // m_j for m_j in m]
    suffix = [0] * (len(weights) + 1)
    for i in range(len(weights) - 1, -1, -1):
        suffix[i] = gcd(weights[i], suffix[i + 1])
    prefix = 0
    for weight, nu_i, after in zip(weights, nu, suffix[1:]):
        if not _u_holds(big_m, weight, nu_i, gcd(prefix, after)):
            return False
        prefix = gcd(prefix, weight)
    return True


@dataclass(frozen=True, slots=True)
class QuasiLinearForm:
    """const + linear*n + sum floor(n*a/m), validated once when built: the
    shape of every exact plurigenus formula and every branch bound here."""

    const: int
    linear: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # every field an int, every pair (a >= 0, m >= 1): the fast test
        # sends any other value, and any int subclass, to ``_check_int``
        try:
            given = tuple(self.pairs)
            pairs = tuple(
                (a, m) for a, m in given
                if type(a) is int is type(m) and a >= 0 and m >= 1
            )
        except (TypeError, ValueError):  # not an iterable of 2-item pairs
            raise InvalidInputError("pairs must be a sequence of (a, m) pairs") from None
        typed = type(self.const) is int and type(self.linear) is int
        if not typed or len(pairs) != len(given):
            _check_int("const", self.const)
            _check_int("linear", self.linear)
            pairs = tuple((_check_int("a", a, 0), _check_int("m", m, 1)) for a, m in given)
        object.__setattr__(self, "pairs", pairs)

    def value(self, n: int) -> int:
        if type(n) is not int or n < 0:
            _check_int("n", n, 0)
        v = self.const + self.linear * n
        for a, m in self.pairs:
            v += n * a // m
        return v

    def series(self, n_max: int) -> list[int]:
        """P_0 .. P_n_max in one pass, reading P_0 = 1 and P_n =
        max(0, value(n)) for n >= 1."""
        if type(n_max) is not int or n_max < 0:
            _check_int("n_max", n_max, 0)
        const, linear, pairs = self.const, self.linear, self.pairs
        out = [1]
        for n in range(1, n_max + 1):
            v = const + linear * n
            for a, m in pairs:
                v += n * a // m
            out.append(v if v > 0 else 0)
        return out

    def growth(self) -> Fraction:
        g = Fraction(self.linear)
        for a, m in self.pairs:
            g += Fraction(a, m)
        return g

    def period(self) -> int:
        return lcm(*(m for _, m in self.pairs))

    def eventually_at_least(self, threshold: int, target: int) -> bool:
        """Exact decision of ``value(n) >= target for all n >= threshold``.

        In integers over the period P: value(n + P) = value(n) + rise with
        rise = P*growth, and value(n) >= const + (n*rise - loss)/P with
        loss = sum (m-1)*(P/m).  So with rise > 0 the envelope clears the
        target from n* = ceil(((target - const)*P + loss) / rise) on, and
        a value below n* is at least its translate one period earlier:
        only [threshold, min(n*, threshold + P)) needs scanning.  Zero rise
        is periodic (scan one period); negative rise fails eventually.
        """
        period = self.period()
        rise = self.linear * period
        loss = 0
        for a, m in self.pairs:
            rise += a * (period // m)
            loss += (m - 1) * (period // m)
        if rise < 0:
            return False
        n_hi = threshold + period
        if rise > 0:
            envelope = -((-(target - self.const) * period - loss) // rise)
            n_hi = min(n_hi, max(threshold, envelope))
        return all(self.value(n) >= target for n in range(threshold, n_hi))
