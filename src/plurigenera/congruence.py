"""Condition U and the quasi-linear forms of the plurigenus arithmetic.

Condition U_i on sequences (m_1..m_r | nu_1..nu_r) asks for integers
n_1..n_r with n_i = 1 mod nu_i and sum n_j/m_j integral.  Two deciders
are provided: a gcd-based procedure (fast, derived) and an exhaustive
residue search (the oracle the fast one is validated against).
``check_all_U`` validates a fibration's data before it decides every U_i;
``_all_u`` decides them on data its caller has validated.

``QuasiLinearForm`` is const + linear*n + sum floor(n*a/m), validated
when it is built (``_trusted`` builds one from fields its caller has
validated).  ``value(n)`` evaluates one n; ``series(n_max)`` sums a step
list of +1 and -1 steps once, and ``eventually_at_least`` decides a
tail exactly from the form's period.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from math import gcd, lcm

from .errors import (
    InvalidInputError,
    OracleBoundExceededError,
    UnsupportedInputError,
    _check_int,
    _check_ints,
    _int_text,
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
            raise InvalidInputError(f"index i out of range: {_int_text(self.i)}")


def _check_u_data(m, nu) -> None:
    for m_j, nu_j in zip(m, nu):
        if m_j < 2:
            raise InvalidInputError(
                f"multiplicities must be >= 2, got {_int_text(m_j)}"
            )
        if nu_j < 1 or m_j % nu_j != 0:
            raise InvalidInputError(
                f"need nu | m, got nu={_int_text(nu_j)}, m={_int_text(m_j)}"
            )


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

    @classmethod
    def _trusted(cls, const: int, linear: int, pairs: tuple[tuple[int, int], ...]):
        """The form with these fields, built without the checks of
        ``__post_init__``: for callers whose fields are ints already
        validated (every pair a tuple with a >= 0 and m >= 1)."""
        form = object.__new__(cls)
        object.__setattr__(form, "const", const)
        object.__setattr__(form, "linear", linear)
        object.__setattr__(form, "pairs", pairs)
        return form

    def value(self, n: int) -> int:
        if type(n) is not int or n < 0:
            _check_int("n", n, 0)
        v = self.const + self.linear * n
        for a, m in self.pairs:
            v += n * a // m
        return v

    def series(self, n_max: int) -> list[int]:
        """P_0 .. P_n_max, reading P_0 = 1 and P_n = max(0, value(n)) for
        n >= 1, as running sums of a step list.

        With q, b = divmod(a, m), floor(n*a/m) = q*n + floor(n*b/m), and
        floor(n*b/m) rises by 1 at n = ceil(k*m/b) for k >= 1.  When
        2b > m it is n - ceil(n*c/m) with c = m - b, whose ceiling rises
        at n = k*m//c + 1 for k >= 0.  So value(n) - value(n-1) is a
        constant plus +1 and -1 steps, at most n_max/2 + 1 of them per
        pair (n_max/m for a tame pair, c = 1), summed once.  ``value``
        is the per-n oracle the tests hold this against.
        """
        if type(n_max) is not int or n_max < 0:
            _check_int("n_max", n_max, 0)
        pairs = self.pairs
        rate = self.linear
        for a, m in pairs:
            q, b = divmod(a, m)
            rate += q + (2 * b > m)
        steps = [rate] * (n_max + 1)
        steps[0] = self.const
        for a, m in pairs:
            b = a % m
            if 2 * b > m:
                c = m - b
                for k in range((n_max * c - 1) // m + 1):
                    steps[k * m // c + 1] -= 1
            elif b:
                for k in range(1, n_max * b // m + 1):
                    steps[-(-k * m // b)] += 1
        out = list(accumulate(steps))
        out[0] = 1
        if min(out) < 0:
            out = [v if v > 0 else 0 for v in out]
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
