"""Numerical model of a relatively minimal (quasi-)elliptic fibration of
Kodaira dimension one, together with the exact plurigenus arithmetic.

A fibration over a base curve of genus ``g`` is recorded by the
characteristic ``p`` of the ground field, ``chi`` = chi(O_S), a flag for
the quasi-elliptic case, and the list of multiple fibres.  Each multiple
fibre carries its multiplicity ``m``, the canonical-bundle coefficient
``a`` (the numerical class of the canonical divisor is
``d*F + sum a_i F'_i`` with ``d = 2g - 2 + chi + t``), the torsion order
``nu`` of the normal sheaf of the reduced fibre, the exponent ``e`` with
``m = nu * p**e``, and the local torsion length ``t``.

On a genus-zero base the n-th plurigenus is exactly

    P_n = max(0, 1 + n*d + sum_i floor(n * a_i / m_i))        (n >= 1)

and everything here is integer / ``Fraction`` arithmetic; no floats.
On a positive-genus base only lower bounds are determined by the
numerical data, one per branch (``plurigenus_form``), flagged inexact.

Constructors enforce structural well-formedness only (field types and
ranges).  The model-level rules (torsion divisibility, tame coefficient
forcing, the wild power relation, slope positivity, condition U, the
quasi-elliptic restrictions) are checked by ``verifier.is_admissible``,
which reports named violations instead of raising.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .congruence import QuasiLinearForm
from .errors import (
    InvalidInputError,
    UnsupportedInputError,
    _check_int,
    _check_tuple,
    _int_text,
)

# Bound of every cache keyed on caller input (the per-fibre rule cache,
# factorizations, torsion lengths, wild fibre menus, large-degree rows,
# tame fibres).  The default sweep meets a few hundred keys per cache; a
# longer stream of arbitrary inputs evicts the least recently used entries.
FIBRE_RULE_CACHE_SIZE = 4096


@lru_cache(maxsize=FIBRE_RULE_CACHE_SIZE)
def factorization(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n as ascending (prime, exponent) pairs, by
    trial division; empty for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    return factorization(n) == ((n, 1),)


# The largest characteristic accepted.  Primality is decided by trial
# division, about sqrt(p) steps: a few milliseconds at this bound, more
# than 20 s at 2**61 - 1.
MAX_CHARACTERISTIC = 10**9


def validate_characteristic(p: int) -> int:
    """A characteristic is 0 or a prime number; one past
    ``MAX_CHARACTERISTIC`` raises ``UnsupportedInputError``."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise InvalidInputError(f"characteristic must be an integer, got {p!r}")
    if p > MAX_CHARACTERISTIC:
        raise UnsupportedInputError(
            f"characteristic {_int_text(p)} exceeds "
            f"MAX_CHARACTERISTIC = {MAX_CHARACTERISTIC}"
        )
    if p != 0 and not is_prime(p):
        raise InvalidInputError(
            f"characteristic must be 0 or prime, got {_int_text(p)}"
        )
    return p


@dataclass(frozen=True, slots=True)
class FibreDatum:
    """One multiple fibre: multiplicity m, canonical coefficient a,
    torsion order nu, power exponent e, and local torsion length t.

    ``t == 0`` means the fibre is tame, ``t >= 1`` wild.  Only shape
    constraints are enforced here; see the module docstring.
    """

    m: int
    a: int
    nu: int
    e: int
    t: int

    def __post_init__(self):
        _check_int("m", self.m, 2)
        _check_int("a", self.a, 0)
        if self.a >= self.m:
            raise InvalidInputError(
                f"need 0 <= a < m, got a={_int_text(self.a)}, m={_int_text(self.m)}"
            )
        _check_int("nu", self.nu, 1)
        _check_int("e", self.e, 0)
        _check_int("t", self.t, 0)

    @property
    def wild(self) -> bool:
        return self.t >= 1

    @property
    def sort_key(self) -> tuple[int, int, int, int]:
        return (self.m, self.nu, self.t, self.a)

    @classmethod
    def tame(cls, m: int) -> "FibreDatum":
        """Tame fibre: coefficient m-1 and torsion order m, one shared
        instance per m (``_tame_fibre``).  ``_check_int`` rejects any m
        that is not an int >= 2 with ``InvalidInputError``."""
        if type(m) is not int or m < 2:
            _check_int("m", m, 2)
        return _tame_fibre(m)

    @classmethod
    def wild_fibre(cls, p: int, nu: int, e: int, t: int, a: int) -> "FibreDatum":
        """Wild fibre with multiplicity nu * p**e."""
        validate_characteristic(p)
        if p == 0:
            raise InvalidInputError("wild fibres need positive characteristic")
        _check_int("e", e, 1)
        _check_int("t", t, 1)
        return cls(m=nu * p**e, a=a, nu=nu, e=e, t=t)

    def to_dict(self) -> dict:
        return {"m": self.m, "a": self.a, "nu": self.nu, "e": self.e, "t": self.t}

    @classmethod
    def from_dict(cls, data: dict) -> "FibreDatum":
        if not isinstance(data, dict):
            raise InvalidInputError(f"fibre must be an object, got {data!r}")
        keys = {"m", "a", "nu", "e", "t"}
        if set(data) != keys:
            raise InvalidInputError(
                f"fibre keys must be exactly {sorted(keys)}, got {sorted(data)}"
            )
        return cls(m=data["m"], a=data["a"], nu=data["nu"], e=data["e"], t=data["t"])


@lru_cache(maxsize=FIBRE_RULE_CACHE_SIZE)
def _tame_fibre(m: int) -> FibreDatum:
    """The one shared tame fibre of multiplicity m (``FibreDatum.tame``)."""
    return FibreDatum(m=m, a=m - 1, nu=m, e=0, t=0)


@dataclass(frozen=True, slots=True)
class FibrationNumericalType:
    """Complete numeric record of a fibration of Kodaira dimension one.

    Fibres are canonicalized on construction: sorted ascending by
    (m, nu, t, a).  Types and fibres are slotted immutable values (no
    per-instance ``__dict__``), hashable and picklable, so they can be
    shared freely between concurrent workers.  ``FibreDatum.tame``
    returns one shared instance per multiplicity, so object identity is
    not part of the API: compare with ``==``.  ``torsion_length``, the
    total length t of the torsion part of the direct image, is derived
    from the fibres once on construction; it takes no part in equality,
    hashing, ``repr`` or ``to_dict``.
    """

    p: int
    g: int
    chi: int
    quasi_elliptic: bool
    fibres: tuple[FibreDatum, ...]
    existence_unknown: bool = False
    torsion_length: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        validate_characteristic(self.p)
        _check_int("g", self.g, 0)
        _check_int("chi", self.chi)  # negative chi is a reported violation
        if not isinstance(self.quasi_elliptic, bool):
            raise InvalidInputError("quasi_elliptic must be a boolean")
        if not isinstance(self.existence_unknown, bool):
            raise InvalidInputError("existence_unknown must be a boolean")
        fibres = _check_tuple("fibres", self.fibres)
        for f in fibres:
            if not isinstance(f, FibreDatum):
                raise InvalidInputError(f"fibres must contain FibreDatum, got {f!r}")
        fibres = tuple(sorted(fibres, key=lambda f: f.sort_key))
        object.__setattr__(self, "fibres", fibres)
        object.__setattr__(self, "torsion_length", sum(f.t for f in fibres))

    @property
    def r(self) -> int:
        """Number of multiple fibres."""
        return len(self.fibres)

    @property
    def sort_key(self):
        return (
            self.p,
            self.g,
            self.chi,
            self.torsion_length,
            int(self.quasi_elliptic),
            self.r,
            tuple(f.sort_key + (f.e,) for f in self.fibres),
            int(self.existence_unknown),
        )

    @classmethod
    def tame_type(
        cls,
        multiplicities,
        *,
        p: int = 0,
        g: int = 0,
        chi: int = 0,
        quasi_elliptic: bool = False,
    ) -> "FibrationNumericalType":
        return cls(
            p=p,
            g=g,
            chi=chi,
            quasi_elliptic=quasi_elliptic,
            fibres=tuple(FibreDatum.tame(m) for m in multiplicities),
        )

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "g": self.g,
            "chi": self.chi,
            "quasi_elliptic": self.quasi_elliptic,
            "fibres": [f.to_dict() for f in self.fibres],
            "existence_unknown": self.existence_unknown,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FibrationNumericalType":
        if not isinstance(data, dict):
            raise InvalidInputError(f"type must be a JSON object, got {data!r}")
        required = {"p", "g", "chi", "quasi_elliptic", "fibres"}
        allowed = required | {"existence_unknown"}
        if not required <= set(data) or not set(data) <= allowed:
            raise InvalidInputError(
                f"type keys must be {sorted(required)} (+ optional existence_unknown), "
                f"got {sorted(data)}"
            )
        if not isinstance(data["fibres"], list):
            raise InvalidInputError("fibres must be a list")
        return cls(
            p=data["p"],
            g=data["g"],
            chi=data["chi"],
            quasi_elliptic=data["quasi_elliptic"],
            fibres=tuple(FibreDatum.from_dict(f) for f in data["fibres"]),
            existence_unknown=data.get("existence_unknown", False),
        )

    @classmethod
    def from_json(cls, text: str) -> "FibrationNumericalType":
        try:
            data = json.loads(text)
        except ValueError as exc:  # also an integer past the digit limit
            raise InvalidInputError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)


@dataclass(frozen=True, slots=True)
class PlurigenusValue:
    """An n-th plurigenus: exact when ``exact`` is true, otherwise a
    guaranteed lower bound (positive-genus base)."""

    n: int
    value: int
    exact: bool

    def __post_init__(self):
        _check_int("n", self.n, 0)
        _check_int("value", self.value, 0)
        if self.n == 0 and (self.value != 1 or not self.exact):
            raise InvalidInputError("P_0 is exactly 1")


def delta_degree(t: FibrationNumericalType) -> int:
    """Degree d = 2g - 2 + chi + t of the base divisor in the canonical
    bundle formula."""
    return 2 * t.g - 2 + t.chi + t.torsion_length


def slope(t: FibrationNumericalType) -> Fraction:
    """Per-n growth rate d + sum a_i/m_i of the pluricanonical degree.

    Positive slope is the admissibility surrogate for Kodaira dimension
    one on a relatively minimal fibration with K^2 = 0.
    """
    s = Fraction(delta_degree(t))
    for f in t.fibres:
        s += Fraction(f.a, f.m)
    return s


def geometric_genus(t: FibrationNumericalType) -> int:
    """p_g = max(0, d + 1); established only over a genus-zero base."""
    if t.g != 0:
        raise UnsupportedInputError(
            "geometric genus from numerical data is only available for g = 0"
        )
    return max(0, delta_degree(t) + 1)


def _plurigenus_terms(t: FibrationNumericalType):
    """(const, linear, fibres) with P_n >= const + linear*n + sum over the
    fibres of floor(n*a/m) for n >= 1, one branch of the analysis each:

    - g = 0                  ->  1 + n*d + sum floor(n*a_i/m_i)  (exact)
    - g >= 1, chi + t >= 1   ->  g + n - 1
    - g >= 2, chi = t = 0    ->  (2n - 1)(g - 1)
    - g = 1,  chi = t = 0    ->  sum floor(n*a_i/m_i)
    """
    if t.g == 0:
        return 1, t.chi + t.torsion_length - 2, t.fibres
    if t.chi + t.torsion_length >= 1:
        return t.g - 1, 1, ()
    if t.g >= 2:
        return 1 - t.g, 2 * (t.g - 1), ()
    return 0, 0, t.fibres


def plurigenus_form(t: FibrationNumericalType) -> QuasiLinearForm:
    """The form F with P_n = max(0, F(n)) for g = 0, and P_n >= F(n) for
    g >= 1 (n >= 1).  Its fields come from the validated fields of ``t``
    and its fibres (ints, 0 <= a < m), so it is built without the
    form's own re-validation."""
    const, linear, fibres = _plurigenus_terms(t)
    pairs = tuple((f.a, f.m) for f in fibres)
    return QuasiLinearForm._trusted(const, linear, pairs)


def exact_form(t: FibrationNumericalType) -> QuasiLinearForm:
    """P_n = max(0, form.value(n)) for genus-zero types."""
    if t.g != 0:
        raise UnsupportedInputError("exact plurigenus form needs g = 0")
    return plurigenus_form(t)


def plurigenus(t: FibrationNumericalType, n: int) -> PlurigenusValue:
    """The n-th plurigenus: exact for g = 0, the strongest applicable
    lower bound (flagged) for g >= 1."""
    _check_int("n", n, 0)
    if n == 0:
        return PlurigenusValue(0, 1, True)
    return PlurigenusValue(n, max(0, plurigenus_form(t).value(n)), t.g == 0)


# The longest series ``plurigenera_series`` computes (``compute --n-max``):
# one value per n is kept and printed, so an unbounded n_max is unbounded
# memory and output.
MAX_SERIES_N = 10_000


def plurigenera_series(t: FibrationNumericalType, n_max: int) -> list[PlurigenusValue]:
    """P_0 .. P_n_max, exact or flagged as ``plurigenus`` flags them, from
    one pass over ``plurigenus_form``; raises ``InvalidInputError`` past
    ``MAX_SERIES_N``."""
    _check_int("n_max", n_max, 0, MAX_SERIES_N)
    values = plurigenus_form(t).series(n_max)
    return [PlurigenusValue(n, v, n == 0 or t.g == 0) for n, v in enumerate(values)]
