"""Case partition of the genus-zero analysis and its branch bounds.

Every admissible genus-zero type falls into one (chi, t) cell of the
analysis, and ``cell_row`` returns the cell's one row: its case label,
its branch, its class certificates and the residual the certified sweep
checks type by type.  The cells with chi + t <= 2 are the constant table
``_CELL_ROWS``; every cell with chi + t >= 3 has the easy-large-degree
row of its base degree d = chi + t - 2.

For each type the branch supplies a quasi-linear lower bound for P_n;
``replay_type`` rebuilds it for a concrete type, checks the structural
side claims the derivation makes (divisor-closure shapes, coefficient
branches, torsion-order divisibilities), and certifies the bound
termwise against the exact formula, which proves bound(n) <= P_n for
every n at once.  Each branch is one ``_*_bound`` function that returns
its bound (``None`` when the bound is the exact form) or raises the
first claim the type fails; ``replay_type`` reports that claim.

The class certificates of a row are the bounds that cover whole shape
classes regardless of the multiplicity details (e.g. "five or more
multiple fibres").  The exhaustive verifier materializes only the
finitely many shapes outside these classes: the row's residual.  Every
statement, on a type's exact form or a certificate's bound, is read
from one ``StatementCheck``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .congruence import QuasiLinearForm
from .errors import UnsupportedInputError, _check_int
from .model import (
    FIBRE_RULE_CACHE_SIZE,
    FibrationNumericalType,
    _check_type,
    exact_form,
)

HALF = (1, 2)


def form_dominates(exact: QuasiLinearForm, bound: QuasiLinearForm) -> bool:
    """Termwise certificate that bound.value(n) <= exact.value(n) for all
    n >= 0: constants and linear parts compare, and the bound's floor
    ratios embed into the exact ones (largest against largest).  The
    ratios a/m are compared as the integers a*(P/m) over one common
    period P, the lcm of every m in both forms, which order them the
    same."""
    if bound.const > exact.const or bound.linear > exact.linear:
        return False
    if len(bound.pairs) > len(exact.pairs):
        return False
    period = lcm(*(m for _, m in exact.pairs), *(m for _, m in bound.pairs))
    exact_keys = sorted((a * (period // m) for a, m in exact.pairs), reverse=True)
    bound_keys = sorted((a * (period // m) for a, m in bound.pairs), reverse=True)
    return all(b <= e for b, e in zip(bound_keys, exact_keys))


@dataclass(frozen=True, slots=True)
class StatementCheck:
    """The one evaluator of the four growth statements on a form F,
    reading P_n = max(0, F(n)): the series P_0 .. P_upto from one pass
    (upto >= 14), the least n <= 14 with P_n >= 1 and with P_n >= 2
    (``None`` past 14), and whether P_n >= 2 for every n >= 14 (decided
    exactly, by P_14 alone when linear >= 0).  On an exact form these are
    the statements themselves; on a lower bound they are sufficient
    conditions."""

    series: tuple[int, ...]
    first_ge1: int | None
    first_ge2: int | None
    tail: bool

    @classmethod
    def from_form(cls, form: QuasiLinearForm, upto: int = 14) -> "StatementCheck":
        if type(upto) is not int or upto < 14:  # the statements read P_1 .. P_14
            _check_int("upto", upto, 14)
        series = tuple(form.series(upto))
        first1 = first2 = None
        for n in range(1, 15):
            if series[n] >= 1:
                if first1 is None:
                    first1 = n
                if series[n] >= 2:
                    first2 = n
                    break
        if form.linear >= 0:  # the form cannot fall, so P_14 decides
            return cls(series, first1, first2, series[14] >= 2)
        return cls(series, first1, first2, form.eventually_at_least(14, 2))

    @property
    def p12(self) -> int:
        return self.series[12]

    @property
    def p13(self) -> int:
        return self.series[13]

    @property
    def statements(self) -> tuple[bool, int | None, int | None, bool]:
        """(stmt1, stmt2_witness, stmt3_witness, stmt4): P_12 >= 2, the
        least n <= 4 with P_n >= 1, the least n <= 8 with P_n >= 2 (``None``
        when there is none), and P_n >= 2 for every n >= 14."""
        first1, first2 = self.first_ge1, self.first_ge2
        return (
            self.p12 >= 2,
            first1 if first1 is not None and first1 <= 4 else None,
            first2 if first2 is not None and first2 <= 8 else None,
            self.tail,
        )

    @property
    def failed(self) -> tuple[str, ...]:
        """Names of the statements that do not hold, in order (a witness
        is n >= 1, so only a missing one is falsy)."""
        return tuple(f"stmt{i}" for i, ok in enumerate(self.statements, 1) if not ok)


@dataclass(frozen=True, slots=True)
class CaseReplay:
    """Outcome of replaying the branch analysis on one type."""

    label: str
    bound: QuasiLinearForm | None
    dominated: bool
    claim_failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.dominated and not self.claim_failures


class _ClaimFailed(Exception):
    """A structural claim of a branch that the replayed type fails; the
    message names the branch and the claim."""


def _bound(linear: int, *pairs: tuple[int, int]) -> QuasiLinearForm:
    """1 + linear*n + sum floor(n*a/m), the shape of every branch bound.
    The branch bounds are module constants, each built and validated once,
    not once per replayed type."""
    return QuasiLinearForm(1, linear, pairs)


_MAX_COEFFICIENT = _bound(0, HALF)  # some fibre has a = m-1
_WILD_NU1 = _bound(0, (1, 3))
_WILD_NU = _bound(0, (1, 4))


def _single_wild_bound(nu: int):
    return _WILD_NU1 if nu == 1 else _WILD_NU


def _case1_bound(t):
    if any(f.a == f.m - 1 for f in t.fibres):
        return _MAX_COEFFICIENT
    if t.r != 1:
        raise _ClaimFailed("case1: no maximal coefficient forces a single wild fibre")
    w = t.fibres[0]
    if w.a != w.m - 1 - w.nu or w.a < 1:
        raise _ClaimFailed("case1: lone wild fibre must have a = m-1-nu > 0")
    if w.nu == 1 and w.m < 3:
        raise _ClaimFailed("case1: nu = 1 branch needs m >= 3")
    return _single_wild_bound(w.nu)


_CASE2_P_NU1 = _bound(0, (4, 9))
_CASE2_P_NU = _bound(0, (1, 8))


def _case2_bound(t):
    if any(f.a == f.m - 1 for f in t.fibres):
        return _MAX_COEFFICIENT
    if any(not f.wild for f in t.fibres):
        raise _ClaimFailed("case2: tame fibres carry the maximal coefficient")
    if t.r == 2:
        if any(f.a != f.m - 1 - f.nu for f in t.fibres):
            raise _ClaimFailed("case2: two singly-wild fibres must have a = m-1-nu")
        positive = [f for f in t.fibres if f.a > 0]
        if not positive:
            raise _ClaimFailed("case2: positive slope needs some a > 0")
        if any(f.nu == 1 and f.m >= 3 for f in positive):
            return _WILD_NU1
        if all(f.nu == 1 for f in positive):
            raise _ClaimFailed("case2: nu = 1 fibre with a > 0 needs m >= 3")
        return _WILD_NU
    if t.r != 1:
        raise _ClaimFailed("case2: all-wild types have one or two fibres")
    w = t.fibres[0]
    if w.a == w.m - 1 - w.nu:
        if w.nu == 1 and w.m < 3:
            raise _ClaimFailed("case2: nu = 1 branch needs m >= 3")
        return _single_wild_bound(w.nu)
    if w.a == w.m - 1 - 2 * w.nu:
        # pointwise weaker sibling coefficient, clamped at zero
        weaker = max(0, w.m - 1 - (t.p + 1) * w.nu)
        return QuasiLinearForm(1, 0, ((weaker, w.m),))
    if w.a == w.m - 1 - (t.p + 1) * w.nu:
        return _CASE2_P_NU1 if w.nu == 1 else _CASE2_P_NU
    raise _ClaimFailed("case2: coefficient outside the torsion-length-2 set")


_THREE_HALVES = _bound(-1, HALF, HALF, HALF)
_CASE3_R3 = _bound(-1, (2, 3), HALF)
_CASE3_M22 = _bound(-1, (1, 4), HALF, HALF)
_CASE3_PE4_NU1 = _bound(-1, HALF, (3, 4))
_CASE3_P5_NU1 = _bound(-1, (3, 5), (4, 5))
_CASE3_P3_NU1 = _bound(-1, (7, 9), (2, 3))
_CASE3_P2_NU1 = _bound(-1, (3, 4), HALF)
_CASE3_PE4 = _bound(-1, (5, 8), HALF)
_CASE3_PE3_NU2 = _bound(-1, HALF, (5, 6))
_CASE3_PE3 = _bound(-1, (5, 9), (2, 3))
_CASE3_PE2_NU = _bound(-1, (3, 8), (3, 4))
_CASE3_PE2_2NU = _bound(-1, (1, 3), (5, 6))


def _case3_bound(t):
    wilds = [f for f in t.fibres if f.wild]
    if len(wilds) != 1:
        raise _ClaimFailed("case3: exactly one wild fibre")
    w = wilds[0]
    tame = [f for f in t.fibres if not f.wild]
    if t.r >= 4 or (t.r == 3 and w.a == w.m - 1):
        return _THREE_HALVES
    if t.r == 3:
        if w.a != w.m - 1 - w.nu:
            raise _ClaimFailed("case3: r=3 coefficient must be m-1 or m-1-nu")
        if w.a == 0 or any(f.m >= 3 for f in tame):
            if w.a == 0 and all(f.m < 3 for f in tame):
                raise _ClaimFailed("case3: a=0 with both tame multiplicities 2 "
                                   "contradicts positivity")
            return _CASE3_R3
        # both tame multiplicities equal 2: condition U forces nu | 2,
        # and a/m = (m-1-nu)/m >= 1/4 (m >= 4 when nu = 2; m = p >= 3 when nu = 1)
        if w.nu > 2:
            raise _ClaimFailed("case3: (m,2,2) shape needs nu | 2")
        if 4 * w.a < w.m:
            raise _ClaimFailed("case3: (m,2,2) shape needs a/m >= 1/4")
        return _CASE3_M22
    if t.r != 2:
        raise _ClaimFailed("case3: positivity needs r >= 2")
    m2 = tame[0].m
    if w.a == w.m - 1:
        return _CASE3_R3
    if w.a != w.m - 1 - w.nu or w.a <= 0:
        raise _ClaimFailed("case3: r=2 coefficient must be m-1 or m-1-nu > 0")
    if m2 % w.nu != 0 or w.m % m2 != 0:
        raise _ClaimFailed("case3: conditions U force nu | m2 and m2 | m1")
    pe = w.m // w.nu  # p^{e_1}
    if w.nu == 1:
        if pe == 4 and m2 == 4:
            return _CASE3_PE4_NU1
        if t.p >= 5:
            if m2 < 5:
                raise _ClaimFailed("case3: p >= 5 with nu = 1 forces m2 >= 5")
            return _CASE3_P5_NU1
        if t.p == 3:
            if pe < 9 or m2 < 3:
                raise _ClaimFailed("case3: p = 3 with nu = 1 forces e >= 2, m2 >= 3")
            return _CASE3_P3_NU1
        if pe < 8:
            raise _ClaimFailed("case3: p = 2 with nu = 1 forces e >= 3 "
                               "(or the (4,4) shape)")
        return _CASE3_P2_NU1
    if pe >= 4:
        return _CASE3_PE4
    if pe == 3:
        if w.nu == 2:
            if m2 != 6:
                raise _ClaimFailed("case3: p^e = 3, nu = 2 forces m2 = 6")
            return _CASE3_PE3_NU2
        if m2 < 3:
            raise _ClaimFailed("case3: p^e = 3, nu >= 3 forces m2 >= 3")
        return _CASE3_PE3
    # pe == 2
    if m2 == w.nu:
        if w.nu < 4:
            raise _ClaimFailed("case3: p^e = 2 with m2 = nu needs nu >= 4")
        return _CASE3_PE2_NU
    if m2 == 2 * w.nu:
        if w.nu < 3:
            raise _ClaimFailed("case3: p^e = 2 with m2 = 2nu needs nu >= 3")
        return _CASE3_PE2_2NU
    raise _ClaimFailed("case3: p^e = 2 forces m2 in {nu, 2nu}")


_CASE3_TAME_R2 = _bound(-1, HALF, (2, 3))


def _case3_tame_bound(t):
    if t.r >= 3:
        return _THREE_HALVES
    if t.r == 2:
        if t.fibres[1].m < 3:
            raise _ClaimFailed("case3-tame: positivity forces the larger "
                               "multiplicity >= 3")
        return _CASE3_TAME_R2
    raise _ClaimFailed("case3-tame: positivity needs r >= 2")


# each family: its least triple and the bound of the triples above it
_CASE4_FAMILIES = {
    "m1-ge-4": ((4, 4, 4), _bound(-2, (3, 4), (3, 4), (3, 4))),
    "3-6-6": ((3, 6, 6), _bound(-2, (2, 3), (5, 6), (5, 6))),
    "3-4-12": ((3, 4, 12), _bound(-2, (2, 3), (3, 4), (11, 12))),
}
_FIVE_HALVES = _bound(-2, HALF, HALF, HALF, HALF, HALF)
_CASE4_R4 = _bound(-2, HALF, HALF, (2, 3), (2, 3))


def case4_sharp_family(ms: tuple[int, ...]) -> str | None:
    """Membership of a sorted triple in the two minimal m1 = 2 families."""
    if len(ms) != 3 or ms[0] != 2:
        return None
    _, b, c = ms
    if c == 2 * b and b >= 5 and b % 2 == 1:
        return "2-b-2b"
    if b == c and b % 2 == 0 and b >= 6:
        return "2-2a-2a"
    return None


def _case4_bound(t):
    ms = tuple(f.m for f in t.fibres)
    if t.r >= 5:
        return _FIVE_HALVES
    if t.r == 4:
        if not all(m >= w for m, w in zip(ms, (2, 2, 3, 3))):
            raise _ClaimFailed("case4: admissible quadruples dominate (2,2,3,3)")
        return _CASE4_R4
    if t.r != 3:
        raise _ClaimFailed("case4: positivity needs r >= 3")
    if ms[0] >= 4:
        worst, bound = _CASE4_FAMILIES["m1-ge-4"]
        if not all(m >= w for m, w in zip(ms, worst)):
            raise _ClaimFailed("case4: m1 >= 4 triples dominate (4,4,4)")
        return bound
    if ms[0] == 3:
        for key in ("3-6-6", "3-4-12"):
            worst, bound = _CASE4_FAMILIES[key]
            if all(m >= w for m, w in zip(ms, worst)):
                return bound
        raise _ClaimFailed("case4: m1 = 3 triples dominate (3,6,6) or (3,4,12)")
    if case4_sharp_family(ms) is None:
        raise _ClaimFailed("case4: m1 = 2 triples are (2,b,2b), b >= 5 odd, "
                           "or (2,2a,2a), a >= 3")
    return None  # the sharp families are bounded by their exact form


def _easy_chi2_bound(t):
    if t.r < 1:
        raise _ClaimFailed("easy-chi-2: positivity needs a multiple fibre")
    return _MAX_COEFFICIENT


@dataclass(frozen=True, slots=True)
class ClassCertificate:
    """A branch bound valid for every admissible type of a whole shape
    class within one (chi, t) cell; the member test is structural."""

    name: str
    bound: QuasiLinearForm


@dataclass(frozen=True, slots=True)
class CellRow:
    """What the analysis says about one genus-zero (chi, t) cell: its case
    label, the branch that bounds each of its types, the class
    certificates, and the residual the certified sweep checks type by
    type - every wild combination with at most ``tame_cap`` tame fibres
    beside it, or nothing (``None``) when the certificates cover the
    cell whole."""

    label: str
    branch: Callable[[FibrationNumericalType], QuasiLinearForm | None]
    certificates: tuple[ClassCertificate, ...]
    tame_cap: int | None


# The cells with chi + t <= 2.  (1, 0) is not in the printed partition;
# its canonical class has the same degree -1 shape as case 3 with every
# fibre tame.
_CELL_ROWS = {
    (0, 0): CellRow("case4", _case4_bound, (
        # five or more tame fibres
        ClassCertificate("case4-r-ge-5", _FIVE_HALVES),
    ), tame_cap=4),
    (0, 1): CellRow("case3", _case3_bound, (
        # four or more fibres (three tame floors suffice)
        ClassCertificate("case3-r-ge-4", _THREE_HALVES),
    ), tame_cap=2),
    (0, 2): CellRow("case2", _case2_bound, (
        # some fibre has a = m-1 (any tame companion qualifies)
        ClassCertificate("case2-max-coefficient", _MAX_COEFFICIENT),
    ), tame_cap=0),
    (1, 1): CellRow("case1", _case1_bound, (
        # some fibre has a = m-1 (any tame companion qualifies)
        ClassCertificate("case1-max-coefficient", _MAX_COEFFICIENT),
    ), tame_cap=0),
    (1, 0): CellRow("case3-tame", _case3_tame_bound, (
        # two tame fibres; positivity forces multiplicities >= (2,3)
        ClassCertificate("case3-tame-r-2", _CASE3_TAME_R2),
        # three or more tame fibres
        ClassCertificate("case3-tame-r-ge-3", _THREE_HALVES),
    ), tame_cap=None),
    (2, 0): CellRow("easy-chi-2", _easy_chi2_bound, (
        # degree-zero base term with at least one tame fibre
        ClassCertificate("easy-chi-2", _MAX_COEFFICIENT),
    ), tame_cap=None),
}


@lru_cache(maxsize=FIBRE_RULE_CACHE_SIZE)
def _large_degree_row(d: int) -> CellRow:
    # base degree d >= 1 gives P_n >= n*d + 1 for every type of the cell
    bound = QuasiLinearForm(1, d, ())
    return CellRow(
        "easy-large-degree",
        lambda t: bound,
        (ClassCertificate("easy-large-degree", bound),),
        tame_cap=None,
    )


def cell_row(chi: int, t: int) -> CellRow:
    """The row of the genus-zero cell (chi, t); the cells with
    chi + t >= 3 share one row per base degree d = chi + t - 2."""
    if type(chi) is not int or type(t) is not int:
        _check_int("chi", chi)
        _check_int("t", t)
    if chi >= 0 and t >= 0:
        return _large_degree_row(chi + t - 2) if chi + t >= 3 else _CELL_ROWS[chi, t]
    raise UnsupportedInputError(
        f"the case analysis has no cell (chi, t) = ({chi}, {t}); it needs chi, t >= 0"
    )


def replay_type(
    t: FibrationNumericalType, exact: QuasiLinearForm | None = None
) -> CaseReplay:
    """Rebuild the branch bound for one genus-zero type, check the branch's
    structural claims, and certify the bound against the exact formula
    (``exact``, when the caller has already built ``exact_form(t)``)."""
    _check_type(t)
    if t.g != 0:
        raise UnsupportedInputError("the case replay covers genus-zero types")
    row = cell_row(t.chi, t.torsion_length)
    try:
        bound = row.branch(t)
    except _ClaimFailed as failed:
        return CaseReplay(row.label, None, False, (str(failed),))
    if exact is None:
        exact = exact_form(t)
    if bound is None:  # the branch's bound is the exact form itself
        bound = exact
    return CaseReplay(row.label, bound, form_dominates(exact, bound), ())
