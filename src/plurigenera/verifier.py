"""Admissibility checking, bounded exhaustive enumeration, and machine
verification of the four plurigenus growth statements:

    (1) P_12 >= 2,
    (2) some n <= 4 has P_n >= 1,
    (3) some n <= 8 has P_n >= 2,
    (4) P_n >= 2 for every n >= 14,

all read from one ``cases.StatementCheck`` per form: one series pass and
statement (4) decided exactly through the quasi-linear structure of the
plurigenus formula.

README "The sweep" is the one reference for the sweep pipeline: the two
modes of ``verify_all``, the wild shapes of ``_wild_combos``, the
candidate stream ``_cell_candidates`` and its guard (``_check_totals``,
``_candidate_total``), the integer decisions of ``_cell_types``, the
counted cells (``_count_certified``) and the cell executor
``_map_cells``.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from itertools import chain, combinations_with_replacement, count, groupby, product
from math import comb, gcd, lcm, prod

from .cases import (
    StatementCheck,
    cell_row,
    exact_form,
    replay_type,
)
from .congruence import (
    QuasiLinearForm,
    _all_u,
    check_all_U,  # noqa: F401 - perfbench's tracer wraps verifier.check_all_U
)
from .errors import (
    InadmissibleTypeError,
    InvalidInputError,
    UnsupportedInputError,
    _check_bool,
    _check_int,
    _check_record,
    _check_tuple,
    _int_text,
)
from .fibre_local import (
    achievable_torsion_lengths,
    admissible_coefficients,
)
from .model import (
    FIBRE_RULE_CACHE_SIZE,
    FibrationNumericalType,
    FibreDatum,
    _FIBRE_ORDER,
    _check_type,
    _tame_fibre,
    factorization,
    plurigenus,  # noqa: F401 - perfbench's tracer wraps verifier.plurigenus
    plurigenus_form,
    slope,  # noqa: F401 - perfbench's tracer wraps verifier.slope
    validate_characteristic,
)

MATERIAL_GUARD = 5_000_000

# The largest ``EnumerationBounds.max_mult``.  The condition-U walk and
# the wild fibre menus loop over every multiplicity up to it, so the work
# of a cell grows with it before ``MATERIAL_GUARD`` can refuse the cell:
# at this bound the slowest sweeps measured take about 8 s (README,
# "Work limits"), and no wild fibre's p**e passes
# ``fibre_local.MAX_WILD_POWER``.
MAX_MULT = 256


@dataclass(frozen=True, slots=True)
class AdmissibilityReport:
    admissible: bool
    violations: tuple[str, ...]

    def __post_init__(self):
        if self.admissible != (not self.violations):
            raise InvalidInputError("admissible iff violations empty")

    def to_dict(self) -> dict:
        return {"admissible": self.admissible, "violations": list(self.violations)}


def _h1_at_most_one(g: int, chi: int, t: int) -> bool:
    # On a genus-zero base h^1(O_S) is determined: chi = 1 - h + p_g with
    # p_g = max(0, d+1), giving h = t when chi + t >= 1 and h = 1 otherwise.
    return g == 0 and (t if chi + t >= 1 else 1) <= 1


@lru_cache(maxsize=FIBRE_RULE_CACHE_SIZE)
def _fibre_violations(
    m: int, a: int, nu: int, e: int, t: int, p: int, h1_flag: bool
) -> tuple[str, ...]:
    """The named violations of the local rules of the fibre (m, a, nu, e,
    t) in characteristic ``p``, in ``is_admissible`` order.  Keyed on the
    integer fields rather than the ``FibreDatum``, so that a cache lookup
    hashes and compares plain integers."""
    violations = []
    if t == 0:
        if nu != m or e != 0:
            violations.append("tame-torsion-order")
        if a != m - 1:
            violations.append("tame-coefficient")
        return tuple(violations)
    if p == 0:
        return ("wild-char-zero",)
    power_ok = 1 <= e <= m.bit_length() and m == nu * p**e  # p**e > m past it
    if not power_ok:
        violations.append("wild-power-relation")
    elif t not in achievable_torsion_lengths(nu, e, p):
        violations.append("wild-torsion-length")
    if (a + 1) % nu != 0:
        violations.append("coefficient-divisibility")
    elif power_ok:
        allowed = admissible_coefficients(m, nu, p, t, h1_flag)
        if a not in allowed:
            violations.append("wild-coefficient")
    return tuple(violations)


# The one report of every admissible type; object identity of reports is
# not part of the API.
_ADMISSIBLE = AdmissibilityReport(True, ())


def is_admissible(t: FibrationNumericalType) -> AdmissibilityReport:
    """Apply every model rule and report all named violations, in one pass
    over the fibres.

    A tame fibre that keeps its local rules (t = e = 0, nu = m,
    a = m - 1) has none to report; the local rules of any other fibre
    are memoized per (fibre fields, p, h1 flag) in a least-recently-used
    cache of ``FIBRE_RULE_CACHE_SIZE`` entries.  The slope d + sum a_i/m_i
    is positive iff d*L + sum a_i*(L/m_i) is, with L = lcm(m_i).
    Condition U is decided by ``_all_u`` on the fibres' (m, nu), which
    the fibres have already validated, when every nu divides its m; it is
    not the sweep's ``_shape_u``, so that this stays an oracle
    independent of the generator.  Every admissible type gets the same
    shared report."""
    _check_type(t)
    g, chi, p, tl = t.g, t.chi, t.p, t.torsion_length
    violations: list[str] = ["chi-negative"] if chi < 0 else []
    h1_flag = _h1_at_most_one(g, chi, tl)
    nu_divides = True
    # the slope numerator d*L + sum a*(L/m) over the lcm L of the fibres
    # so far, rescaled whenever a fibre raises L
    big_l, numerator = 1, 2 * g - 2 + chi + tl  # d = delta_degree(t)
    for f in t.fibres:
        m, a, nu = f.m, f.a, f.nu
        if f.t or f.e or nu != m or a != m - 1:
            violations.extend(_fibre_violations(m, a, nu, f.e, f.t, p, h1_flag))
            nu_divides = nu_divides and m % nu == 0
        if big_l % m:
            scale = m // gcd(big_l, m)
            big_l *= scale
            numerator *= scale
        numerator += a * (big_l // m)
    if numerator <= 0:
        violations.append("slope-nonpositive")
    if t.quasi_elliptic:
        if p not in (2, 3):
            violations.append("quasi-elliptic-char")
        if g == 0 and chi == 0:
            violations.append("quasi-elliptic-chi0-base-P1")
    elif g == 0 and chi == 0 and nu_divides:
        if not _all_u([f.m for f in t.fibres], [f.nu for f in t.fibres]):
            violations.append("condition-U")
    if not violations:
        return _ADMISSIBLE
    return AdmissibilityReport(False, tuple(violations))


@dataclass(frozen=True, slots=True)
class MainTheoremReport:
    p12: int
    stmt1: bool
    stmt2_witness: int | None
    stmt3_witness: int | None
    stmt4: bool
    exact: bool
    series: tuple[int, ...]

    def to_dict(self) -> dict:
        return {**asdict(self), "series": list(self.series)}


# [type, form, lcm, check]: the last type admitted, its plurigenus form,
# multiplicity lcm and (once read) ``StatementCheck``, changed in place.
# Holding the frozen type keeps its id from being reused; until a type
# is admitted, the type slot holds a marker that no caller can pass.
_NOTHING_ADMITTED = (object(), None, 0, None)
_last_admitted = list(_NOTHING_ADMITTED)


def _admitted(t: FibrationNumericalType) -> list:
    """``_last_admitted`` once it holds ``t``, or ``InadmissibleTypeError``.
    Compared by identity: a main and a tail query of one type object admit
    it and build its form once; an equal type built apart is admitted anew."""
    memo = _last_admitted
    if t is not memo[0]:
        report = is_admissible(t)  # the module global, which a tracer may wrap
        if not report.admissible:
            raise InadmissibleTypeError(report.violations)
        memo[:] = t, plurigenus_form(t), lcm(*(f.m for f in t.fibres)), None
    return memo


@lru_cache(maxsize=FIBRE_RULE_CACHE_SIZE)
def _kept_check(const: int, linear: int, pairs: tuple, upto: int) -> StatementCheck:
    form = QuasiLinearForm._trusted(const, linear, pairs)
    return StatementCheck.from_form(form, upto)


def _statement_check(form: QuasiLinearForm, upto: int) -> StatementCheck:
    """``StatementCheck.from_form`` of an admitted type's form, memoized on
    the form's fields (hashed in C; no form object is kept) when every
    integer of the entry fits in 63 bits: with pairs 0 <= a < m by
    ascending m, each P_n is at most |const| + n*(|linear| + #pairs)."""
    if type(upto) is not int or upto < 14:
        _check_int("upto", upto, 14)
    pairs = form.pairs
    top = abs(form.const) + upto * (abs(form.linear) + len(pairs))
    if (top | (pairs[-1][1] if pairs else 0)) >> 63:
        return StatementCheck.from_form(form, upto)
    return _kept_check(form.const, form.linear, pairs, upto)


def verify_main_theorem(t: FibrationNumericalType) -> MainTheoremReport:
    """Evaluate the four statements.  Exact for g = 0; computed from the
    guaranteed lower bounds (hence conservative) for g >= 1.

    The audit series covers P_0 .. P_(14 + 2*lcm) when the multiplicity
    lcm is small enough to print (<= 120), and P_0 .. P_40 otherwise;
    statement (4) is always decided exactly either way.  The series and
    the statements are read from one ``StatementCheck`` of the
    ``plurigenus_form``, shared by every type with that form."""
    memo = _admitted(t)
    _, form, period, check = memo
    if check is None:
        upto = 14 + 2 * period if period <= 120 else 40
        check = memo[3] = _statement_check(form, upto)
    return MainTheoremReport(check.p12, *check.statements, t.g == 0, check.series)


def verify_tail(t: FibrationNumericalType, threshold: int, target: int) -> bool:
    """Exactly decide ``P_n >= target for all n >= threshold`` (g = 0).
    The arguments are checked in order, then the type is admitted as
    ``verify_main_theorem`` admits it; right after a main query of the
    same type object it reuses that admission, form and statement (4)."""
    if type(threshold) is not int or threshold < 0:  # others are checked
        _check_int("threshold", threshold, 0)
    if type(target) is not int:
        _check_int("target", target)
    _check_type(t)
    if t.g != 0:
        raise UnsupportedInputError("verify_tail requires a genus-zero base")
    _, form, _, check = _admitted(t)
    if target <= 0:
        return True
    if check is not None and threshold == 14 and target == 2:
        return check.tail
    return form.eventually_at_least(threshold, target)


# ---------------------------------------------------------------------------
# enumeration


@dataclass(frozen=True, slots=True)
class EnumerationBounds:
    max_mult: int = 30
    max_fibres: int = 8
    max_chi_plus_t: int = 4
    characteristics: tuple[int, ...] = (0, 2, 3, 5, 7)
    include_wild: bool = True
    include_quasi_elliptic: bool = True

    def __post_init__(self):
        _check_int("max_mult", self.max_mult, 2)
        if self.max_mult > MAX_MULT:
            raise UnsupportedInputError(
                f"max_mult {_int_text(self.max_mult)} exceeds MAX_MULT = {MAX_MULT}"
            )
        _check_int("max_fibres", self.max_fibres, 1)
        _check_int("max_chi_plus_t", self.max_chi_plus_t, 0)
        _check_bool("include_wild", self.include_wild)
        _check_bool("include_quasi_elliptic", self.include_quasi_elliptic)
        given = _check_tuple("characteristics", self.characteristics)
        ps = sorted({validate_characteristic(p) for p in given})
        object.__setattr__(self, "characteristics", tuple(ps))

    def to_dict(self) -> dict:
        return {**asdict(self), "characteristics": list(self.characteristics)}


@lru_cache(maxsize=FIBRE_RULE_CACHE_SIZE)
def _wild_data(p: int, t_j: int, max_mult: int) -> tuple[tuple, ...]:
    """All wild fibre records with torsion length t_j and m <= max_mult,
    for every e with p^e <= max_mult, grouped by their (m, nu) shape:
    ``(m, nu, records)`` triples sorted by (m, nu), each group's records
    sorted by a."""
    groups = []
    for e in range(1, max_mult.bit_length()):  # 2^e <= max_mult below it
        q = p**e
        for nu in range(1, max_mult // q + 1):
            if t_j not in achievable_torsion_lengths(nu, e, p):
                continue
            m = nu * q
            records = tuple(
                FibreDatum(m=m, a=a, nu=nu, e=e, t=t_j)
                for a in sorted(admissible_coefficients(m, nu, p, t_j))
            )
            groups.append((m, nu, records))  # never empty: a = m - 1 is allowed
    return tuple(sorted(groups, key=lambda group: group[:2]))


def _shape_weight(shape) -> int:
    """The number of wild combinations behind a shape."""
    weight = 1
    for (_, _, fs), run in groupby(shape):
        k = len(list(run))
        weight *= comb(len(fs) + k - 1, k)
    return weight


def _expand(shape):
    """The wild combinations behind a shape, each once: per run of equal
    groups, the multisets of that size of the group's records."""
    runs = [(fs, len(list(run))) for (_, _, fs), run in groupby(shape)]
    for parts in product(*(combinations_with_replacement(fs, k) for fs, k in runs)):
        yield tuple(chain.from_iterable(parts))


def _torsion_partitions(
    t: int, max_fibres: int, parts: list[int]
) -> list[list[tuple[int, int]]]:
    """Every partition of t into at most ``max_fibres`` torsion lengths
    t_j drawn from ``parts`` (ascending, >= 1), the fewest parts first,
    each as its (t_j, count) runs in ascending t_j; t = 0 has the one
    empty partition.  A branch is cut once its free parts cannot reach t
    even at the largest t_j, so a large t with few or small parts costs
    little."""
    largest = max(parts, default=0)

    def ascending(left: int, first: int, room: int):
        if left == 0:
            yield ()
        elif left <= room * largest:
            for i in range(first, len(parts)):
                if parts[i] > left:
                    break
                for rest in ascending(left - parts[i], i, room - 1):
                    yield (parts[i],) + rest

    found = sorted(ascending(t, 0, max_fibres), key=len)
    return [[(t_j, len(list(run))) for t_j, run in groupby(ps)] for ps in found]


def _wild_combos(p: int, t: int, max_fibres: int, max_mult: int):
    """Every wild shape of torsion length t with at most ``max_fibres``
    fibres, once, with its weight: its groups in ascending t_j, and the
    shapes with the fewest fibres first.  A partition's first run streams;
    its later runs are joined into their (tail, weight) pairs once per
    partition."""

    def run(t_j: int, k: int):
        for part in combinations_with_replacement(_wild_data(p, t_j, max_mult), k):
            yield part, _shape_weight(part)

    parts = [t_j for t_j in range(1, t + 1) if _wild_data(p, t_j, max_mult)]
    for runs in _torsion_partitions(t, max_fibres, parts):
        tails = [
            (tuple(chain.from_iterable(s for s, _ in rest)), prod(w for _, w in rest))
            for rest in product(*(list(run(*r)) for r in runs[1:]))
        ]
        for part, weight in run(*runs[0]) if runs else [((), 1)]:
            for tail, tail_weight in tails:
                yield part + tail, weight * tail_weight


def _multisets_upto(max_mult: int, max_size: int):
    values = range(2, max_mult + 1)
    for k in range(max_size + 1):
        yield from combinations_with_replacement(values, k)


@lru_cache(maxsize=FIBRE_RULE_CACHE_SIZE)
def _u_masks(m: int, nu: int) -> tuple[int, int]:
    """Bit masks over prime powers (bit q^v for q^v): the needs of a fibre
    (m, nu), the q^v exactly dividing m for each prime q | nu, and what it
    covers, every prime power dividing m."""
    needs = covers = 0
    for q, v in factorization(m):
        if nu % q == 0:
            needs |= 1 << q**v
        for w in range(1, v + 1):
            covers |= 1 << q**w
    return needs, covers


def _u_fold(pairs) -> tuple[int, int, int]:
    """Fibres, given by their (m, nu) pairs, folded into the condition-U
    masks (needs, once, twice): the needs of every fibre, and the prime
    powers that one fibre, or at least two, cover.  U_i holds when the
    q-valuation of m_i is matched by another fibre for every prime q | nu_i,
    so U holds for the folded fibres and no others when ``needs & ~twice``
    is 0: a need q^v of one fibre must divide the m of another, and it
    covers q^v itself."""
    needs = once = twice = 0
    for m, nu in pairs:
        need, cover = _u_masks(m, nu)
        needs |= need
        twice |= once & cover
        once |= cover
    return needs, once, twice


def _shape_u(shape) -> bool:
    """Condition U for the fibres of a wild shape and no others."""
    needs, _, twice = _u_fold((m, nu) for m, nu, _ in shape)
    return not needs & ~twice


def _covered_companions(max_mult: int, max_size: int, wilds):
    """Tame companion multisets compatible with condition U (streamed),
    beside wild fibres given by their (m, nu) pairs, each ascending, and
    all sorted by their values read from the largest down (``c[::-1]``).

    The walk places values in descending order, folding each into the
    ``_u_fold`` masks that it carries down, so backtracking undoes
    nothing; a tame fibre has nu = m, and k copies of one value fold it k
    times.  A multiset is yielded when no need is due (``needs & ~twice``
    is 0).  Only a value >= q^v can cover a due q^v, and the bit index of
    q^v is q^v itself, so the largest due bit is the branch's deadline:
    values below it are never tried.
    """

    def walk(v: int, slots: int, needs: int, once: int, twice: int, placed):
        due = needs & ~twice
        if not due:
            yield placed
        if slots == 0:
            return
        # skipping a value leaves the masks unchanged, so the walk starts
        # at the deadline (2 when nothing is due); a last value clears
        # each due q^v only if q^v divides it, so it steps through the
        # multiples of their lcm
        low = max(2, due.bit_length() - 1)
        step = 1
        while slots == 1 and due:
            q_v = due.bit_length() - 1
            step, due = lcm(step, q_v), due ^ 1 << q_v
        for u in range(-(-low // step) * step, v + 1, step):
            need, cover = _u_masks(u, u)
            n, o, w, comp = needs, once, twice, placed
            for k in range(slots, 0, -1):  # the fold of ``_u_fold``, inlined
                n, o, w, comp = n | need, o | cover, w | o & cover, (u,) + comp
                yield from walk(u - 1, k - 1, n, o, w, comp)

    yield from walk(max_mult, max_size, *_u_fold(wilds), ())


def _cell_order(bounds: EnumerationBounds):
    """Cells (p, chi, t, quasi_elliptic) for the genus-zero enumeration;
    the one check that the public sweeps were given bounds."""
    _check_record(bounds, EnumerationBounds)
    cells = []
    for p in bounds.characteristics:
        for chi in range(bounds.max_chi_plus_t + 1):
            for t in range(bounds.max_chi_plus_t - chi + 1):
                if t > 0 and (p == 0 or not bounds.include_wild):
                    continue
                for quasi in (False, True):
                    if quasi and (
                        not bounds.include_quasi_elliptic
                        or p not in (2, 3)
                        or chi == 0  # no quasi-elliptic fibration over P^1 with chi=0
                    ):
                        continue
                    cells.append((p, chi, t, quasi))
    return cells


def _existence_unknown(chi: int, g: int, r: int, wild_ts) -> bool:
    """Whether a type with r fibres, whose wild fibres have the torsion
    lengths ``wild_ts``, is flagged: the single doubly-wild shape, and a
    type with a fibre of torsion length t_j >= 3, whose coefficient comes
    from the divisibility superset of ``admissible_coefficients``, not a
    sharp rule."""
    return any(t_j >= 3 for t_j in wild_ts) or (
        chi == 0 and g == 0 and r == 1 and list(wild_ts) == [2]
    )


def _refusal(cell, reason: str) -> UnsupportedInputError:
    """The refusal of a cell that ``reason`` puts past ``MATERIAL_GUARD``."""
    return UnsupportedInputError(
        f"cell {cell} {reason} the materialization guard ({MATERIAL_GUARD}); "
        "tighten the bounds or use the certified sweep"
    )


def _candidate_total(bounds: EnumerationBounds, cell, max_tame: int) -> int:
    """The total that the guard of ``_cell_candidates`` reaches in a cell
    whose companions are all the multisets of the free slots, or none: the
    sum, over the partitions of t into runs of k_j fibres of torsion
    length t_j, of the product of the multiset counts C(N_j + k_j - 1,
    k_j) of the t_j menus of N_j records and C(max_mult - 1 + s, s) of the
    companions, with s = min(max_tame, max_fibres - sum k_j) free slots.
    Raises past ``MATERIAL_GUARD``."""
    p, _, t, _ = cell
    menus = {
        t_j: sum(len(fs) for _, _, fs in _wild_data(p, t_j, bounds.max_mult))
        for t_j in range(1, t + 1)
    }
    parts = [t_j for t_j, size in menus.items() if size]
    total = 0
    for runs in _torsion_partitions(t, bounds.max_fibres, parts):
        s = min(max_tame, bounds.max_fibres - sum(k for _, k in runs))
        companions = comb(bounds.max_mult - 1 + s, s)
        total += companions * prod(comb(menus[t_j] + k - 1, k) for t_j, k in runs)
    if total > MATERIAL_GUARD:
        raise _refusal(cell, f"would test {total} candidates, more than")
    return total


def _check_totals(bounds: EnumerationBounds, cells, materialize_all: bool) -> None:
    """Refuse, before any cell runs, a cell whose ``_candidate_total`` is
    past the guard, at the tame cap its sweep uses: every free slot in
    material mode, the row's ``tame_cap`` (none for a counted cell) in
    certified mode.  It skips the cells whose companions the condition-U
    walk draws, and the tame cells that their row covers whole."""
    for cell in cells:
        _, chi, t, quasi = cell
        cap = bounds.max_fibres if materialize_all else cell_row(chi, t).tame_cap
        if not (cap is None and t == 0 or cap and chi == 0 and not quasi):
            _candidate_total(bounds, cell, cap or 0)


def _cell_candidates(bounds: EnumerationBounds, cell, max_tame: int):
    """Each candidate of one cell as (shape, weight, companion), with at
    most ``max_tame`` tame multiplicities as the companion (README, "The
    sweep"); raises once the summed weights of the candidates and of the
    bare shapes that fail U pass ``MATERIAL_GUARD``."""
    p, chi, t, quasi = cell
    candidates = 0
    u_applies = chi == 0 and not quasi
    for shape, weight in _wild_combos(p, t, bounds.max_fibres, bounds.max_mult):
        slots = min(max_tame, bounds.max_fibres - len(shape))
        if slots == 0:
            companions = ((),) if not u_applies or _shape_u(shape) else (None,)
        elif u_applies:
            pairs = [(m, nu) for m, nu, _ in shape]
            companions = _covered_companions(bounds.max_mult, slots, pairs)
        else:
            companions = _multisets_upto(bounds.max_mult, slots)
        for comp in companions:
            candidates += weight
            if candidates > MATERIAL_GUARD:
                raise _refusal(cell, "exceeds")
            if comp is not None:
                yield shape, weight, comp


def _cell_types(bounds: EnumerationBounds, cell, max_tame: int):
    """The admissible types of one cell that pair a wild combination with
    at most ``max_tame`` tame fibres (``_cell_candidates``), canonically
    sorted.  The tame fibres are the shared ``FibreDatum.tame`` instances
    and the wild ones the ``_wild_data`` records, so the types of a cell
    share their fibre objects.

    Of the rules of ``is_admissible`` only the slope is left to test
    (README, "The sweep"); it is tested on integers, with one L = lcm(m)
    per (shape, companion).  Each survivor is built at once, and the
    constructor puts its fibres in canonical order; the built list is then
    sorted once by flat integer keys read from those fibres (the canonical
    ``sort_key`` compares the number of fibres, then the fibres'
    ``_FIBRE_ORDER`` (m, nu, t, a) in turn; within a cell m = nu*p^e
    fixes e)."""
    p, chi, t, quasi = cell
    d = chi + t - 2  # the base degree of every type of the cell
    found = []
    for shape, _, comp in _cell_candidates(bounds, cell, max_tame):
        tames = tuple(map(_tame_fibre, comp))
        big_l = lcm(*(m for m, _, _ in shape), *comp)
        tame_part = d * big_l + sum((m - 1) * (big_l // m) for m in comp)
        if not shape:
            if tame_part > 0:
                found.append(FibrationNumericalType(p, 0, chi, quasi, tames))
            continue
        scales = [big_l // m for m, _, _ in shape]
        r = len(shape) + len(comp)
        doubt = _existence_unknown(chi, 0, r, [fs[0].t for _, _, fs in shape])
        for wilds in _expand(shape):
            if tame_part + sum(f.a * s for f, s in zip(wilds, scales)) > 0:
                found.append(
                    FibrationNumericalType(p, 0, chi, quasi, wilds + tames, doubt)
                )
    found.sort(
        key=lambda ty: (len(ty.fibres), *chain.from_iterable(map(_FIBRE_ORDER, ty.fibres)))
    )
    return found


def _cell_types_material(bounds: EnumerationBounds, cell):
    """Every admissible type of one cell, canonically sorted."""
    return _cell_types(bounds, cell, bounds.max_fibres)


def _tame_representatives(cells) -> dict:
    """The cell each cell's result is taken from: the first cell of its
    tame class - the tame cells (t = 0) with its (chi, quasi_elliptic) -
    for a tame cell, and the cell itself for a wild one."""
    first: dict[tuple[int, bool], tuple] = {}
    return {
        cell: first.setdefault((cell[1], cell[3]), cell) if cell[2] == 0 else cell
        for cell in cells
    }


def _with_characteristic(result, p: int):
    """A tame cell's result re-keyed to characteristic ``p``: a type is
    rebuilt with ``p``, a dict (a type dict, a cell key or a report part)
    gets ``p`` as its ``"p"`` entry and its other values re-keyed, a list
    or a tuple is re-keyed element by element, and anything else is
    returned unchanged.  A dict, list or tuple that re-keys to an equal
    value (a fibre dict, an empty list) is returned itself, not copied."""
    if isinstance(result, FibrationNumericalType):
        return replace(result, p=p)
    if isinstance(result, dict):
        rekeyed = {
            k: p if k == "p" else _with_characteristic(v, p) for k, v in result.items()
        }
    elif isinstance(result, (list, tuple)):
        rekeyed = type(result)(_with_characteristic(v, p) for v in result)
    else:
        return result
    return result if rekeyed == result else rekeyed


def _map_cells(work, bounds: EnumerationBounds, cells, jobs: int, *args) -> list:
    """``work(bounds, cell, *args)`` for every cell of ``cells``, in that
    order.  Each tame class runs once, in its first cell, and its other
    cells take that result re-keyed to their characteristic
    (``_with_characteristic``), so ``work`` must not read p in a tame
    cell.  With ``jobs > 1`` the runs go to a pool of spawned worker
    processes, at most one per run and one per CPU; runs are
    independent, so the results do not depend on ``jobs``."""
    _check_int("jobs", jobs)  # any int: jobs <= 1 runs serially
    source = _tame_representatives(cells)
    runs = [cell for cell in cells if source[cell] == cell]
    tasks = [(bounds, cell, *args) for cell in runs]
    processes = min(jobs, len(tasks), os.cpu_count() or 1)
    if processes <= 1:
        results = [work(*task) for task in tasks]
    else:
        import multiprocessing  # here: only a pool needs it, not every start

        context = multiprocessing.get_context("spawn")
        with context.Pool(processes=processes) as pool:
            results = pool.starmap(work, tasks)
    done = dict(zip(runs, results))
    return [
        done[cell] if cell in done else _with_characteristic(done[source[cell]], cell[0])
        for cell in cells
    ]


def enumerate_types(
    bounds: EnumerationBounds, jobs: int = 1
) -> list[FibrationNumericalType]:
    """Every admissible genus-zero type within bounds, exactly once, in
    canonical order; the same for any ``jobs`` value.  Raises when a cell
    would test more than ``MATERIAL_GUARD`` candidates."""
    cells = _cell_order(bounds)
    _check_totals(bounds, cells, True)
    results = _map_cells(_cell_types_material, bounds, cells, jobs)
    return [ty for types in results for ty in types]


# ---------------------------------------------------------------------------
# the sweep


def _statement_stats(form: QuasiLinearForm):
    """The ``StatementCheck`` of an exact form, and the least n with
    P_n >= 1 and with P_n >= 2, scanned past 14 only where the check has
    no witness."""
    check = StatementCheck.from_form(form)
    first1 = check.first_ge1 or next(n for n in count(15) if form.value(n) >= 1)
    first2 = check.first_ge2 or next(n for n in count(15) if form.value(n) >= 2)
    return check, first1, first2


def _materialize_certified(bounds: EnumerationBounds, cell):
    """The residual of one cell's row: the finitely many shapes that the
    class certificates do not cover.  A wild cell that its row covers
    whole gives its bare wild combinations, which the sweep counts
    (``_count_certified``) unless it keeps rows; a tame one gives a
    stand-in per certificate, the tame type with the multiplicities of
    the certificate's bound, whose exact form is that bound."""
    p, chi, t, quasi = cell
    row = cell_row(chi, t)
    if row.tame_cap is not None or t > 0:
        return _cell_types(bounds, cell, row.tame_cap or 0)
    multiplicities = ([m for _, m in cert.bound.pairs] for cert in row.certificates)
    reps = (
        FibrationNumericalType.tame_type(ms, p=p, chi=chi, quasi_elliptic=quasi)
        for ms in multiplicities
        if len(ms) <= bounds.max_fibres and max(ms, default=0) <= bounds.max_mult
    )
    return [ty for ty in reps if is_admissible(ty).admissible]


def _counted(cell) -> bool:
    """Whether the certified sweep counts the cell's types: a wild cell
    that its row covers whole (chi + t >= 3)."""
    _, chi, t, _ = cell
    return t >= 1 and cell_row(chi, t).tame_cap is None


def _count_certified(bounds: EnumerationBounds, cell) -> int:
    """The number of admissible types of a counted cell without building
    one, ``len(_cell_types(bounds, cell, 0))``.  With no tame slot every
    wild combination is a candidate, so ``_candidate_total(bounds, cell,
    0)`` is the total the guard reads, and raises where building the cell
    would.  Where U does not apply that total is the count; where it does,
    the shapes that pass U (``_shape_u``) add their weights.

    Every fibre of the ``_wild_data`` menus passes its local rules: they
    are built by those rules with the h^1 flag off, t_j = 1 coefficients
    do not read the flag, and a t_j >= 2 fibre means t >= 2, where the
    flag is off; d >= 1 makes the slope positive.  The premise is read
    from the cell's row: no residual, and one certificate (1 + n*d) that
    bounds every type termwise by a floor-free form, nondecreasing and
    >= 2 from n = 1 on, so no type fails a statement or its replay, and
    P_13 >= 2."""
    p, chi, t, quasi = cell
    row = cell_row(chi, t)
    (cert,) = row.certificates
    bound = cert.bound
    if row.tame_cap is not None or bound.pairs or bound.linear < 0 or bound.value(1) < 2:
        raise AssertionError(f"cell {cell} is not covered whole by P_n >= 2 for n >= 1")
    total = _candidate_total(bounds, cell, 0)
    if chi != 0 or quasi:
        return total
    return sum(
        weight
        for shape, weight in _wild_combos(p, t, bounds.max_fibres, bounds.max_mult)
        if _shape_u(shape)
    )


def _raise_max(best: tuple[int, list], value: int, attainers) -> tuple[int, list]:
    """The running (maximum, attainers) after ``attainers`` reach ``value``."""
    top, found = best
    if value > top:
        return value, list(attainers)
    if value == top:
        found.extend(attainers)
    return best


def _sweep_cell(
    bounds: EnumerationBounds, cell, materialize_all: bool, keep_rows: bool = False
) -> dict:
    """One cell's part of the report, from its types checked one by one:
    every type in material mode, else its row's residual
    (``_materialize_certified``).  A counted cell (certified mode, no
    rows) builds no type: it adds its count to ``materialized`` and to its
    label, and each of its types attains first1 = first2 = 1, whose
    attainers ``verify_all`` fills in when no other cell beats that.  In
    certified mode the cell's class certificates are reported too, each
    that fails a statement also as a counterexample."""
    p, chi, t, quasi = cell
    row = cell_row(chi, t)
    counted = not (materialize_all or keep_rows) and _counted(cell)
    count = _count_certified(bounds, cell) if counted else 0
    if materialize_all:
        types = _cell_types_material(bounds, cell)
    else:
        types = [] if counted else _materialize_certified(bounds, cell)
    labels = {row.label: count} if count else {}
    counterexamples = []
    replay_failures = []
    top = 1 if count else 0
    first1, first2 = (top, []), (top, [])
    p13_low = []
    rows = []
    for ty in types:
        form = exact_form(ty)
        rep = replay_type(ty, form)
        label = rep.label
        labels[label] = labels.get(label, 0) + 1
        check, f1, f2 = _statement_stats(form)
        if check.failed:
            counterexamples.append({"type": ty.to_dict(), "failed": list(check.failed)})
        if not rep.ok:
            replay_failures.append(
                {"type": ty.to_dict(), "claims": list(rep.claim_failures)}
            )
        first1 = _raise_max(first1, f1, (ty,))
        first2 = _raise_max(first2, f2, (ty,))
        if check.p13 <= 1:
            p13_low.append(ty.to_dict())
        if keep_rows:
            rows.append(
                {"type": ty.to_dict(), "label": label, "series": list(check.series[1:])}
            )
    key = {"p": p, "chi": chi, "t": t, "quasi_elliptic": quasi}
    certified = []
    for cert in () if materialize_all else row.certificates:
        check = StatementCheck.from_form(cert.bound)
        ok = not check.failed
        certified.append(
            {
                "name": cert.name,
                "label": row.label,
                "cell": key,
                "statements_ok": ok,
                "first_ge1_ceiling": check.first_ge1,
                "first_ge2_ceiling": check.first_ge2,
                "p13_ge_2": check.p13 >= 2,
            }
        )
        if not ok:
            counterexamples.append({"certificate": cert.name, "cell": key})
    return {
        "cell": key,
        "materialized": count + len(types),
        "labels": labels,
        "counterexamples": counterexamples,
        "replay_failures": replay_failures,
        "first1": (first1[0], [ty.to_dict() for ty in first1[1]]),
        "first2": (first2[0], [ty.to_dict() for ty in first2[1]]),
        "p13_le_1": p13_low,
        "rows": rows,
        "certified": certified,
        "counted": counted,
    }


def verify_all(
    bounds: EnumerationBounds,
    jobs: int = 1,
    materialize_all: bool = False,
    keep_rows: bool = False,
) -> dict:
    """Sweep all cells through ``_map_cells`` and aggregate.  The report
    is identical for any ``jobs`` value: cells are independent work
    units, merged in canonical cell order."""
    cells = _cell_order(bounds)
    _check_bool("materialize_all", materialize_all)
    _check_bool("keep_rows", keep_rows)
    _check_totals(bounds, cells, materialize_all)
    results = _map_cells(_sweep_cell, bounds, cells, jobs, materialize_all, keep_rows)
    top1 = max((res["first1"][0] for res in results), default=0)
    top2 = max((res["first2"][0] for res in results), default=0)
    if min(top1, top2) <= 1:
        # the attainers of first1 = 1 or first2 = 1 include every type of
        # every counted cell, in the order building the cell lists them
        for cell, res in zip(cells, results):
            if res["counted"]:
                types = [ty.to_dict() for ty in _cell_types(bounds, cell, 0)]
                res["first1"] = res["first2"] = (res["first1"][0], types)

    labels: dict[str, int] = {}
    counterexamples = []
    replay_failures = []
    certified = []
    p13_low = []
    rows = []
    total = 0
    first1, first2 = (0, []), (0, [])
    for res in results:
        total += res["materialized"]
        for k, v in res["labels"].items():
            labels[k] = labels.get(k, 0) + v
        counterexamples.extend(res["counterexamples"])
        replay_failures.extend(res["replay_failures"])
        certified.extend(res["certified"])
        p13_low.extend(res["p13_le_1"])
        rows.extend(res["rows"])
        first1 = _raise_max(first1, *res["first1"])
        first2 = _raise_max(first2, *res["first2"])
    first1_max, first1_attainers = first1
    first2_max, first2_attainers = first2

    cert_f1 = [c["first_ge1_ceiling"] for c in certified]
    cert_f2 = [c["first_ge2_ceiling"] for c in certified]
    extremes_exact = (
        all(c is not None and c <= first1_max for c in cert_f1)
        and all(c is not None and c <= first2_max for c in cert_f2)
    )
    p13_exact = all(c["p13_ge_2"] for c in certified)
    report = {
        "bounds": bounds.to_dict(),
        "mode": "material" if materialize_all else "certified",
        "counterexamples": counterexamples,
        "cases": dict(sorted(labels.items())),
        "certified_classes": certified,
        "replay_failures": replay_failures,
        "extremes": {
            "max_first_nonzero": first1_max,
            "max_first_nonzero_attainers": first1_attainers,
            "max_first_ge2": first2_max,
            "max_first_ge2_attainers": first2_attainers,
            "p13_le_1_types": p13_low,
            "exact": extremes_exact,
            "p13_list_exact": p13_exact,
        },
        "total_materialized": total,
    }
    if keep_rows:
        report["rows"] = rows
    return report


# ---------------------------------------------------------------------------
# sharp / limit cases

_PREDICATES = {
    "p123-zero": lambda v: v[1] == 0 and v[2] == 0 and v[3] == 0,
    "pn-le-1-through-7": lambda v: max(v[1:8]) <= 1,
    "p13-equals-1": lambda v: v[13] == 1,
}


def _sharp_cell(bounds: EnumerationBounds, cell, predicate_id: str) -> list:
    """The types of one cell that satisfy a named sharpness predicate."""
    pred = _PREDICATES[predicate_id]
    return [
        ty
        for ty in _cell_types_material(bounds, cell)
        if pred(exact_form(ty).series(13))
    ]


def find_sharp_cases(bounds: EnumerationBounds, predicate_id: str):
    """All admissible enumerated types satisfying a named sharpness
    predicate (full materialization within the given bounds, one cell at
    a time, keeping only the hits)."""
    if not isinstance(predicate_id, str) or predicate_id not in _PREDICATES:
        raise InvalidInputError(
            f"unknown predicate {predicate_id!r}; choose from "
            f"{sorted(_PREDICATES)}"
        )
    cells = _cell_order(bounds)
    _check_totals(bounds, cells, True)
    results = _map_cells(_sharp_cell, bounds, cells, 1, predicate_id)
    return [ty for hits in results for ty in hits]
