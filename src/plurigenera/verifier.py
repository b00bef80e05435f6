"""Admissibility checking, bounded exhaustive enumeration, and machine
verification of the four plurigenus growth statements:

    (1) P_12 >= 2,
    (2) some n <= 4 has P_n >= 1,
    (3) some n <= 8 has P_n >= 2,
    (4) P_n >= 2 for every n >= 14,

all read from one ``cases.StatementCheck`` per form: one series pass and
statement (4) decided exactly through the quasi-linear structure of the
plurigenus formula.

``verify_all`` runs the sweep in one of two modes.  The certified mode
(default) mirrors the structure of the genus-zero case analysis and
reads each cell's row of it, ``cases.cell_row``: shapes the analysis
handles uniformly (for example "five or more tame fibres") are covered
by the row's class certificates - quasi-linear bounds whose statement
checks are decided exactly - while the finitely many remaining shapes,
the row's residual (triples and quadruples with no base term, small
wild configurations), are materialized and checked one by one.
``materialize_all=True`` enumerates every admissible type in bounds
instead; it is exact but only practical for small bounds.

The wild side of a cell comes from one generator, ``_wild_combos``.
Condition U and the tame companions read a wild fibre's (m, nu) alone,
so it yields each wild shape once - a tuple of ``_wild_data`` groups
(m, nu, records), one per fibre - with its weight, the number of wild
combinations behind it.  Both modes pair each shape with tame companions
in one stream, ``_cell_candidates``: drawn from the condition-U walk when
U applies (chi = 0, elliptic), from all multisets otherwise, and none
when no fibre slot is free, where U is decided on integers.  A companion
adds the shape's weight to the cell's candidates, and so does a bare
shape that fails U, which is counted but never built.  ``_cell_types``
expands a shape into its combinations only beside a companion, each
checked by ``is_admissible``.
The material mode lets the companions fill every free slot; the
certified mode caps them at the row's ``tame_cap``.  A cell that would
test more than ``MATERIAL_GUARD`` candidates stops the sweep with
``UnsupportedInputError``; ``enumerate_types``, ``find_sharp_cases``
and the material sweep check every cell's multiset estimate first.

The certified mode counts the wild cells that their row covers whole
(no residual: chi + t >= 3) instead of building them
(``_count_certified``).  There d >= 1, the row's one certificate,
easy-large-degree (P_n >= n*d + 1), bounds every type termwise, and
every wild combination is admissible unless U applies and its shape
fails U.  So the count is the summed weights of the shapes of
``_cell_candidates`` with no free slot, the stream that building the
cell reads, guarded on the same running total.  It builds them only
with ``keep_rows``, which needs a row per type.  When the sweep's
maximum first1 or first2 is at most 1 (as at ``max_fibres=1``), the
attainer lists include every counted type: ``verify_all`` fills them in
place from ``_cell_types``, and sweeps no cell twice.  ``materialized``
and ``total_materialized`` count the covered types, built or counted;
a tame cell that its row covers whole is reported through one stand-in
per certificate (``_materialize_certified``).

``_map_cells`` is the one cell executor, serial or in a process pool,
for both sweep modes, ``enumerate_types`` and ``find_sharp_cases``.  It
runs each tame class - the cells with t = 0 and one (chi,
quasi_elliptic), which differ only in p - once, in its first cell, and
re-keys that result for the class's other cells
(``_with_characteristic``).  That is exact: nothing a tame type meets
reads p.  ``_fibre_violations`` returns from its tame branch before it
reads p; the slope, condition U, ``_finalize`` (which acts on wild
fibres only), ``cell_row(chi, t)`` and the tame branches of
``replay_type`` do not read it; and quasi-elliptic cells exist only for
p in {2, 3}, which both pass the quasi-elliptic characteristic rule.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, combinations_with_replacement, count, groupby, product
from math import comb, lcm, prod

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
    _check_int,
    _check_tuple,
)
from .fibre_local import (
    achievable_torsion_lengths,
    admissible_coefficients,
)
from .model import (
    FIBRE_RULE_CACHE_SIZE,
    FibrationNumericalType,
    FibreDatum,
    factorization,
    plurigenus,  # noqa: F401 - perfbench's tracer wraps verifier.plurigenus
    plurigenus_form,
    slope,  # noqa: F401 - perfbench's tracer wraps verifier.slope
    validate_characteristic,
)

MATERIAL_GUARD = 5_000_000


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


def is_admissible(t: FibrationNumericalType) -> AdmissibilityReport:
    """Apply every model rule and report all named violations.

    The local rules of each fibre are memoized per (fibre fields, p, h1
    flag) in a least-recently-used cache of ``FIBRE_RULE_CACHE_SIZE``
    entries.  The slope d + sum a_i/m_i is positive iff
    d*L + sum a_i*(L/m_i) is, with L = lcm(m_i).  Condition U is decided
    by ``_all_u`` on the fibres' (m, nu), which the fibres have already
    validated, when every nu divides its m."""
    violations: list[str] = []
    if t.chi < 0:
        violations.append("chi-negative")
    tl = t.torsion_length
    h1_flag = _h1_at_most_one(t.g, t.chi, tl)
    for f in t.fibres:
        violations.extend(_fibre_violations(f.m, f.a, f.nu, f.e, f.t, t.p, h1_flag))
    d = 2 * t.g - 2 + t.chi + tl  # delta_degree(t)
    big_l = lcm(*(f.m for f in t.fibres))
    if d * big_l + sum(f.a * (big_l // f.m) for f in t.fibres) <= 0:
        violations.append("slope-nonpositive")
    if t.quasi_elliptic:
        if t.p not in (2, 3):
            violations.append("quasi-elliptic-char")
        if t.g == 0 and t.chi == 0:
            violations.append("quasi-elliptic-chi0-base-P1")
    elif (
        t.g == 0
        and t.chi == 0
        and all(f.m % f.nu == 0 for f in t.fibres)
        and not _all_u([f.m for f in t.fibres], [f.nu for f in t.fibres])
    ):
        violations.append("condition-U")
    return AdmissibilityReport(not violations, tuple(violations))


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
        return {
            "p12": self.p12,
            "stmt1": self.stmt1,
            "stmt2_witness": self.stmt2_witness,
            "stmt3_witness": self.stmt3_witness,
            "stmt4": self.stmt4,
            "exact": self.exact,
            "series": list(self.series),
        }


def _require_admissible(t: FibrationNumericalType) -> None:
    report = is_admissible(t)
    if not report.admissible:
        raise InadmissibleTypeError(report.violations)


def verify_main_theorem(t: FibrationNumericalType) -> MainTheoremReport:
    """Evaluate the four statements.  Exact for g = 0; computed from the
    guaranteed lower bounds (hence conservative) for g >= 1.

    The audit series covers P_0 .. P_(14 + 2*lcm) when the multiplicity
    lcm is small enough to print (<= 120), and P_0 .. P_40 otherwise;
    statement (4) is always decided exactly either way.  The series and
    the statements are read from one ``StatementCheck`` of the
    ``plurigenus_form``."""
    _require_admissible(t)
    period = lcm(*(f.m for f in t.fibres))
    check = StatementCheck.from_form(
        plurigenus_form(t), 14 + 2 * period if period <= 120 else 40
    )
    first1, first2 = check.first_ge1, check.first_ge2
    return MainTheoremReport(
        p12=check.p12,
        stmt1=check.p12 >= 2,
        stmt2_witness=first1 if first1 is not None and first1 <= 4 else None,
        stmt3_witness=first2 if first2 is not None and first2 <= 8 else None,
        stmt4=check.tail,
        exact=t.g == 0,
        series=check.series,
    )


def verify_tail(t: FibrationNumericalType, threshold: int, target: int) -> bool:
    """Exactly decide ``P_n >= target for all n >= threshold`` (g = 0)."""
    _check_int("threshold", threshold)
    _check_int("target", target)
    if t.g != 0:
        raise UnsupportedInputError("verify_tail requires a genus-zero base")
    _require_admissible(t)
    if target <= 0:
        return True
    return exact_form(t).eventually_at_least(threshold, target)


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
        _check_int("max_fibres", self.max_fibres, 1)
        _check_int("max_chi_plus_t", self.max_chi_plus_t, 0)
        for flag in ("include_wild", "include_quasi_elliptic"):
            if not isinstance(getattr(self, flag), bool):
                raise InvalidInputError(f"{flag} must be a boolean")
        given = _check_tuple("characteristics", self.characteristics)
        ps = sorted({validate_characteristic(p) for p in given})
        object.__setattr__(self, "characteristics", tuple(ps))

    def to_dict(self) -> dict:
        return {
            "max_mult": self.max_mult,
            "max_fibres": self.max_fibres,
            "max_chi_plus_t": self.max_chi_plus_t,
            "characteristics": list(self.characteristics),
            "include_wild": self.include_wild,
            "include_quasi_elliptic": self.include_quasi_elliptic,
        }


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
                for a in admissible_coefficients(m, nu, p, t_j).sorted()
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


def _covered_companions(max_mult: int, max_size: int, wilds):
    """Tame companion multisets compatible with condition U (streamed),
    beside wild fibres given by their (m, nu) pairs.

    Condition U_i is equivalent to: for every prime p dividing nu_i, the
    p-valuation of m_i is matched by some other fibre.  Tame fibres have
    nu = m, so each of their prime peaks must be matched; wild fibres
    only constrain the primes of their nu.  The walk places values in
    descending order, so an unmatched peak p^b prunes the branch as soon
    as the position drops below p^b.
    """
    wild_vals: dict[int, list[int]] = {}
    for m, _ in wilds:
        for q, al in factorization(m):
            wild_vals.setdefault(q, []).append(al)
    wild_cover = {q: max(vals) for q, vals in wild_vals.items()}
    req: dict[int, int] = {}
    for m, nu in wilds:
        mv = dict(factorization(m))
        for q, _ in factorization(nu):
            v = mv[q]
            others = list(wild_vals[q])
            others.remove(v)
            if not others or max(others) < v:
                req[q] = max(req.get(q, 0), v)
    for q, b in req.items():
        if q**b > max_mult:
            return  # no tame value can match the wild peak

    top: dict[int, tuple[int, int]] = {}
    placed: list[int] = []

    def deadline() -> int:
        # the largest q^b of an unmatched tame peak or an unmet wild
        # requirement (0 if none): only a value >= q^b can still match it
        d = 0
        for q, (b, second) in top.items():
            if b > 0 and second < b and wild_cover.get(q, 0) < b:
                d = max(d, q**b)
        for q, b in req.items():
            if top.get(q, (0, 0))[0] < b:
                d = max(d, q**b)
        return d

    def walk(v: int, slots: int):
        # Skipping a value leaves the state unchanged, so the walk skips
        # straight to the lowest value it may still place: one below the
        # deadline, below which the branch is dead, or 1.  It recurses
        # once per placed value (at most max_size deep), and the
        # candidates come out in the order of the one-value-per-step walk.
        d = deadline()
        low = min(v, max(1, d - 1))
        if low == 1 and d == 0:
            yield tuple(reversed(placed))  # placed descends
        if slots == 0:
            return
        for u in range(low + 1, v + 1):
            snapshot = {q: top.get(q, (0, 0)) for q, _ in factorization(u)}
            for k in range(1, slots + 1):
                for q, al in factorization(u):
                    b, second = top.get(q, (0, 0))
                    if k >= 2 and al >= b:
                        top[q] = (al, al)
                    elif al > b:
                        top[q] = (al, b)
                    else:
                        top[q] = (b, max(second, al))
                placed.append(u)
                yield from walk(u - 1, slots - k)
            del placed[len(placed) - slots :]
            for q, state in snapshot.items():
                top[q] = state

    yield from walk(max_mult, max_size)


def _cell_order(bounds: EnumerationBounds):
    """Cells (p, chi, t, quasi_elliptic) for the genus-zero enumeration."""
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


def _finalize(t: FibrationNumericalType) -> FibrationNumericalType:
    """Attach the existence-doubt flag: to the single doubly-wild shape,
    and to a type with a fibre of torsion length t_j >= 3, whose
    coefficient comes from the divisibility superset, not a sharp rule
    (``CoefficientSet.sharp`` is false)."""
    if any(f.t >= 3 for f in t.fibres) or (
        t.chi == 0 and t.g == 0 and t.r == 1 and t.fibres[0].t == 2
    ):
        return replace(t, existence_unknown=True)
    return t


def _refusal(cell, reason: str) -> UnsupportedInputError:
    """The refusal of a cell that ``reason`` puts past ``MATERIAL_GUARD``."""
    return UnsupportedInputError(
        f"cell {cell} {reason} the materialization guard ({MATERIAL_GUARD}); "
        "tighten the bounds or use the certified sweep"
    )


def _check_estimates(bounds: EnumerationBounds, cells):
    """Raise when a cell without condition U would test more than
    ``MATERIAL_GUARD`` tame multisets beside one wild combination, at the
    free slots of its first shape, the one with the fewest fibres."""
    for p, chi, t, quasi in cells:
        if chi == 0 and not quasi:
            continue
        first = next(_wild_combos(p, t, bounds.max_fibres, bounds.max_mult), None)
        slots = bounds.max_fibres - len(first[0]) if first else 0
        est = comb(bounds.max_mult - 1 + slots, slots)  # multisets of size <= slots
        if est > MATERIAL_GUARD:
            reason = f"would materialize ~{est} candidate types, more than"
            raise _refusal((p, chi, t, quasi), reason)


def _cell_candidates(bounds: EnumerationBounds, cell, max_tame: int):
    """Each candidate of one cell as (shape, weight, companion), with at
    most ``max_tame`` tame multiplicities as the companion, as the module
    docstring sets out; raises once the summed weights of the candidates
    and of the bare shapes that fail U pass ``MATERIAL_GUARD``."""
    p, chi, t, quasi = cell
    candidates = 0
    u_applies = chi == 0 and not quasi
    for shape, weight in _wild_combos(p, t, bounds.max_fibres, bounds.max_mult):
        slots = min(max_tame, bounds.max_fibres - len(shape))
        if slots == 0:
            ok = not u_applies or _all_u(
                [m for m, _, _ in shape], [nu for _, nu, _ in shape]
            )
            companions = ((),) if ok else (None,)
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
    share their fibre objects."""
    p, chi, _, quasi = cell
    found = []
    for shape, _, comp in _cell_candidates(bounds, cell, max_tame):
        tames = tuple(FibreDatum.tame(m) for m in comp)
        for wilds in _expand(shape):
            cand = FibrationNumericalType(
                p=p, g=0, chi=chi, quasi_elliptic=quasi, fibres=wilds + tames
            )
            if is_admissible(cand).admissible:
                found.append(_finalize(cand))
    return sorted(found, key=lambda x: x.sort_key)


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
    would materialize more than ``MATERIAL_GUARD`` candidates."""
    cells = _cell_order(bounds)
    _check_estimates(bounds, cells)
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
    one: the summed weights of its candidates in ``_cell_candidates``,
    the stream ``_cell_types`` builds from, so it equals
    ``len(_cell_types(bounds, cell, 0))`` and raises where that does.

    Every fibre of the ``_wild_data`` menus passes its local rules: they
    are built by those rules with the h^1 flag off, t_j = 1 coefficients
    do not read the flag, and a t_j >= 2 fibre means t >= 2, where the
    flag is off; d >= 1 makes the slope positive.  The premise is read
    from the cell's row: no residual, and one certificate (1 + n*d) that
    bounds every type termwise by a floor-free form, nondecreasing and
    >= 2 from n = 1 on, so no type fails a statement or its replay, and
    P_13 >= 2."""
    _, chi, t, _ = cell
    row = cell_row(chi, t)
    (cert,) = row.certificates
    bound = cert.bound
    if row.tame_cap is not None or bound.pairs or bound.linear < 0 or bound.value(1) < 2:
        raise AssertionError(f"cell {cell} is not covered whole by P_n >= 2 for n >= 1")
    return sum(weight for _, weight, _ in _cell_candidates(bounds, cell, 0))


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
    if materialize_all:
        _check_estimates(bounds, cells)
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
    _check_estimates(bounds, cells)
    results = _map_cells(_sharp_cell, bounds, cells, 1, predicate_id)
    return [ty for hits in results for ty in hits]
