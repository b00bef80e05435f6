"""Admissibility, statement verification, enumeration, and the sweep."""

import dataclasses
import importlib
import pickle
import pkgutil
import random
import re
import sys
import threading
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plurigenera
from plurigenera import (
    EnumerationBounds,
    FibrationNumericalType,
    FibreDatum,
    InadmissibleTypeError,
    InvalidInputError,
    QuasiLinearForm,
    UnsupportedInputError,
    check_condition_U_bruteforce,
    ConditionUInstance,
    enumerate_types,
    find_sharp_cases,
    is_admissible,
    plurigenus,
    verify_all,
    verify_main_theorem,
    verify_tail,
)
from plurigenera.cases import StatementCheck, cell_row, replay_type
from plurigenera.congruence import _all_u
from plurigenera.fibre_local import achievable_torsion_lengths
from plurigenera.model import FIBRE_RULE_CACHE_SIZE, factorization, plurigenus_form
from plurigenera.verifier import (
    AdmissibilityReport,
    MainTheoremReport,
    _existence_unknown,
    _fibre_violations,
    _h1_at_most_one,
    _kept_report,
    _report,
    _u_masks,
    _wild_data,
)


def _finalize(t: FibrationNumericalType) -> FibrationNumericalType:
    """``t`` with the existence-doubt flag attached where it is due: the
    type-level form of ``verifier._existence_unknown``, the reference the
    tests hold ``_cell_types`` against."""
    if _existence_unknown(t.chi, t.g, t.r, [f.t for f in t.fibres if f.t]):
        return replace(t, existence_unknown=True)
    return t


def tame(ms, chi=0, g=0, p=0, quasi=False):
    return FibrationNumericalType.tame_type(ms, p=p, g=g, chi=chi, quasi_elliptic=quasi)


def wild_type(chi, *fibres, p=2, quasi=False):
    return FibrationNumericalType(
        p=p, g=0, chi=chi, quasi_elliptic=quasi, fibres=tuple(fibres)
    )


def raw_wild_combinations(p, t, max_fibres, max_mult):
    """Every bare wild combination of torsion length t with at most
    ``max_fibres`` fibres: each multiset of records of the flattened menus
    (every t_j <= t) whose torsion lengths sum to t, independently of
    ``_wild_combos`` and its partitions."""
    menu = [
        f
        for t_j in range(1, t + 1)
        for _, _, records in _wild_data(p, t_j, max_mult)
        for f in records
    ]

    def extend(first, left, room):
        if left == 0:
            yield ()
            return
        for i in range(first, len(menu)):
            if room and menu[i].t <= left:
                for rest in extend(i, left - menu[i].t, room - 1):
                    yield (menu[i],) + rest

    return list(extend(0, t, max_fibres))


T266 = tame((2, 6, 6))
T2510 = tame((2, 5, 10))


class TestAdmissibility:
    def test_266_admissible(self):
        rep = is_admissible(T266)
        assert rep.admissible and rep.violations == ()

    def test_condition_u_violation(self):
        rep = is_admissible(tame((2, 2, 2, 3)))
        assert not rep.admissible and "condition-U" in rep.violations

    def test_tame_coefficient_violation(self):
        bad = FibrationNumericalType(
            p=0, g=0, chi=2, quasi_elliptic=False,
            fibres=(FibreDatum(m=4, a=2, nu=4, e=0, t=0),),
        )
        assert "tame-coefficient" in is_admissible(bad).violations

    def test_tame_torsion_order_violation(self):
        bad = FibrationNumericalType(
            p=2, g=0, chi=2, quasi_elliptic=False,
            fibres=(FibreDatum(m=4, a=3, nu=2, e=1, t=0),),
        )
        assert "tame-torsion-order" in is_admissible(bad).violations

    def test_quasi_elliptic_characteristic(self):
        rep = is_admissible(tame((2, 3), chi=1, p=5, quasi=True))
        assert "quasi-elliptic-char" in rep.violations

    def test_quasi_elliptic_chi0_base_p1(self):
        rep = is_admissible(tame((2, 6, 6), p=3, quasi=True))
        assert "quasi-elliptic-chi0-base-P1" in rep.violations

    def test_chi_negative(self):
        rep = is_admissible(tame((2, 3), chi=-1))
        assert "chi-negative" in rep.violations

    def test_slope_nonpositive(self):
        assert "slope-nonpositive" in is_admissible(tame((2, 3, 6))).violations
        assert "slope-nonpositive" in is_admissible(tame((2, 2, 2, 2))).violations

    def test_wild_char_zero(self):
        bad = FibrationNumericalType(
            p=0, g=0, chi=1, quasi_elliptic=False,
            fibres=(FibreDatum(m=4, a=1, nu=2, e=1, t=1),),
        )
        assert "wild-char-zero" in is_admissible(bad).violations

    def test_wild_power_relation(self):
        bad = wild_type(1, FibreDatum(m=6, a=1, nu=2, e=1, t=1), p=2)
        assert "wild-power-relation" in is_admissible(bad).violations

    def test_wild_torsion_length(self):
        # e = 2 cannot have a single jump within m
        bad = wild_type(1, FibreDatum(m=4, a=3, nu=1, e=2, t=1), p=2)
        assert "wild-torsion-length" in is_admissible(bad).violations

    def test_wild_coefficient(self):
        bad = wild_type(1, FibreDatum(m=8, a=3, nu=2, e=2, t=1), p=2)
        # t=1 allows only {7, 5}; 3 needs torsion length 2
        assert "wild-torsion-length" in is_admissible(bad).violations
        ok = wild_type(1, FibreDatum(m=8, a=1, nu=2, e=2, t=2), p=2)
        assert is_admissible(ok).admissible
        ok2 = wild_type(1, FibreDatum(m=4, a=1, nu=2, e=1, t=1), p=2)
        assert is_admissible(ok2).admissible

    def test_lone_wild_fibre_with_higher_torsion_fails_condition_u(self):
        # the doubted limit shape: one wild fibre, m = 8, nu = 2, chi = 0;
        # U_1 wants n odd with n/8 integral, so the type cannot occur
        t = wild_type(0, FibreDatum(m=8, a=1, nu=2, e=2, t=2), p=2)
        assert is_admissible(t).violations == ("condition-U",)
        assert (
            check_condition_U_bruteforce(ConditionUInstance((8,), (2,), 1)) is False
        )


class TestFibreRuleCache:
    WILD = FibreDatum(m=9, a=6, nu=1, e=2, t=2)
    CASES = (
        # chi + t = 2: h^1 = 2, so t = 2 allows a = 6
        (wild_type(0, WILD, FibreDatum.tame(2), p=3), ("condition-U",)),
        # chi + t = 0: h^1 = 1 narrows the coefficients to {8, 7}
        (
            wild_type(-2, WILD, FibreDatum.tame(2), p=3),
            ("chi-negative", "wild-coefficient", "slope-nonpositive"),
        ),
        (wild_type(0, WILD, p=0), ("wild-char-zero",)),
    )

    @pytest.mark.parametrize("order", [1, -1])
    def test_keyed_on_characteristic_and_h1(self, order):
        # one fibre under three (p, h1) contexts, in both orders: an entry
        # keyed on the fibre alone would leak one answer into the next
        for t, expected in self.CASES[::order]:
            assert is_admissible(t).violations == expected


class TestInputCaches:
    def test_caches_keyed_on_input_stay_bounded(self):
        # 20,000 wild fibres with distinct nu, and as many distinct
        # integers to factor: an unbounded cache keeps one entry for each
        for nu in range(1, 20_001):
            fibre = FibreDatum(m=nu * 2, a=nu - 1, nu=nu, e=1, t=1)
            is_admissible(wild_type(1, fibre))
            factorization(nu)
            _u_masks(nu, nu)
        # and as many distinct plurigenus forms, one per chi
        for chi in range(1, FIBRE_RULE_CACHE_SIZE + 100):
            verify_main_theorem(tame((2, 3), chi=chi))
        for cache in (
            factorization,
            achievable_torsion_lengths,
            _wild_data,
            _fibre_violations,
            _u_masks,
            _kept_report,
        ):
            info = cache.cache_info()
            assert info.maxsize == FIBRE_RULE_CACHE_SIZE
            assert info.currsize <= FIBRE_RULE_CACHE_SIZE


class TestMainTheorem:
    def test_266(self):
        rep = verify_main_theorem(T266)
        assert rep.p12 == 3 and rep.stmt1
        assert rep.stmt2_witness == 4
        assert rep.stmt3_witness == 6
        assert rep.stmt4 and rep.exact
        assert rep.series[:7] == (1, 0, 0, 0, 1, 1, 2)
        assert rep.series[13] == 1

    def test_2510(self):
        rep = verify_main_theorem(T2510)
        assert rep.stmt2_witness == 4
        assert rep.stmt3_witness == 8
        assert rep.stmt4 and rep.p12 == 2

    def test_inadmissible_raises(self):
        with pytest.raises(InadmissibleTypeError) as err:
            verify_main_theorem(tame((2, 3, 7)))
        assert "condition-U" in err.value.violations
        with pytest.raises(InadmissibleTypeError):
            verify_main_theorem(tame((2, 2, 2, 3)))

    def test_positive_genus_conservative(self):
        rep = verify_main_theorem(tame((), g=1, chi=1))
        assert not rep.exact
        assert rep.stmt1 and rep.stmt4
        assert rep.stmt2_witness == 1
        rep2 = verify_main_theorem(tame((2, 2), g=1))
        assert rep2.stmt1 and rep2.stmt4 and not rep2.exact


    @pytest.mark.parametrize(
        "t, formula",
        [
            (tame((), g=1, chi=1), lambda n: 1 + n - 1),  # g + n - 1
            (tame((), g=2), lambda n: (2 * n - 1) * (2 - 1)),
            (tame((2, 3), g=3), lambda n: (2 * n - 1) * (3 - 1)),
            (tame((2, 3), g=1), lambda n: n // 2 + (2 * n) // 3),
        ],
    )
    def test_positive_genus_series_follows_branch_formula(self, t, formula):
        rep = verify_main_theorem(t)
        period = lcm(*(f.m for f in t.fibres))
        assert rep.series == tuple(
            [1] + [formula(n) for n in range(1, 15 + 2 * period)]
        )
        assert rep.p12 == rep.series[12] and not rep.exact


class TestCompactLayout:
    def test_report_has_no_instance_dict(self):
        rep = verify_main_theorem(tame((2, 6, 6)))
        assert not hasattr(rep, "__dict__")
        back = pickle.loads(pickle.dumps(rep))
        assert back == rep and hash(back) == hash(rep)

    def test_every_value_class_is_slotted_and_frozen(self):
        classes = [
            cls
            for module in pkgutil.iter_modules(plurigenera.__path__)
            for cls in vars(importlib.import_module(f"plurigenera.{module.name}")).values()
            # a module-level dataclass instance (a constant) is not a class
            if isinstance(cls, type)
            and dataclasses.is_dataclass(cls)
            and cls.__module__.startswith("plurigenera.")
        ]
        assert FibrationNumericalType in classes and len(set(classes)) >= 15
        for cls in classes:
            assert "__slots__" in vars(cls), cls.__name__
            assert cls.__dataclass_params__.frozen, cls.__name__


class TestTail:
    def test_266_thresholds(self):
        assert verify_tail(T266, 14, 2) is True
        assert verify_tail(T266, 13, 2) is False

    def test_2510_threshold(self):
        assert verify_tail(T2510, 11, 2) is False
        assert verify_tail(T2510, 14, 2) is True

    def test_agrees_with_direct_scan(self):
        for t in (T266, T2510, tame((3, 4, 12)), tame((2, 2, 3, 3))):
            period = lcm(*(f.m for f in t.fibres))
            for threshold in (10, 13, 14):
                direct = all(
                    max(0, 1 + n * (-2) + sum(n * f.a // f.m for f in t.fibres)) >= 2
                    for n in range(threshold, threshold + 2 * period)
                )
                assert verify_tail(t, threshold, 2) == direct

    def test_requires_genus_zero(self):
        with pytest.raises(UnsupportedInputError):
            verify_tail(tame((), g=1, chi=1), 14, 2)


def _single_type_requests(seed, count):
    """Seeded single-type requests: tame types (some on a genus-one base,
    some quasi-elliptic, some with a wrong tame coefficient) and types
    with one wild fibre beside up to three tame ones; about 40 % of them
    are inadmissible."""
    rng = random.Random(seed)
    requests = []
    for _ in range(count):
        if rng.random() < 0.65:
            p = rng.choice((0, 2, 3, 5))
            ms = [rng.randint(2, 30) for _ in range(rng.randint(1, 6))]
            fibres = [FibreDatum.tame(m) for m in ms]
            if rng.random() < 0.05:
                m = fibres[0].m
                fibres[0] = FibreDatum(m=m, a=rng.randrange(m), nu=m, e=0, t=0)
            requests.append(FibrationNumericalType(
                p=p,
                g=1 if rng.random() < 0.15 else 0,
                chi=rng.choices((0, 1, 2), weights=(2, 3, 3))[0],
                quasi_elliptic=p in (2, 3) and rng.random() < 0.1,
                fibres=tuple(fibres),
            ))
            continue
        p = rng.choice((2, 3, 5))
        e, nu, t = rng.choice((1, 1, 2)), rng.randint(1, 6), rng.choice((1, 1, 2))
        m = nu * p**e
        a = rng.choice((m - 1, m - 1 - nu, rng.randrange(m)))  # m >= 2*nu
        ms = [rng.randint(2, 30) for _ in range(rng.randint(0, 3))]
        requests.append(FibrationNumericalType(
            p=p,
            g=0,
            chi=rng.choice((0, 1)),
            quasi_elliptic=False,
            fibres=(FibreDatum(m, a, nu, e, t), *map(FibreDatum.tame, ms)),
        ))
    return requests


def _reference_is_admissible(t):
    """``is_admissible`` rule by rule: every fibre through
    ``_fibre_violations``, the slope over L = lcm(m), and condition U by
    ``_all_u`` when every nu divides its m; the reference the one-pass
    decider is held against."""
    violations = []
    if t.chi < 0:
        violations.append("chi-negative")
    tl = t.torsion_length
    h1_flag = _h1_at_most_one(t.g, t.chi, tl)
    for f in t.fibres:
        violations.extend(_fibre_violations(f.m, f.a, f.nu, f.e, f.t, t.p, h1_flag))
    d = 2 * t.g - 2 + t.chi + tl
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


@st.composite
def _admission_fibres(draw, p):
    """A tame fibre; one with t = 0 that breaks a tame rule (a != m - 1,
    nu != m or e != 0); a wild one with m = nu * q**e (q = p, or 2 in
    characteristic 0; e = 0 allowed); or any validated fields (nu need
    not divide m)."""
    kind = draw(st.sampled_from(("tame", "tame-broken", "wild", "any")))
    if kind == "tame":
        return FibreDatum.tame(draw(st.integers(2, 30)))
    if kind == "tame-broken":
        m = draw(st.integers(2, 30))
        a, nu, e = m - 1, m, 0
        broken = draw(st.sampled_from(("a", "nu", "e")))
        if broken == "a":
            a = draw(st.integers(0, m - 2))
        elif broken == "nu":
            nu = draw(st.sampled_from((1, max(1, m // 2), 2 * m)))
        else:
            e = draw(st.integers(1, 3))
        return FibreDatum(m=m, a=a, nu=nu, e=e, t=0)
    if kind == "wild":
        nu, e = draw(st.integers(1, 6)), draw(st.integers(0, 3))
        m = max(2, nu * (p or 2) ** e)
        a = draw(st.sampled_from((m - 1, max(0, m - 1 - nu), m // 2)))
        return FibreDatum(m=m, a=a, nu=nu, e=e, t=draw(st.integers(1, 3)))
    m = draw(st.integers(2, 40))
    return FibreDatum(
        m=m,
        a=draw(st.integers(0, m - 1)),
        nu=draw(st.integers(1, 12)),
        e=draw(st.integers(0, 3)),
        t=draw(st.integers(0, 3)),
    )


@st.composite
def _admission_types(draw):
    """Validated types of every kind ``is_admissible`` reads: g = 0 and
    chi = 0 (condition U) drawn often, g >= 1, chi < 0, quasi-elliptic in
    any characteristic, and r = 0."""
    p = draw(st.sampled_from((0, 2, 3, 5, 7)))
    return FibrationNumericalType(
        p=p,
        g=draw(st.sampled_from((0, 0, 0, 1, 2))),
        chi=draw(st.sampled_from((0, 0, 0, 1, 2, 3, -1, -2))),
        quasi_elliptic=draw(st.sampled_from((False, False, True))),
        fibres=tuple(draw(st.lists(_admission_fibres(p), max_size=6))),
    )


class TestOnePassAdmission:
    """``is_admissible`` equals the rule-by-rule reference: the same
    report, with the violations in the same order."""

    def test_matches_the_reference_on_single_type_requests(self):
        for t in _single_type_requests(20170, 2000):
            assert is_admissible(t) == _reference_is_admissible(t), t

    @settings(max_examples=400, deadline=None)
    @given(_admission_types())
    # condition U is skipped when a nu does not divide its m; a = 6 is
    # allowed for this t_j = 2 fibre only while the h^1 flag is off
    @example(wild_type(0, FibreDatum(m=6, a=5, nu=4, e=0, t=0), FibreDatum.tame(3)))
    @example(wild_type(-1, FibreDatum(m=9, a=6, nu=1, e=2, t=2), p=3))
    def test_matches_the_reference(self, t):
        assert is_admissible(t) == _reference_is_admissible(t)


class TestSingleTypeQueries:
    """``verify_main_theorem``, ``verify_tail`` and the violations they
    raise on 2,000 seeded requests, pinned by digest like the sweeps of
    ``TestCountedCells.PINNED``."""

    PINNED = {
        "main": "eee2519c5f06a50fba8be18d9eed37d024df5ba5da93ace42722547654d643f7",
        "tail": "310c2e119070a3cea1306f44e37bc3786cb7d6b0201798284be6c65be29d6cf1",
        "violations": "197a020e7ac9d4ecdbf9b5237ecd4447f7a9e1e4463aafe622b123129b50ef1b",
    }

    def test_outputs_are_pinned(self):
        requests = _single_type_requests(20170, 2000)
        mains, tails, violations = [], [], []
        for t in requests:
            try:
                mains.append(verify_main_theorem(t).to_dict())
            except InadmissibleTypeError as exc:
                violations.append(list(exc.violations))
                continue
            tails.append(verify_tail(t, 14, 2) if t.g == 0 else None)
        assert 0.3 < len(violations) / len(requests) < 0.5
        got = {"main": mains, "tail": tails, "violations": violations}
        assert {k: _digest(v) for k, v in got.items()} == self.PINNED

    def test_plurigenus_form_equals_the_validated_form(self):
        for t in _single_type_requests(20170, 2000):
            d = 2 * t.g - 2 + t.chi + t.torsion_length
            pairs = tuple((f.a, f.m) for f in t.fibres)
            if t.g == 0:
                const, linear = 1, d
            elif t.chi + t.torsion_length >= 1:
                const, linear, pairs = t.g - 1, 1, ()
            elif t.g >= 2:
                const, linear, pairs = 1 - t.g, 2 * (t.g - 1), ()
            else:
                const, linear = 0, 0
            assert plurigenus_form(t) == QuasiLinearForm(const, linear, pairs), t


class TestAdmittedQueries:
    """``verify_main_theorem`` and ``verify_tail`` share one admission and
    one plurigenus form per type object, remembered for the last type."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from plurigenera import verifier

        calls = {"is_admissible": 0, "plurigenus_form": 0}

        def counting(name):
            original = getattr(verifier, name)

            def call(t):
                calls[name] += 1
                return original(t)

            return call

        for name in calls:
            monkeypatch.setattr(verifier, name, counting(name))
        return calls

    def test_tail_after_main_admits_once(self, calls):
        t = tame((2, 6, 6))
        assert verify_main_theorem(t).stmt4
        assert verify_tail(t, 14, 2) is True
        assert verify_tail(t, 13, 2) is False
        assert calls == {"is_admissible": 1, "plurigenus_form": 1}

    def test_equal_but_distinct_type_is_admitted_afresh(self, calls):
        first, second = tame((2, 6, 6)), tame((2, 6, 6))
        assert first == second and first is not second
        verify_main_theorem(first)
        assert verify_tail(second, 14, 2) is True
        assert calls == {"is_admissible": 2, "plurigenus_form": 2}

    def test_inadmissible_type_raises_the_same_violations_from_both(self, calls):
        t = tame((2, 3, 7))
        with pytest.raises(InadmissibleTypeError) as main:
            verify_main_theorem(t)
        with pytest.raises(InadmissibleTypeError) as tail:
            verify_tail(t, 14, 2)
        assert main.value.violations == tail.value.violations == ("condition-U",)
        assert calls == {"is_admissible": 2, "plurigenus_form": 0}

    def test_argument_errors_after_a_remembered_type(self):
        t = tame((2, 6, 6))
        verify_main_theorem(t)
        assert verify_tail(t, 14, 2) is True
        with pytest.raises(InvalidInputError, match="threshold"):
            verify_tail(t, "14", 2)
        with pytest.raises(InvalidInputError, match="target"):
            verify_tail(t, 14, 2.0)
        with pytest.raises(InvalidInputError):
            verify_tail(t.to_dict(), 14, 2)
        genus_one = tame((2, 3), g=1)
        verify_main_theorem(genus_one)
        with pytest.raises(InvalidInputError, match="threshold"):
            verify_tail(genus_one, None, 2)
        with pytest.raises(UnsupportedInputError, match="genus-zero"):
            verify_tail(genus_one, 14, 2)
        assert verify_tail(t, 14, 2) is True

    @pytest.mark.parametrize(
        "threshold, target, message",
        [
            (True, 2, "threshold must be an integer, got True"),
            (14.0, 2, "threshold must be an integer, got 14.0"),
            (14, False, "target must be an integer, got False"),
            (14, 2.0, "target must be an integer, got 2.0"),
            # threshold, then target, then the type
            (False, 2.5, "threshold must be an integer, got False"),
            (14, True, "target must be an integer, got True"),
            # a negative threshold is refused whatever the target
            (-1, 0, "threshold must be >= 0, got -1"),
            (-1, -3, "threshold must be >= 0, got -1"),
            (-1, 2, "threshold must be >= 0, got -1"),
            (-1, 2.0, "threshold must be >= 0, got -1"),
        ],
    )
    def test_bool_or_float_arguments_raise_in_order(self, threshold, target, message):
        for t in (tame((2, 6, 6)), None):
            with pytest.raises(InvalidInputError) as excinfo:
                verify_tail(t, threshold, target)
            assert str(excinfo.value) == message

    def test_int_subclass_arguments_are_accepted(self):
        class Int(int):
            pass

        t = tame((2, 6, 6))
        assert verify_tail(t, Int(14), Int(2)) is True
        assert verify_tail(t, Int(13), 2) is False

    @pytest.mark.parametrize("remembered", [False, True])
    @pytest.mark.parametrize("bad", [None, "x", 0, (0, 0, 0, False, ())])
    def test_non_type_is_refused_whatever_was_admitted_before(self, remembered, bad):
        from plurigenera import verifier

        # forget the remembered type in place, as in a fresh process
        verifier._last_admitted[0] = verifier._NOTHING_ADMITTED
        if remembered:
            verify_main_theorem(tame((2, 6, 6)))
        with pytest.raises(InvalidInputError):
            verify_main_theorem(bad)
        with pytest.raises(InvalidInputError):
            verify_tail(bad, 14, 2)

    def test_tail_after_main_reads_statement_4_from_the_check(self, monkeypatch):
        calls = []
        decide = QuasiLinearForm.eventually_at_least

        def counting(form, threshold, target):
            calls.append((threshold, target))
            return decide(form, threshold, target)

        monkeypatch.setattr(QuasiLinearForm, "eventually_at_least", counting)
        for t in (tame((2, 6, 6)), tame((3, 3, 3, 3), chi=1), tame((2, 3), chi=2)):
            main = verify_main_theorem(t)
            calls.clear()
            assert verify_tail(t, 14, 2) is main.stmt4
            assert calls == []
            verify_tail(t, 13, 2)
            verify_tail(t, 14, 3)
            assert calls == [(13, 2), (14, 3)]

    def test_queries_rebind_no_package_attribute(self):
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "plurigenera" or name.startswith("plurigenera.")
        ]
        before = {m: dict(vars(m)) for m in modules}
        for t in _single_type_requests(11, 200):
            try:
                verify_main_theorem(t)
            except InadmissibleTypeError:
                continue
            if t.g == 0:
                verify_tail(t, 14, 2)
                verify_tail(t, 13, 2)
        for m in modules:
            after = vars(m)
            assert after.keys() == before[m].keys(), m.__name__
            changed = [k for k, v in before[m].items() if after[k] is not v]
            assert changed == [], m.__name__


class TestStatementMemo:
    """Single-type queries read their ``MainTheoremReport`` from a bounded
    memo keyed on (form, audit length, exactness), shared by every type
    with that form."""

    @staticmethod
    def _upto(t):
        period = lcm(*(f.m for f in t.fibres))
        return 14 + 2 * period if period <= 120 else 40

    def test_memo_hit_equals_a_fresh_check(self):
        _kept_report.cache_clear()
        hits = 0
        # equal types built apart: each is admitted afresh, and its form
        # is found in the memo
        for first, again in zip(*(_single_type_requests(20170, 1000) for _ in "ab")):
            try:
                main = verify_main_theorem(first)
            except InadmissibleTypeError:
                continue
            before = _kept_report.cache_info().hits
            assert verify_main_theorem(again) == main
            assert _kept_report.cache_info().hits == before + 1
            hits += 1
            form, upto, exact = plurigenus_form(again), self._upto(again), again.g == 0
            fresh = StatementCheck.from_form(form, upto)
            assert _report(form, upto, exact) == MainTheoremReport(
                fresh.p12, *fresh.statements, exact, fresh.series
            )
            assert (main.series, main.p12, main.stmt4) == (
                fresh.series, fresh.p12, fresh.tail
            )
        assert hits > 500

    def test_a_huge_form_is_answered_but_not_kept(self):
        _kept_report.cache_clear()
        huge = tame((2, 3), chi=10**4297)  # a 4,298-digit chi
        report = verify_main_theorem(huge)
        assert report.stmt1 and report.stmt4 and len(report.series) == 27
        assert report.series[1] == 10**4297 - 1  # 1 + (chi - 2) + 0 + 0
        assert _kept_report.cache_info().currsize == 0
        # an entry is kept only if every integer in it fits in 63 bits
        # (P_n = 1 + n*(chi - 2) + n//2 + 2n//3, so P_26 = 26*chi - 21)
        assert verify_main_theorem(tame((2, 3), chi=2**62 // 26)).series[26] < 2**62
        assert _kept_report.cache_info().currsize == 1
        past = verify_main_theorem(tame((2, 3), chi=2**63 // 26 + 2))
        assert past.series[26] >= 2**63
        # small values, but a 65-bit multiplicity in the key
        assert verify_main_theorem(tame((2**64,), chi=2)).series[1:3] == (1, 2)
        assert _kept_report.cache_info().currsize == 1

    @pytest.mark.parametrize("upto", [[14], {}, 13, -1, "20", 14.0, True, None])
    def test_bad_audit_length_is_refused_before_the_memo(self, upto):
        with pytest.raises(InvalidInputError, match="upto"):
            _report(QuasiLinearForm(1, 0, ()), upto, True)

    def test_exactness_is_part_of_the_key(self, monkeypatch):
        # a g = 2 and a g = 0 type with one form, (1, 1, ()), and one
        # audit length, 16: only ``exact`` tells their reports apart
        checks = []
        from_form = StatementCheck.from_form.__func__

        def counting(cls, form, upto=14):
            checks.append(form)
            return from_form(cls, form, upto)

        monkeypatch.setattr(StatementCheck, "from_form", classmethod(counting))
        _kept_report.cache_clear()
        lower = verify_main_theorem(tame((), g=2, chi=3))
        exact = verify_main_theorem(tame((), chi=3))
        assert len(lower.series) == len(exact.series) == 17
        assert replace(lower, exact=True) == exact
        assert lower.exact is False and exact.exact is True
        assert len(checks) == 2
        # an equal-form query built apart is answered from the memo
        assert verify_main_theorem(tame((), chi=3)) is exact
        assert verify_main_theorem(tame((), g=2, chi=3)) is lower
        assert len(checks) == 2


class TestAdmissionRecord:
    """A query that runs in the middle of another one's statement check
    never leaves its report in the other type's record."""

    def test_reentrant_query_keeps_each_report_with_its_type(self, monkeypatch):
        victim = FibrationNumericalType.tame_type((3, 3, 4), chi=1)
        from_form = StatementCheck.from_form.__func__
        armed, nested = [True], []

        def reentrant(cls, form, upto=14):
            if armed:  # once; the victim's own check passes straight through
                armed.clear()
                nested.append(verify_main_theorem(victim).p12)
            return from_form(cls, form, upto)

        monkeypatch.setattr(StatementCheck, "from_form", classmethod(reentrant))
        _kept_report.cache_clear()
        assert verify_main_theorem(FibrationNumericalType.tame_type((2, 5, 10))).p12 == 2
        assert nested == [14]
        assert verify_main_theorem(victim).p12 == 14
        assert verify_tail(victim, 14, 2) is True

    def test_threads_sharing_the_record_get_their_own_reports(self):
        types = [
            t for t in _single_type_requests(305, 400)
            if t.g == 0 and is_admissible(t).admissible
        ][:40]
        expected = [
            (plurigenus(t, 12).value, plurigenus_form(t).eventually_at_least(14, 2))
            for t in types
        ]
        wrong, done = [], []

        def client(offset):
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                for k in range(len(types)):
                    i = (k + offset) % len(types)
                    got = verify_main_theorem(types[i])
                    answer = (got.p12, verify_tail(types[i], 14, 2))
                    if answer != expected[i]:
                        wrong.append((i, answer))
            done.append(offset)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(k * 7,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == [0, 7, 14, 21]
        assert wrong == []


CASE4_SMALL = EnumerationBounds(
    max_mult=7, max_fibres=3, max_chi_plus_t=0,
    characteristics=(0,), include_wild=False, include_quasi_elliptic=False,
)


class TestEnumeration:
    def test_small_case4_cell(self):
        got = [tuple(f.m for f in t.fibres) for t in enumerate_types(CASE4_SMALL)]
        assert (2, 6, 6) in got
        assert (3, 6, 6) in got and (4, 4, 4) in got
        # slope filter
        assert (2, 2, 2) not in got and (2, 3, 6) not in got
        # condition U filter
        assert (2, 3, 7) not in got and (3, 3, 4) not in got

    def test_deterministic_and_duplicate_free(self):
        bounds = EnumerationBounds(
            max_mult=9, max_fibres=4, max_chi_plus_t=2, characteristics=(0, 2)
        )
        first = list(enumerate_types(bounds))
        second = list(enumerate_types(bounds))
        assert first == second
        assert len(set(first)) == len(first)
        keys = [t.sort_key for t in first]
        assert keys == sorted(keys)

    def test_triple_count_matches_bruteforce_oracle(self):
        bounds = EnumerationBounds(
            max_mult=12, max_fibres=3, max_chi_plus_t=0,
            characteristics=(0,), include_wild=False, include_quasi_elliptic=False,
        )
        enumerated = {
            tuple(f.m for f in t.fibres) for t in enumerate_types(bounds) if t.r == 3
        }
        oracle = set()
        for ms in combinations_with_replacement(range(2, 13), 3):
            s = -2 + sum(Fraction(m - 1, m) for m in ms)
            if s <= 0:
                continue
            if all(
                check_condition_U_bruteforce(ConditionUInstance(ms, ms, i))
                for i in (1, 2, 3)
            ):
                oracle.add(ms)
        assert enumerated == oracle

    def test_existence_unknown_flag(self):
        bounds = EnumerationBounds(
            max_mult=8, max_fibres=2, max_chi_plus_t=2, characteristics=(2,)
        )
        flagged = [
            t for t in enumerate_types(bounds)
            if t.existence_unknown
        ]
        assert flagged, "lone doubly-wild shapes should be emitted and flagged"
        for t in flagged:
            assert t.chi == 0 and t.r == 1 and t.fibres[0].t == 2
        shapes = {(t.fibres[0].m, t.fibres[0].nu, t.fibres[0].a) for t in flagged}
        # only nu = 1 shapes survive condition U (the nu = 2 limit shape
        # with series 1 + [n/8] is excluded by U_1)
        assert shapes == {(4, 1, 1), (4, 1, 2), (4, 1, 3)}

    def test_wild_enumeration_respects_coefficient_sets(self):
        bounds = EnumerationBounds(
            max_mult=8, max_fibres=3, max_chi_plus_t=2, characteristics=(2,)
        )
        for t in enumerate_types(bounds):
            assert is_admissible(t).admissible

    @pytest.mark.parametrize(
        "field", [{"max_mult": "30"}, {"characteristics": ("x",)}, {"max_fibres": 2.5}]
    )
    def test_bounds_reject_malformed_fields(self, field):
        with pytest.raises(InvalidInputError):
            EnumerationBounds(**field)

    def test_bounds_past_max_mult_are_refused(self):
        from plurigenera.verifier import MAX_MULT

        assert EnumerationBounds(max_mult=MAX_MULT).max_mult == MAX_MULT
        for max_mult in (MAX_MULT + 1, 10**9, 10**5000):
            with pytest.raises(UnsupportedInputError, match="MAX_MULT"):
                EnumerationBounds(max_mult=max_mult)

    def test_guard(self, monkeypatch):
        from plurigenera import verifier

        monkeypatch.setattr(verifier, "MATERIAL_GUARD", 100)
        bounds = EnumerationBounds(
            max_mult=30, max_fibres=8, max_chi_plus_t=2, characteristics=(2,)
        )
        with pytest.raises(UnsupportedInputError):
            list(enumerate_types(bounds))

    @pytest.mark.parametrize(
        "run",
        [
            enumerate_types,
            lambda bounds: verify_all(bounds, materialize_all=True),
            lambda bounds: find_sharp_cases(bounds, "p13-equals-1"),
        ],
        ids=["enumerate", "material-sweep", "sharp"],
    )
    def test_guard_estimates_every_cell_before_any_runs(self, run):
        # at default bounds the (0, 1, 0) cell alone would test 38,608,020
        # tame multisets; it is refused before the (0, 0, 0) walk
        start = time.perf_counter()
        with pytest.raises(UnsupportedInputError, match=re.escape("(0, 1, 0, False)")):
            run(EnumerationBounds())
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize(
        "run",
        [
            enumerate_types,
            lambda bounds: verify_all(bounds, materialize_all=True),
            lambda bounds: find_sharp_cases(bounds, "p13-equals-1"),
        ],
        ids=["enumerate", "material-sweep", "sharp"],
    )
    def test_wild_cell_past_the_guard_is_refused_before_any_cell_runs(
        self, run, monkeypatch
    ):
        # the first shape of the (3, 1, 1) cell, one wild fibre beside five
        # free slots, gives 278,256 candidates; the cell's exact total is
        # 5,565,120, so it is refused before any cell builds a type
        from plurigenera import verifier

        def no_cell(*args):
            raise AssertionError("a cell ran before every total was checked")

        monkeypatch.setattr(verifier, "_cell_types", no_cell)
        start = time.perf_counter()
        message = "cell (3, 1, 1, False) would test 5565120 candidates, more than"
        with pytest.raises(UnsupportedInputError, match=re.escape(message)):
            run(EnumerationBounds(30, 6, 2, (3,)))
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_wild_shapes_partition_the_raw_combinations(self, p):
        from plurigenera.verifier import _expand, _wild_combos

        for t in range(1, 5):
            for max_fibres in (1, 2, 4):
                for max_mult in (2, 4, 12):
                    raw = raw_wild_combinations(p, t, max_fibres, max_mult)
                    shapes = list(_wild_combos(p, t, max_fibres, max_mult))
                    expanded = [list(_expand(shape)) for shape, _ in shapes]
                    assert [w for _, w in shapes] == [len(e) for e in expanded]
                    assert sum(w for _, w in shapes) == len(raw)
                    union = {combo for combos in expanded for combo in combos}
                    assert len(union) == sum(len(e) for e in expanded)  # disjoint
                    assert union == set(raw)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("max_mult", [4, 12, 30])
    def test_wild_menus_match_the_local_rules(self, p, max_mult):
        # every raw (m, a, nu, e) with nu | m, p^e <= max_mult and a < m,
        # filtered by the local rules with the h^1 flag off
        exponents = [e for e in range(1, max_mult.bit_length()) if p**e <= max_mult]
        for t_j in range(1, 6):
            expected = sorted(
                (m, nu, t_j, a, e)
                for m in range(2, max_mult + 1)
                for nu in range(1, m + 1)
                if m % nu == 0
                for e in exponents
                for a in range(m)
                if not _fibre_violations(m, a, nu, e, t_j, p, False)
            )
            groups = _wild_data(p, t_j, max_mult)
            menu = [f.sort_key + (f.e,) for _, _, records in groups for f in records]
            assert menu == expected, (p, max_mult, t_j)
            for m, nu, records in groups:
                assert {(f.m, f.nu) for f in records} == {(m, nu)}

    def test_a_lone_fibre_of_torsion_length_3_is_enumerated(self):
        fibre = FibreDatum(5, 4, 1, 1, 3)
        ty = wild_type(0, fibre, p=5)
        assert is_admissible(ty).admissible
        types = enumerate_types(
            EnumerationBounds(5, 1, 3, (5,), include_quasi_elliptic=False)
        )
        assert replace(ty, existence_unknown=True) in types

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_lone_wild_fibres_match_a_raw_field_filter(self, p):
        # every raw (m, a, nu, e) with m <= 12 and torsion length 3 or 4,
        # alone in its cell, filtered by is_admissible; a t_j >= 3 fibre's
        # coefficient comes from the non-sharp superset, so its type is
        # flagged existence_unknown
        bounds = EnumerationBounds(12, 1, 4, (p,), include_quasi_elliptic=False)
        enumerated = [ty for ty in enumerate_types(bounds) if ty.torsion_length >= 3]
        expected = {
            replace(ty, existence_unknown=True)
            for chi, t in ((0, 3), (1, 3), (0, 4))
            for m in range(2, 13)
            for nu in range(1, m + 1)
            if m % nu == 0
            for e in range(1, 4)
            for a in range(m)
            for ty in (wild_type(chi, FibreDatum(m, a, nu, e, t), p=p),)
            if is_admissible(ty).admissible
        }
        assert expected
        assert len(enumerated) == len(expected) and set(enumerated) == expected

    def test_condition_u_walk_matches_brute_filter(self):
        # the descending peak-covering walk that drives chi=0 cells must
        # produce exactly the admissible set the naive generate-and-filter
        # approach does, tame and wild alike
        from plurigenera.verifier import _cell_types_material

        bounds = EnumerationBounds(
            max_mult=9, max_fibres=4, max_chi_plus_t=1, characteristics=(0, 2, 3)
        )
        for cell in (((0), 0, 0, False), (2, 0, 1, False), (3, 0, 1, False)):
            p, chi, t, quasi = cell
            if p == 0 and t > 0:
                continue
            fast = set(_cell_types_material(bounds, cell))
            slow = set()
            for wilds in raw_wild_combinations(p, t, bounds.max_fibres, bounds.max_mult):
                slots = bounds.max_fibres - len(wilds)
                for k in range(slots + 1):
                    for comp in combinations_with_replacement(range(2, 10), k):
                        cand = FibrationNumericalType(
                            p=p, g=0, chi=chi, quasi_elliptic=quasi,
                            fibres=wilds + tuple(FibreDatum.tame(m) for m in comp),
                        )
                        if is_admissible(cand).admissible:
                            slow.add(_finalize(cand))
            assert fast == slow, cell

    @pytest.mark.parametrize(
        "bounds",
        [EnumerationBounds(8, 3, 4, (2, 3, 5)), EnumerationBounds(12, 4, 4, (2, 3, 5))],
    )
    def test_bare_wild_combinations_match_admissibility_filter(
        self, bounds, monkeypatch
    ):
        # with no tame slot, _cell_types decides condition U once per
        # (m, nu) shape and builds only the combinations it keeps, so no
        # combination that fails U is ever built
        from plurigenera import verifier
        from plurigenera.verifier import _cell_types

        built = []
        construct = FibrationNumericalType.__post_init__

        def recording(self):
            construct(self)
            built.append(self)

        monkeypatch.setattr(FibrationNumericalType, "__post_init__", recording)
        guard = verifier.MATERIAL_GUARD
        rejected_by_u = 0
        for p in bounds.characteristics:
            for t in (2, 3, 4):
                cell = (p, 0, t, False)
                raw = [
                    wild_type(0, *wilds, p=p)
                    for wilds in raw_wild_combinations(
                        p, t, bounds.max_fibres, bounds.max_mult
                    )
                ]
                reports = [is_admissible(ty) for ty in raw]
                expected = sorted(
                    (_finalize(ty) for ty, rep in zip(raw, reports) if rep.admissible),
                    key=lambda ty: ty.sort_key,
                )
                built.clear()
                assert _cell_types(bounds, cell, 0) == expected, cell
                assert sorted(built, key=lambda ty: ty.sort_key) == expected
                rejected_by_u += sum("condition-U" in rep.violations for rep in reports)
                # a combination rejected before it is built still counts
                # toward the guard
                monkeypatch.setattr(verifier, "MATERIAL_GUARD", len(raw) - 1)
                with pytest.raises(UnsupportedInputError):
                    _cell_types(bounds, cell, 0)
                monkeypatch.setattr(verifier, "MATERIAL_GUARD", len(raw))
                assert _cell_types(bounds, cell, 0) == expected
                monkeypatch.setattr(verifier, "MATERIAL_GUARD", guard)
        assert rejected_by_u > 0

    def test_condition_u_walk_order_is_pinned(self):
        # the brute-filter test above compares sets; this pins the order in
        # which the walk emits its candidates, tame and with a wild fibre
        import hashlib
        import json

        from plurigenera.verifier import _covered_companions

        wild = (12, 6)  # the (m, nu) of a p = 2, t_j = 1 fibre
        seqs = [
            list(_covered_companions(30, 4, ())),
            list(_covered_companions(24, 7, ())),
            list(_covered_companions(30, 3, (wild,))),
        ]
        assert [len(s) for s in seqs] == [1072, 66876, 146]
        digest = hashlib.sha256(json.dumps(seqs).encode()).hexdigest()
        assert digest == (
            "9ffe3f6a0526fed16680ee441a0e3cd548996c6ba6da2f914ac539c500487fbc"
        )

    def test_condition_u_walk_matches_its_order_and_set_oracle(self):
        # beside wild fibres drawn from the menus, the walk yields exactly
        # the multisets that pass the gcd decider, sorted by their values
        # read from the largest down; max_mult past 9 reaches the stepped
        # last slot beside a wild need
        from plurigenera.verifier import _covered_companions

        rng = random.Random(20)
        total = 0
        for _ in range(150):
            max_mult, size = rng.randint(6, 40), rng.randint(0, 3)
            menu = [
                (m, nu)
                for p in (2, 3, 5)
                for t_j in (1, 2)
                for m, nu, _ in _wild_data(p, t_j, max_mult)
            ]
            wilds = rng.sample(menu, rng.randint(0, min(2, len(menu))))
            expected = sorted(
                (
                    comp
                    for k in range(size + 1)
                    for comp in combinations_with_replacement(range(2, max_mult + 1), k)
                    if _all_u(
                        [m for m, _ in wilds] + list(comp),
                        [nu for _, nu in wilds] + list(comp),
                    )
                ),
                key=lambda comp: comp[::-1],
            )
            got = list(_covered_companions(max_mult, size, wilds))
            assert got == expected, (max_mult, size, wilds)
            total += len(got)
        assert total > 1000


def raw_cell_candidates(bounds, cell, max_tame):
    """Every candidate of a cell, validated, from itertools alone: each
    multiset of wild records (every t_j <= t) with torsion lengths summing
    to t, beside each multiset of at most ``max_tame`` tame
    multiplicities that fits in ``max_fibres``."""
    p, chi, t, quasi = cell
    menu = [
        f
        for t_j in range(1, t + 1)
        for _, _, records in _wild_data(p, t_j, bounds.max_mult)
        for f in records
    ]
    for k in range(bounds.max_fibres + 1):
        for wilds in combinations_with_replacement(menu, k):
            if sum(f.t for f in wilds) != t:
                continue
            for j in range(min(max_tame, bounds.max_fibres - k) + 1):
                tame_menu = range(2, bounds.max_mult + 1)
                for ms in combinations_with_replacement(tame_menu, j):
                    yield FibrationNumericalType(
                        p=p, g=0, chi=chi, quasi_elliptic=quasi,
                        fibres=wilds + tuple(FibreDatum.tame(m) for m in ms),
                    )


class TestLeanAdmission:
    """``_cell_types`` tests only the slope, on integers, and builds only
    its survivors; the oracle filters independently built raw
    candidates by ``is_admissible`` and attaches the flag by ``_finalize``."""

    BOUNDS = EnumerationBounds(8, 3, 3, (0, 2, 3))

    def test_cell_types_match_the_admissibility_filter(self):
        from plurigenera.verifier import _cell_order, _cell_types

        cells = _cell_order(self.BOUNDS)
        kinds = set()
        for cell in cells:
            p, chi, t, quasi = cell
            for cap in (0, 1, self.BOUNDS.max_fibres):
                expected = sorted(
                    (
                        _finalize(ty)
                        for ty in raw_cell_candidates(self.BOUNDS, cell, cap)
                        if is_admissible(ty).admissible
                    ),
                    key=lambda ty: ty.sort_key,
                )
                got = _cell_types(self.BOUNDS, cell, cap)
                assert got == expected, (cell, cap)
                # sort_key also reads torsion_length, which equality skips
                assert [ty.sort_key for ty in got] == [ty.sort_key for ty in expected]
                kinds.add(
                    "quasi-elliptic" if quasi
                    else "tame-walk" if (chi, t) == (0, 0)
                    else "tame-multisets" if t == 0
                    else "wild-multisets" if chi >= 1
                    else "wild-walk"
                )
                if t >= 3 and expected:
                    kinds.add("t>=3")
                if cap == 0 and t > 0 and expected:
                    kinds.add("no-free-slot")
                if any(ty.existence_unknown for ty in expected):
                    kinds.add("existence-unknown")
        assert kinds == {
            "quasi-elliptic", "tame-walk", "tame-multisets", "wild-multisets",
            "wild-walk", "t>=3", "no-free-slot", "existence-unknown",
        }

    def test_shape_u_matches_the_gcd_decision(self):
        from plurigenera.congruence import _all_u
        from plurigenera.verifier import _shape_u, _wild_combos

        shapes = [
            shape
            for p in (2, 3, 5)
            for t in (1, 2, 3, 4)
            for shape, _ in _wild_combos(p, t, 4, 30)
        ]
        rng = random.Random(5)
        for _ in range(3000):
            nus = [rng.randint(1, 12) for _ in range(rng.randint(1, 5))]
            shapes.append([(nu * rng.randint(1, 6), nu, ()) for nu in nus])
        shapes = [s for s in shapes if all(m >= 2 for m, _, _ in s)]
        verdicts = [_shape_u(s) for s in shapes]
        assert True in verdicts and False in verdicts
        for shape, verdict in zip(shapes, verdicts):
            ms, nus = [m for m, _, _ in shape], [nu for _, nu, _ in shape]
            assert verdict == _all_u(ms, nus), shape


def _fake_pool(monkeypatch, cpus):
    """Replace the process pool by a fake that runs the cells serially in
    this process, on a machine with ``cpus`` CPUs; returns the list the
    fake appends each pool size to."""
    import multiprocessing

    from plurigenera import verifier

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, work, tasks):
            return [work(*task) for task in tasks]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext)
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: cpus)
    return sizes


class TestSweep:
    SMALL = EnumerationBounds(
        max_mult=10, max_fibres=4, max_chi_plus_t=2, characteristics=(0, 2, 3)
    )

    def test_certified_matches_material(self):
        certified = verify_all(self.SMALL)
        material = verify_all(self.SMALL, materialize_all=True)
        for rep in (certified, material):
            assert rep["counterexamples"] == []
            assert rep["replay_failures"] == []
        assert (
            certified["extremes"]["max_first_nonzero"]
            == material["extremes"]["max_first_nonzero"]
        )
        assert (
            certified["extremes"]["max_first_ge2"]
            == material["extremes"]["max_first_ge2"]
        )
        assert certified["extremes"]["exact"]
        cert_p13 = {tuple(sorted(f["m"] for f in d["fibres"]))
                    for d in certified["extremes"]["p13_le_1_types"]}
        mat_p13 = {tuple(sorted(f["m"] for f in d["fibres"]))
                   for d in material["extremes"]["p13_le_1_types"]}
        assert cert_p13 == mat_p13

    def test_jobs_determinism(self):
        assert verify_all(self.SMALL, jobs=1) == verify_all(self.SMALL, jobs=3)

    @pytest.mark.parametrize("quasi", [False, True])
    @pytest.mark.parametrize(
        "chi, multiplicities",
        [(1, ((2, 3), (2, 2, 2))), (2, ((2,),)), (3, ((),)), (4, ((),))],
    )
    def test_tame_stand_ins_are_read_from_the_certificates(
        self, chi, multiplicities, quasi
    ):
        # a tame cell that its row covers whole is reported through one
        # stand-in per certificate, the type whose exact form is its bound
        from plurigenera.cases import cell_row
        from plurigenera.model import exact_form
        from plurigenera.verifier import _materialize_certified

        cell = (2, chi, 0, quasi)
        stand_ins = _materialize_certified(EnumerationBounds(), cell)
        assert stand_ins == [tame(ms, chi=chi, p=2, quasi=quasi) for ms in multiplicities]
        bounds = [cert.bound for cert in cell_row(chi, 0).certificates]
        assert [exact_form(ty) for ty in stand_ins] == bounds

    # over characteristics (0, 2, 3), chi + t <= 0 is 3 tame cells in one
    # class, so 1 run and no pool; chi + t <= 1 is 10 cells in 5 runs
    # (3 tame classes, 2 wild cells)
    @pytest.mark.parametrize(
        "cpus, max_chi_plus_t, pools",
        [(2, 40, [2]), (8, 0, []), (1, 40, []), (None, 40, []), (8, 1, [5])],
    )
    def test_pool_is_bounded_by_cpus_and_cells(
        self, monkeypatch, cpus, max_chi_plus_t, pools
    ):
        from plurigenera import verifier

        sizes = _fake_pool(monkeypatch, cpus)
        bounds = EnumerationBounds(
            max_chi_plus_t=max_chi_plus_t, characteristics=(0, 2, 3)
        )
        # the probe's result carries p where the re-keyer replaces it
        results = verifier._map_cells(
            lambda bounds, cell: {"p": cell[0], "rest": cell[1:]},
            bounds,
            verifier._cell_order(bounds),
            5000,
        )
        assert results == [
            {"p": cell[0], "rest": cell[1:]} for cell in verifier._cell_order(bounds)
        ]
        assert sizes == pools

    def test_statement_witnesses_match_a_scan_from_one(self):
        # _statement_stats scans past 14 only where StatementCheck has no
        # witness; the material sweep's witnesses lie at n <= 8, so
        # positive-slope types and forms with later witnesses are added
        from plurigenera.congruence import QuasiLinearForm
        from plurigenera.model import exact_form, slope
        from plurigenera.verifier import _statement_stats

        lone_wild = [
            wild_type(0, FibreDatum(5, a, 1, 1, 1), FibreDatum.tame(m), p=5)
            for a in range(5)
            for m in range(2, 13)
        ]
        triples = [tame(ms) for ms in combinations_with_replacement(range(2, 13), 3)]
        types = list(enumerate_types(self.SMALL))
        types += [ty for ty in lone_wild + triples if slope(ty) > 0]

        def scan(form, target):
            n = 1
            while max(0, form.value(n)) < target:
                n += 1
            return n

        # floor(n/20) - 1, floor(n/40) and 1 + floor(n/20): P_n >= 2 first
        # at 60, 80 and 20, P_n >= 1 first at 40, 40 and 1
        late = [
            QuasiLinearForm(c, 0, ((1, m),)) for c, m in ((-1, 20), (0, 40), (1, 20))
        ]
        witnesses = set()
        for form in [exact_form(ty) for ty in types] + late:
            _, first1, first2 = _statement_stats(form)
            assert (first1, first2) == (scan(form, 1), scan(form, 2)), form
            witnesses.add((first1, first2))
        assert {5, 6} <= {f1 for f1, _ in witnesses}
        assert {9, 10} <= {f2 for _, f2 in witnesses}
        assert max(f1 for f1, _ in witnesses) > 14
        assert max(f2 for _, f2 in witnesses) > 14

    def test_rows(self):
        rep = verify_all(self.SMALL, keep_rows=True)
        assert rep["rows"]
        row = rep["rows"][0]
        assert len(row["series"]) == 14 and "label" in row
        for row in rep["rows"]:
            ty = FibrationNumericalType.from_dict(row["type"])
            assert row["series"] == [plurigenus(ty, n).value for n in range(1, 15)]


def _digest(report):
    import hashlib
    import json

    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


class TestCountedCells:
    """The certified sweep counts the wild cells with chi + t >= 3, whose
    easy-large-degree certificate covers every type, instead of building
    them; building stays the oracle."""

    # (bounds, SHA-256 of the certified report as built type by type)
    PINNED = [
        (EnumerationBounds(2, 8, 4),
         "82ec189dcbd6aa498f852d2cbb9c0f8bc5ee3c353515d6439bfef5436c9988a9"),
        (EnumerationBounds(3, 8, 4),
         "688a988f23c3b7d04b942c78505cba0076b8cd60cba04cca36438ac36e357c04"),
        (EnumerationBounds(4, 8, 4),
         "0b2a0f7b18287d42596ad7489080b4596dfae641937dfd6e439ff254b76fc789"),
        (EnumerationBounds(10, 1, 4),
         "75f7f4ff33e4e0b8b020112349acc867bf391a15a83479376bb7bbfb659425fd"),
        (EnumerationBounds(30, 8, 4, (2,)),
         "21c308f589fdb6d8f2cd822624cd97763153734e12e883241e605ddbde04eea9"),
        (EnumerationBounds(12, 3, 6, (2, 3)),
         "4bd46f192a5b9b9a076b5d449a75f94c68a48d645f38929a20774ad71379c65c"),
        (EnumerationBounds(10, 1, 3, (2,)),
         "23f531ad1d735c2a81495f343ead5da6147c74271bb98755e1f034f70ab82f1d"),
        # max first1 = 1 (36 attainers), max first2 = 2 (8 attainers)
        (EnumerationBounds(2, 2, 4, (2, 3)),
         "3e2713c74bc3cef2df1d50ad21d47bc8f944cc1fe71b00c7119db5047c0c3b6a"),
    ]
    BOUNDS = [bounds for bounds, _ in PINNED]
    # max_mult 2 to 4, a single characteristic, and chi + t = 5
    SMALL_BOUNDS = [
        EnumerationBounds(2, 4, 4, (2,)),
        EnumerationBounds(3, 3, 4, (2, 3)),
        EnumerationBounds(4, 3, 5, (2, 3)),
        EnumerationBounds(12, 2, 5, (2, 3, 5)),
    ]

    def test_multiset_estimate_is_the_multiset_count(self):
        # the companions' factor of _candidate_total: the multisets of at
        # most s values from 2..n
        from plurigenera.verifier import _multisets_upto

        for n in range(2, 13):
            for s in range(6):
                assert comb(n - 1 + s, s) == len(list(_multisets_upto(n, s)))

    def test_candidate_total_is_the_total_the_guard_reaches(self, monkeypatch):
        # for every cell and cap whose companions are not drawn from the
        # condition-U walk, the running count of _cell_candidates ends at
        # the closed form: one more guard step refuses the cell.  The
        # bounds reach t = 5 (partitions with two runs, such as 1 + 2 and
        # 1 + 1 + 3), quasi-elliptic cells, and two to five fibres
        from plurigenera import verifier
        from plurigenera.verifier import _candidate_total, _cell_candidates, _cell_order

        all_bounds = [
            EnumerationBounds(6, 4, 4, (2, 3)),
            EnumerationBounds(8, 3, 3, (2, 3, 5)),
            EnumerationBounds(4, 5, 5, (2,)),
            EnumerationBounds(12, 2, 4, (3, 5)),
        ]
        checked = set()
        for bounds, cell in (
            (bounds, cell) for bounds in all_bounds for cell in _cell_order(bounds)
        ):
            _, chi, t, quasi = cell
            u_applies = chi == 0 and not quasi
            for cap in range(bounds.max_fibres + 1):
                if cap and u_applies:
                    continue
                monkeypatch.setattr(verifier, "MATERIAL_GUARD", 10**18)
                total = _candidate_total(bounds, cell, cap)
                weights = sum(w for _, w, _ in _cell_candidates(bounds, cell, cap))
                assert weights == total or u_applies, (cell, cap)
                assert weights <= total
                monkeypatch.setattr(verifier, "MATERIAL_GUARD", total)
                assert _candidate_total(bounds, cell, cap) == total
                for _ in _cell_candidates(bounds, cell, cap):
                    pass
                if total:
                    monkeypatch.setattr(verifier, "MATERIAL_GUARD", total - 1)
                    with pytest.raises(UnsupportedInputError, match="would test"):
                        _candidate_total(bounds, cell, cap)
                    with pytest.raises(UnsupportedInputError, match="exceeds"):
                        for _ in _cell_candidates(bounds, cell, cap):
                            pass
                    checked.add((t >= 3, quasi, u_applies))
        assert checked >= {(True, False, False), (True, True, False), (True, False, True)}

    @pytest.mark.parametrize("bounds", BOUNDS + SMALL_BOUNDS)
    def test_count_matches_built_types(self, bounds):
        from plurigenera.verifier import (
            _cell_order,
            _cell_types,
            _count_certified,
            _counted,
        )

        cells = [cell for cell in _cell_order(bounds) if _counted(cell)]
        assert cells
        for cell in cells:
            built = _cell_types(bounds, cell, 0)
            assert _count_certified(bounds, cell) == len(built), cell

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reports_are_pinned(self, jobs):
        for bounds, digest in self.PINNED:
            assert _digest(verify_all(bounds, jobs=jobs)) == digest, bounds

    def test_attainers_are_built_when_counted_cells_attain_the_maximum(
        self, monkeypatch
    ):
        # at max_fibres = 1 no type needs n >= 2 for P_n >= 1, so every
        # type of every counted cell attains max first1 = 1; the
        # attainers are filled in, and no counted cell is swept again
        from plurigenera import verifier

        swept = []
        materialize = verifier._materialize_certified

        def recording(bounds, cell):
            swept.append(cell)
            return materialize(bounds, cell)

        monkeypatch.setattr(verifier, "_materialize_certified", recording)
        rep = verify_all(EnumerationBounds(10, 1, 3, (2,)))
        assert swept and not any(verifier._counted(cell) for cell in swept)
        assert len(swept) == len(set(swept))
        ex = rep["extremes"]
        assert ex["max_first_nonzero"] == 1
        attainers = ex["max_first_nonzero_attainers"]
        assert len(attainers) == 73
        large = [
            d for d in attainers if d["chi"] + sum(f["t"] for f in d["fibres"]) >= 3
        ]
        assert large and len(large) < len(attainers)

    def test_rows_cover_every_counted_type(self):
        from plurigenera.verifier import _cell_order, _cell_types, _counted

        bounds = EnumerationBounds(8, 3, 3, (2, 3))
        with_rows = verify_all(bounds, keep_rows=True)
        assert {k: v for k, v in with_rows.items() if k != "rows"} == verify_all(bounds)
        assert len(with_rows["rows"]) == with_rows["total_materialized"]
        row_types = {
            FibrationNumericalType.from_dict(row["type"]) for row in with_rows["rows"]
        }
        counted = [cell for cell in _cell_order(bounds) if _counted(cell)]
        assert any(_cell_types(bounds, cell, 0) for cell in counted)
        for cell in counted:
            assert set(_cell_types(bounds, cell, 0)) <= row_types, cell

    # elliptic, quasi-elliptic, and elliptic without condition U, whose
    # partitions of t = 3 include the two-run 1 + 2
    @pytest.mark.parametrize(
        "cell", [(2, 0, 4, False), (3, 1, 3, True), (2, 1, 3, False)]
    )
    def test_guard_counts_raw_combinations(self, cell, monkeypatch):
        from plurigenera import verifier
        from plurigenera.verifier import _sweep_cell

        bounds = EnumerationBounds(12, 4, 4, (2, 3))
        p, _, t, _ = cell
        raw = len(raw_wild_combinations(p, t, bounds.max_fibres, bounds.max_mult))
        monkeypatch.setattr(verifier, "MATERIAL_GUARD", raw - 1)
        with pytest.raises(UnsupportedInputError):
            _sweep_cell(bounds, cell, False)
        monkeypatch.setattr(verifier, "MATERIAL_GUARD", raw)
        result = _sweep_cell(bounds, cell, False)
        assert result["counted"]
        assert result["materialized"] == len(verifier._cell_types(bounds, cell, 0))

    @pytest.mark.parametrize("keep_rows", [False, True])
    def test_counted_cell_past_the_guard_is_refused_before_any_cell_runs(
        self, keep_rows, monkeypatch
    ):
        from plurigenera import verifier

        def no_cell(*args):
            raise AssertionError("a cell ran before the counted cells were checked")

        monkeypatch.setattr(verifier, "_sweep_cell", no_cell)
        bounds = EnumerationBounds(max_mult=verifier.MAX_MULT)
        with pytest.raises(UnsupportedInputError, match=re.escape("(2, 0, 4, False)")):
            verify_all(bounds, keep_rows=keep_rows)

    def test_certified_matches_material_up_to_chi_plus_t_4(self):
        bounds = EnumerationBounds(8, 3, 4, (2, 3))
        certified = verify_all(bounds)
        material = verify_all(bounds, materialize_all=True)
        for rep in (certified, material):
            assert rep["counterexamples"] == []
            assert rep["replay_failures"] == []
        for key in ("max_first_nonzero", "max_first_ge2"):
            assert certified["extremes"][key] == material["extremes"][key]
        assert certified["cases"]["easy-large-degree"] > 0

    @pytest.mark.parametrize("cell", [(2, 0, 4, False), (2, 1, 3, False)])
    def test_counted_cell_builds_no_type(self, cell, monkeypatch):
        from plurigenera import verifier

        calls = {"is_admissible": 0, "construct": 0}
        admissible = verifier.is_admissible
        construct = FibrationNumericalType.__post_init__

        def counting_admissible(ty):
            calls["is_admissible"] += 1
            return admissible(ty)

        def counting_construct(self):
            calls["construct"] += 1
            construct(self)

        monkeypatch.setattr(verifier, "is_admissible", counting_admissible)
        monkeypatch.setattr(FibrationNumericalType, "__post_init__", counting_construct)
        result = verifier._sweep_cell(EnumerationBounds(), cell, False)
        assert result["materialized"] > 0
        assert calls == {"is_admissible": 0, "construct": 0}


class TestTameClasses:
    """The cell executor runs each tame class - the cells with t = 0 and
    one (chi, quasi_elliptic) - once, in its first cell, and re-keys that
    result for the class's other characteristics: for the sweep, the
    enumeration and the sharp cases."""

    CASES = [
        (EnumerationBounds(), False, False),
        # quasi-elliptic classes, no p = 0
        (EnumerationBounds(10, 5, 4, (2, 3)), False, False),
        (EnumerationBounds(12, 4, 2), True, False),
        (EnumerationBounds(8, 3, 2), False, True),
        # the counted-cell fallback (maximum first1 = 1)
        (EnumerationBounds(10, 1, 3, (2,)), False, False),
        (EnumerationBounds(10, 1, 3, (2, 3)), False, False),
    ]
    # the bounds of CASES with tame classes of several cells, but the
    # default ones, whose tame cells are past the guard (chi >= 1) or take
    # over a minute each to enumerate (chi = 0)
    ENUMERATED = [
        bounds for bounds, _, _ in CASES[1:] if len(bounds.characteristics) > 1
    ]

    @pytest.mark.parametrize("bounds, materialize_all, keep_rows", CASES)
    def test_tame_cells_match_their_rekeyed_representative(
        self, bounds, materialize_all, keep_rows
    ):
        # the oracle: every tame cell swept on its own
        from plurigenera.verifier import (
            _cell_order,
            _sweep_cell,
            _tame_representatives,
            _with_characteristic,
        )

        source = _tame_representatives(_cell_order(bounds))
        tame = [cell for cell in source if cell[2] == 0]
        assert tame and all(source[cell][1:] == cell[1:] for cell in source)
        swept = {
            cell: _sweep_cell(bounds, cell, materialize_all, keep_rows) for cell in tame
        }
        for cell in tame:
            rekeyed = _with_characteristic(swept[source[cell]], cell[0])
            assert rekeyed == swept[cell], cell

    def test_rekeying_replaces_every_p_and_nothing_else(self):
        # a result with an entry in every field that carries a type or a
        # cell key; the sweeps above leave the failure lists empty, so
        # entries of their shape are added here
        import json

        from plurigenera.verifier import _sweep_cell, _with_characteristic

        result = _sweep_cell(EnumerationBounds(8, 3, 2), (0, 0, 0, False), False, True)
        ty = result["p13_le_1"][0]
        result["counterexamples"] += [
            {"type": ty, "failed": ["stmt1"]},
            {"certificate": "c", "cell": result["cell"]},
        ]
        result["replay_failures"].append({"type": ty, "claims": ["c"]})
        for key in ("p13_le_1", "rows", "certified"):
            assert result[key], key
        assert result["first1"][1] and result["first2"][1]

        before = json.dumps(result, sort_keys=True)
        rekeyed = _with_characteristic(result, 7)
        after = json.dumps(rekeyed, sort_keys=True)
        assert before.count('"p": 0') == before.count('"p": ') > 10
        assert '"p": 0' not in after and after.replace('"p": 7', '"p": 0') == before
        # parts without a p are shared, not copied
        assert rekeyed["p13_le_1"][0]["fibres"] is ty["fibres"]

        # the types of an enumeration cell, in a list and in a tuple
        types = [T266, T2510, tame((2, 3), chi=1, p=2, quasi=True)]
        for seq in (types, tuple(types)):
            rekeyed = _with_characteristic(seq, 3)
            assert type(rekeyed) is type(seq)
            assert [ty.p for ty in rekeyed] == [3, 3, 3]
            assert [{**ty.to_dict(), "p": 0} for ty in rekeyed] == [
                {**ty.to_dict(), "p": 0} for ty in seq
            ]
            assert [ty.torsion_length for ty in rekeyed] == [0, 0, 0]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_tame_class_is_swept_once(self, jobs, monkeypatch):
        from plurigenera import verifier

        sizes = _fake_pool(monkeypatch, 2)
        walks, built = [], []
        walk, sweep_cell = verifier._covered_companions, verifier._sweep_cell

        def counting_walk(max_mult, max_size, wilds):
            if not wilds:
                walks.append(max_size)
            return walk(max_mult, max_size, wilds)

        def counting_built(bounds, cell, *args):
            if cell[2] == 0:
                built.append(cell)
            return sweep_cell(bounds, cell, *args)

        monkeypatch.setattr(verifier, "_covered_companions", counting_walk)
        monkeypatch.setattr(verifier, "_sweep_cell", counting_built)
        bounds = EnumerationBounds()
        report = verify_all(bounds, jobs=jobs)
        assert report["counterexamples"] == [] and report["replay_failures"] == []
        assert sizes == ([2] if jobs == 2 else [])
        # one (0, 0) walk, not one per characteristic
        assert len(walks) == 1
        classes = {
            (chi, quasi) for _, chi, t, quasi in verifier._cell_order(bounds) if t == 0
        }
        assert len(built) == len(classes)
        assert {(chi, quasi) for _, chi, _, quasi in built} == classes

    @pytest.mark.parametrize("bounds", ENUMERATED)
    def test_enumerated_tame_cells_match_their_rekeyed_representative(self, bounds):
        # the oracle: every tame cell enumerated on its own
        from plurigenera.verifier import (
            _cell_order,
            _cell_types_material,
            _tame_representatives,
            _with_characteristic,
        )

        source = _tame_representatives(_cell_order(bounds))
        tame = [cell for cell in source if cell[2] == 0]
        built = {cell: _cell_types_material(bounds, cell) for cell in tame}
        assert len(set(map(source.get, tame))) < len(tame)
        assert any(built.values())
        for cell in tame:
            assert _with_characteristic(built[source[cell]], cell[0]) == built[cell]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_tame_class_is_enumerated_once(self, jobs, monkeypatch):
        from plurigenera import verifier

        bounds = EnumerationBounds(12, 4, 2)
        expected = [
            ty
            for cell in verifier._cell_order(bounds)
            for ty in verifier._cell_types_material(bounds, cell)
        ]
        sizes = _fake_pool(monkeypatch, 2)
        tame = []
        material = verifier._cell_types_material

        def counting_material(bounds, cell):
            if cell[2] == 0:
                tame.append(cell)
            return material(bounds, cell)

        monkeypatch.setattr(verifier, "_cell_types_material", counting_material)
        assert enumerate_types(bounds, jobs=jobs) == expected
        assert sizes == ([2] if jobs == 2 else [])
        all_tame = [cell for cell in verifier._cell_order(bounds) if cell[2] == 0]
        assert len(all_tame) == 19
        assert len(tame) == 5
        assert {cell[1:] for cell in tame} == {cell[1:] for cell in all_tame}

    @pytest.mark.parametrize(
        "predicate", ["p123-zero", "pn-le-1-through-7", "p13-equals-1"]
    )
    def test_sharp_cases_match_a_per_cell_filter(self, predicate):
        from plurigenera.model import exact_form
        from plurigenera.verifier import (
            _PREDICATES,
            _cell_order,
            _cell_types_material,
        )

        bounds = EnumerationBounds(12, 4, 1, (0, 2, 3))
        pred = _PREDICATES[predicate]
        expected = [
            ty
            for cell in _cell_order(bounds)
            for ty in _cell_types_material(bounds, cell)
            if pred(exact_form(ty).series(13))
        ]
        hits = find_sharp_cases(bounds, predicate)
        assert hits == expected
        # hits in tame cells past the first characteristic are re-keyed
        assert {ty.p for ty in hits if ty.torsion_length == 0} == {0, 2, 3}


class TestSharpCases:
    def test_p13_equals_one_up_to_14(self):
        bounds = EnumerationBounds(
            max_mult=14, max_fibres=8, max_chi_plus_t=0,
            characteristics=(0,), include_wild=False, include_quasi_elliptic=False,
        )
        hits = find_sharp_cases(bounds, "p13-equals-1")
        assert [tuple(f.m for f in t.fibres) for t in hits] == [(2, 6, 6)]

    def test_p123_zero_up_to_14(self):
        bounds = EnumerationBounds(
            max_mult=14, max_fibres=8, max_chi_plus_t=0,
            characteristics=(0,), include_wild=False, include_quasi_elliptic=False,
        )
        hits = {tuple(f.m for f in t.fibres)
                for t in find_sharp_cases(bounds, "p123-zero")}
        assert hits == {
            (2, 5, 10), (2, 7, 14),
            (2, 6, 6), (2, 8, 8), (2, 10, 10), (2, 12, 12), (2, 14, 14),
        }

    def test_pn_le_1_through_7_contains_2510(self):
        bounds = EnumerationBounds(
            max_mult=10, max_fibres=3, max_chi_plus_t=0,
            characteristics=(0,), include_wild=False, include_quasi_elliptic=False,
        )
        hits = {tuple(f.m for f in t.fibres)
                for t in find_sharp_cases(bounds, "pn-le-1-through-7")}
        assert (2, 5, 10) in hits

    def test_unknown_predicate(self):
        with pytest.raises(InvalidInputError):
            find_sharp_cases(CASE4_SMALL, "p42-zero")


TINY = EnumerationBounds(4, 2, 1, (0, 2))


@pytest.mark.parametrize(
    "call",
    [
        # congruence fields
        lambda: ConditionUInstance((2,), (1,), "1"),
        lambda: ConditionUInstance(("2",), (1,), 1),
        lambda: plurigenera.QuasiLinearForm(1, 0, (("a", 2),)).series(3),
        lambda: plurigenera.QuasiLinearForm(1.5, 0, ()).series(3),
        # cover data: no truncation of a non-integer
        lambda: plurigenera.AbelianGroupData((2.5,), ((1,), (1,))),
        lambda: plurigenera.AbelianGroupData((6,), ((1.9,), (4,), (1,))),
        lambda: plurigenera.AbelianGroupData(("a",), ((1,),)),
        # library entry points
        lambda: EnumerationBounds(characteristics=5),
        lambda: EnumerationBounds(include_wild="no"),
        lambda: verify_all(TINY, jobs="2"),
        lambda: verify_all(TINY, materialize_all="no"),
        lambda: verify_all(TINY, keep_rows=1),
        lambda: enumerate_types(TINY, jobs=1.5),
        lambda: find_sharp_cases(TINY, ["x"]),
        lambda: verify_tail(T266, "14", 2),
        lambda: plurigenera.SurfaceInvariants("1", 0),
        # a public call given something other than a type or bounds
        lambda: is_admissible(None),
        lambda: verify_main_theorem("x"),
        lambda: verify_main_theorem(None),
        lambda: verify_tail(None, 14, 2),
        lambda: plurigenera.slope(None),
        lambda: replay_type(None),
        lambda: verify_all(None),
        lambda: enumerate_types(None),
        lambda: find_sharp_cases(None, "p13-equals-1"),
        lambda: StatementCheck.from_form(QuasiLinearForm(1, 0, ()), "20"),
        lambda: cell_row("a", 0),
        lambda: QuasiLinearForm(1, 0, ()).eventually_at_least(1.5, 2),
        lambda: QuasiLinearForm(1, 0, ()).eventually_at_least("a", 2),
        lambda: QuasiLinearForm(1, 0, ()).eventually_at_least(1, None),
        lambda: plurigenera.check_condition_U(None),
        lambda: check_condition_U_bruteforce(None),
        lambda: plurigenera.check_all_U(None),
        lambda: plurigenera.classify(None),
        lambda: plurigenera.classify_kod0_subtype(None),
        lambda: plurigenus(None, 3),
        lambda: plurigenera.plurigenera_series(None, 3),
        lambda: plurigenera.delta_degree(None),
        lambda: plurigenera.cover_to_type(None),
        lambda: plurigenera.riemann_hurwitz_genus(None),
        lambda: plurigenera.bad_characteristics(None),
        lambda: plurigenera.admissible_coefficients("8", 2, 2, 1),
        lambda: plurigenera.admissible_coefficients(8.0, 2, 2, 1),
        lambda: plurigenera.admissible_coefficients(8, 2, 2, 1, h1_at_most_one="x"),
        lambda: achievable_torsion_lengths("2", 1, 2),
        # typed cache: an equal float or bool is not served the int's entry
        lambda: (achievable_torsion_lengths(2, 1, 2), achievable_torsion_lengths(2.0, 1, 2)),
        lambda: (achievable_torsion_lengths(1, 1, 2), achievable_torsion_lengths(True, 1, 2)),
    ],
)
def test_malformed_library_input_raises_invalid_input(call):
    from plurigenera import verifier

    # as in a fresh process: no type admitted yet
    verifier._last_admitted[0] = verifier._NOTHING_ADMITTED
    with pytest.raises(InvalidInputError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: ConditionUInstance(2, (1,), 1),
        lambda: plurigenera.AbelianGroupData((2,), (1, 1)),
        lambda: plurigenera.QuasiLinearForm(1, 0, ((1,),)),
        # the same shapes one level up or down
        lambda: ConditionUInstance((2,), 1, 1),
        lambda: plurigenera.AbelianGroupData(2, ((1,), (1,))),
        lambda: plurigenera.AbelianGroupData((2,), 1),
        lambda: plurigenera.QuasiLinearForm(1, 0, 5),
        lambda: plurigenera.QuasiLinearForm(1, 0, ((1, 2, 3),)),
        lambda: FibrationNumericalType(0, 0, 0, False, 5),
    ],
    ids=[
        "u-instance-m-int", "group-monodromy-int", "form-pair-short",
        "u-instance-nu-int", "group-factors-int", "group-monodromies-int",
        "form-pairs-int", "form-pair-long", "type-fibres-int",
    ],
)
def test_malformed_container_shape_raises_invalid_input(call):
    with pytest.raises(InvalidInputError):
        call()


def test_jobs_below_one_runs_serially():
    # jobs is checked for its type only, as the CLI's --jobs 0 relies on
    assert verify_all(TINY, jobs=0) == verify_all(TINY, jobs=1)
