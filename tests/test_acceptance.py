"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib
import json
import random
import time
from itertools import combinations_with_replacement
from math import lcm

import pytest

from plurigenera import (
    AbelianGroupData,
    ConditionUInstance,
    EnumerationBounds,
    FibrationNumericalType,
    FibreDatum,
    check_condition_U,
    check_condition_U_bruteforce,
    classify,
    cover_to_type,
    enumerate_types,
    is_admissible,
    riemann_hurwitz_genus,
    plurigenera_series,
    SurfaceInvariants,
    torsion_solutions,
    verify_all,
    verify_main_theorem,
    verify_tail,
)
from plurigenera.cases import exact_form, replay_type
from plurigenera.verifier import _wild_data


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def tame(ms, chi=0, p=0):
    return FibrationNumericalType.tame_type(ms, p=p, chi=chi)


DEFAULT_BOUNDS = EnumerationBounds()
CASE4_BOUNDS = EnumerationBounds(
    max_mult=30, max_fibres=8, max_chi_plus_t=0,
    characteristics=(0,), include_wild=False, include_quasi_elliptic=False,
)


@pytest.fixture(scope="module")
def default_sweep():
    start = time.perf_counter()
    rep = verify_all(DEFAULT_BOUNDS)
    rep["_elapsed"] = time.perf_counter() - start
    return rep


@pytest.fixture(scope="module")
def case4_types():
    return list(enumerate_types(CASE4_BOUNDS))


def test_criterion_1_golden_266():
    start = time.perf_counter()
    series = [v.value for v in plurigenera_series(tame((2, 6, 6)), 13)]
    elapsed = time.perf_counter() - start
    assert series[1:7] == [0, 0, 0, 1, 1, 2]
    assert series[13] == 1
    assert elapsed < 1.0
    report(1, f"(2,6,6) series P_1..P_6 = {series[1:7]}, P_13 = {series[13]} "
              f"in {elapsed:.4f}s")


def test_criterion_2_golden_2510():
    start = time.perf_counter()
    series = [v.value for v in plurigenera_series(tame((2, 5, 10)), 13)]
    elapsed = time.perf_counter() - start
    assert series[4:8] == [1, 1, 1, 1]
    assert series[8:11] == [2, 2, 3]
    assert series[11] == 1 and series[12] == 2 and series[13] == 2
    assert elapsed < 1.0
    report(2, f"(2,5,10) series P_4..P_13 = {series[4:]} in {elapsed:.4f}s")


def condition_u_bitset(ms, nus, i):
    """U_i by reachable sums, sharing no code with the gcd kernel: the sums
    sum n_j*(M/m_j) mod M = lcm(m) reachable so far are one M-bit integer,
    and each residue choice of n_j (n_i = 1 mod nu_i) ORs in one rotation
    of it.  U_i holds when the sum 0 is reachable."""
    big_m = lcm(*ms)
    full = (1 << big_m) - 1
    reach = 1
    for j, (m, nu) in enumerate(zip(ms, nus)):
        weight = big_m // m
        step = 0
        for n in range(1, m + 1, nu) if j == i - 1 else range(m):
            shift = n * weight % big_m
            step |= (reach << shift | reach >> (big_m - shift)) & full
        reach = step
    return bool(reach & 1)


def test_criterion_3_condition_u():
    fixtures = [
        (((2, 2, 2, 3), (2, 2, 2, 3), 4), False),
        (((8, 2), (2, 2), 1), False),
        (((8, 4), (4, 4), 1), False),
    ]
    for (ms, nus, i), expected in fixtures:
        inst = ConditionUInstance(ms, nus, i)
        assert check_condition_U(inst) is expected
        assert check_condition_U_bruteforce(inst) is expected
        assert condition_u_bitset(ms, nus, i) is expected

    # every instance with r <= 4 and m <= 12 against the bitset oracle;
    # the r <= 2 ones also against the residue brute force
    pairs = [
        (m, nu) for m in range(2, 13) for nu in range(1, m + 1) if m % nu == 0
    ]
    exhaustive = brute = 0
    for r in range(1, 5):
        for combo in combinations_with_replacement(pairs, r):
            ms = tuple(m for m, _ in combo)
            nus = tuple(nu for _, nu in combo)
            seen = set()
            for idx, pv in enumerate(combo):
                if pv in seen:
                    continue
                seen.add(pv)
                inst = ConditionUInstance(ms, nus, idx + 1)
                expected = condition_u_bitset(ms, nus, idx + 1)
                assert check_condition_U(inst) == expected
                exhaustive += 1
                if r <= 2:
                    assert check_condition_U_bruteforce(inst) == expected
                    brute += 1
    assert exhaustive == 264_180

    rng = random.Random(0)
    randomized = 0
    while randomized < 500:
        r = rng.randint(1, 5)
        ms, nus = [], []
        for _ in range(r):
            m = rng.randint(2, 20)
            divs = [d for d in range(1, m + 1) if m % d == 0]
            ms.append(m)
            nus.append(rng.choice(divs))
        if lcm(*ms) > 2000:
            continue
        inst = ConditionUInstance(tuple(ms), tuple(nus), rng.randint(1, r))
        assert check_condition_U(inst) == check_condition_U_bruteforce(inst)
        randomized += 1
    report(3, f"U fixtures hold; gcd == bitset oracle on {exhaustive} exhaustive "
              f"instances ({brute} of them also == brute force) and gcd == brute "
              f"force on {randomized} random instances, zero disagreements")


def test_criterion_4_main_theorem_sweep(default_sweep):
    rep = default_sweep
    assert rep["counterexamples"] == []
    assert all(c["statements_ok"] for c in rep["certified_classes"])
    ex = rep["extremes"]
    assert ex["exact"] is True
    assert ex["max_first_nonzero"] == 4
    assert ex["max_first_ge2"] == 8
    attain2 = {
        tuple(sorted(f["m"] for f in d["fibres"]))
        for d in ex["max_first_ge2_attainers"]
    }
    assert (2, 5, 10) in attain2
    assert rep["_elapsed"] < 60.0
    report(4, f"zero counterexamples over default bounds "
              f"({rep['total_materialized']} materialized types + "
              f"{len(rep['certified_classes'])} certified classes); "
              f"max first-nonzero 4, max first->=2 8 (attained by (2,5,10)); "
              f"{rep['_elapsed']:.1f}s")


# SHA-256 of the default certified report, serialized with sorted keys
DEFAULT_REPORT_SHA256 = (
    "1d5ee1fca35831d857d5d9035491e99c5962a6fda2d9a56665034947a71ff406"
)


def test_default_report_is_pinned(default_sweep):
    rep = {k: v for k, v in default_sweep.items() if k != "_elapsed"}
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == DEFAULT_REPORT_SHA256


def test_criterion_5_sharpness(case4_types):
    p13_hits = set()
    p123_hits = set()
    for t in case4_types:
        form = exact_form(t)
        values = [max(0, form.value(n)) for n in range(0, 14)]
        ms = tuple(f.m for f in t.fibres)
        if values[13] == 1:
            p13_hits.add(ms)
        if values[1] == 0 and values[2] == 0 and values[3] == 0:
            p123_hits.add(ms)
    assert p13_hits == {(2, 6, 6)}
    family = {(2, b, 2 * b) for b in range(5, 16, 2) if 2 * b <= 30}
    family |= {(2, 2 * a, 2 * a) for a in range(3, 16) if 2 * a <= 30}
    assert p123_hits == family
    report(5, f"unique P_13 = 1 type is (2,6,6); P_1=P_2=P_3=0 set equals the "
              f"two families ({len(family)} types within m <= 30)")


def _sample_admissible_types(count=200, max_lcm=2520):
    rng = random.Random(0)
    sample = []
    seen = set()
    wild_pool = {
        p: [f for t_j in (1, 2) for _, _, fs in _wild_data(p, t_j, 12) for f in fs]
        for p in (2, 3)
    }
    while len(sample) < count:
        if rng.random() < 0.6:
            r = rng.randint(1, 4)
            ms = tuple(sorted(rng.randint(2, 12) for _ in range(r)))
            chi = rng.choice((0, 0, 1, 2))
            cand = tame(ms, chi=chi, p=rng.choice((0, 2, 3, 5)))
        else:
            p = rng.choice((2, 3))
            wild = rng.choice(wild_pool[p])
            companions = tuple(
                FibreDatum.tame(rng.randint(2, 10))
                for _ in range(rng.randint(0, 2))
            )
            chi = rng.choice((0, 1))
            cand = FibrationNumericalType(
                p=p, g=0, chi=chi, quasi_elliptic=False,
                fibres=(wild,) + companions,
            )
        if cand in seen:
            continue
        seen.add(cand)
        if not is_admissible(cand).admissible:
            continue
        period = lcm(*(f.m for f in cand.fibres)) if cand.fibres else 1
        if period > max_lcm:
            continue
        sample.append(cand)
    return sample


def test_criterion_6_tail_exactness():
    sample = _sample_admissible_types()
    disagreements = 0
    for t in sample:
        period = lcm(*(f.m for f in t.fibres)) if t.fibres else 1
        form = exact_form(t)
        direct = all(
            max(0, form.value(n)) >= 2 for n in range(14, 14 + 2 * period + 1)
        )
        if verify_tail(t, 14, 2) != direct:
            disagreements += 1
    assert disagreements == 0
    report(6, f"verify_tail(14, 2) matches direct series computation through "
              f"14 + 2*lcm on {len(sample)} sampled admissible types")


def test_criterion_7_case_inequality_replay(default_sweep, case4_types):
    # the certified sweep replays every materialized type: the termwise
    # certificate proves bound(n) <= P_n for every n at once, which is the
    # one-period inequality plus the growth comparison
    assert default_sweep["replay_failures"] == []

    # independent material pass at medium bounds with an explicit window scan
    medium = EnumerationBounds(
        max_mult=12, max_fibres=4, max_chi_plus_t=2,
        characteristics=(0, 2, 3, 5, 7),
    )
    checked = 0
    for t in enumerate_types(medium):
        rep = replay_type(t)
        assert rep.ok, (t, rep)
        form = exact_form(t)
        assert rep.bound.growth() <= form.growth()
        window = min(2 * lcm(form.period(), rep.bound.period()), 720)
        for n in range(1, window + 1):
            assert rep.bound.value(n) <= max(0, form.value(n)), (t, n)
        checked += 1
    # the big tame cell: certificates only (the numeric scan is subsampled)
    for i, t in enumerate(case4_types):
        rep = replay_type(t)
        assert rep.ok, (t, rep)
        if i % 137 == 0:
            form = exact_form(t)
            for n in range(1, 80):
                assert rep.bound.value(n) <= max(0, form.value(n))
    report(7, f"case bounds replayed with zero violations on {checked} "
              f"materialized mid-size types and {len(case4_types)} tame "
              f"chi=t=0 types")


def test_criterion_8_factory():
    d1 = AbelianGroupData((2, 6), ((1, 0), (0, 1), (1, 5)))
    t1 = cover_to_type(d1)
    assert [f.m for f in t1.fibres] == [2, 6, 6]
    assert riemann_hurwitz_genus(d1) == 2
    rep1 = verify_main_theorem(t1)
    assert rep1.p12 == 3 and rep1.series[13] == 1

    d2 = AbelianGroupData((10,), ((5,), (4,), (1,)))
    t2 = cover_to_type(d2)
    assert [f.m for f in t2.fibres] == [2, 5, 10]
    assert riemann_hurwitz_genus(d2) == 2
    rep2 = verify_main_theorem(t2)
    assert rep2.stmt3_witness == 8 and rep2.series[10] == 3
    report(8, "cover data yields (2,6,6) and (2,5,10), both of cover genus 2, "
              "with downstream verification matching the golden series")


def test_criterion_9_classifier():
    rows = [
        (SurfaceInvariants(p12=0, k2_min=0), "I", None),
        (SurfaceInvariants(p12=1, k2_min=0, pg=1, q=2, canonical_torsion=1),
         "II", "Abelian"),
        (SurfaceInvariants(p12=1, k2_min=0, pg=1, q=0, canonical_torsion=1),
         "II", "K3"),
        (SurfaceInvariants(p12=1, k2_min=0, pg=0, q=0, canonical_torsion=2),
         "II", "Enriques"),
        (SurfaceInvariants(p12=1, k2_min=0, pg=0, q=1, canonical_torsion=6),
         "II", "hyperelliptic"),
        (SurfaceInvariants(p12=1, k2_min=0, pg=0, q=0, canonical_torsion=4, p=2),
         "II", "unresolved"),
        (SurfaceInvariants(p12=3, k2_min=0), "III", None),
        (SurfaceInvariants(p12=2, k2_min=1), "IV", None),
    ]
    for inv, expected_class, expected_subtype in rows:
        got = classify(inv)
        assert got.kodaira_class == expected_class
        assert got.subtype == expected_subtype
    tuples = torsion_solutions()
    assert tuples == ((2, 2, 2, 2), (2, 3, 6), (2, 4, 4), (3, 3, 3))
    overall = 1
    for tup in tuples:
        overall = lcm(overall, *tup)
    assert overall == 12
    report(9, "decision table matches on all four classes and four subtypes "
              "plus the unresolved char-p row; torsion tuples have lcm 12")
