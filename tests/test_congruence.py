"""Condition U deciders, the residue oracle, and quasi-linear forms."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plurigenera import (
    ConditionUInstance,
    FibrationNumericalType,
    FibreDatum,
    InvalidInputError,
    OracleBoundExceededError,
    QuasiLinearForm,
    UnsupportedInputError,
    check_all_U,
    check_condition_U,
    check_condition_U_bruteforce,
)


def inst(ms, nus, i):
    return ConditionUInstance(tuple(ms), tuple(nus), i)


class TestFixtures:
    def test_u4_fails_for_2223(self):
        assert check_condition_U(inst((2, 2, 2, 3), (2, 2, 2, 3), 4)) is False
        assert check_condition_U_bruteforce(inst((2, 2, 2, 3), (2, 2, 2, 3), 4)) is False

    def test_u1_fails_for_8_2(self):
        assert check_condition_U(inst((8, 2), (2, 2), 1)) is False

    def test_u1_fails_for_8_4(self):
        assert check_condition_U(inst((8, 4), (4, 4), 1)) is False

    def test_266_satisfies_all(self):
        for i in (1, 2, 3):
            assert check_condition_U(inst((2, 6, 6), (2, 6, 6), i)) is True
            assert check_condition_U_bruteforce(inst((2, 6, 6), (2, 6, 6), i)) is True

    def test_single_fibre(self):
        assert check_condition_U_bruteforce(inst((2,), (1,), 1)) is True
        assert check_condition_U(inst((6,), (2,), 1)) is False


class TestAllU:
    def test_266(self):
        assert check_all_U(FibrationNumericalType.tame_type((2, 6, 6))) is True

    def test_2223(self):
        assert check_all_U(FibrationNumericalType.tame_type((2, 2, 2, 3))) is False

    def test_empty_conjunction(self):
        assert check_all_U(FibrationNumericalType.tame_type(())) is True

    def test_rejects_torsion_order_not_dividing_m(self):
        t = FibrationNumericalType(
            p=2, g=0, chi=0, quasi_elliptic=False,
            fibres=(FibreDatum(6, 5, 4, 1, 1), FibreDatum.tame(3)),
        )
        with pytest.raises(InvalidInputError):
            check_all_U(t)

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(st.integers(1, 12), st.integers(1, 6)).filter(
                lambda nk: nk[0] * nk[1] >= 2
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_equals_conjunction_of_instances(self, nu_k):
        # nu | m by construction: m = nu * k
        m = tuple(nu * k for nu, k in nu_k)
        nu = tuple(nu for nu, _ in nu_k)
        t = FibrationNumericalType(
            p=0, g=0, chi=0, quasi_elliptic=False,
            fibres=tuple(FibreDatum(m_j, m_j - 1, nu_j, 0, 0) for m_j, nu_j in zip(m, nu)),
        )
        expected = all(
            check_condition_U(ConditionUInstance(m, nu, i)) for i in range(1, len(m) + 1)
        )
        assert check_all_U(t) is expected

    def test_hypothesis_unmet(self):
        with pytest.raises(UnsupportedInputError):
            check_all_U(FibrationNumericalType.tame_type((2, 3), chi=1))
        with pytest.raises(UnsupportedInputError):
            check_all_U(FibrationNumericalType.tame_type((2, 3), g=1))
        with pytest.raises(UnsupportedInputError):
            check_all_U(
                FibrationNumericalType.tame_type((2, 3), p=2, quasi_elliptic=True)
            )


def divisor_pairs(max_m):
    return [
        (m, nu) for m in range(2, max_m + 1) for nu in range(1, m + 1) if m % nu == 0
    ]


class TestOracleAgreement:
    def test_exhaustive_small(self):
        # quick tier: r <= 3, m <= 10 (the acceptance suite runs r <= 4, m <= 12)
        from itertools import combinations_with_replacement

        pairs = divisor_pairs(10)
        for r in range(1, 4):
            for combo in combinations_with_replacement(pairs, r):
                ms = tuple(m for m, _ in combo)
                nus = tuple(nu for _, nu in combo)
                seen = set()
                for idx, pv in enumerate(combo):
                    if pv in seen:
                        continue
                    seen.add(pv)
                    ci = inst(ms, nus, idx + 1)
                    assert check_condition_U(ci) == check_condition_U_bruteforce(ci)

    def test_random_instances(self):
        rng = random.Random(20260809)
        checked = 0
        while checked < 200:
            r = rng.randint(1, 4)
            ms, nus = [], []
            for _ in range(r):
                m = rng.randint(2, 14)
                divs = [d for d in range(1, m + 1) if m % d == 0]
                ms.append(m)
                nus.append(rng.choice(divs))
            if lcm(*ms) > 2000:
                continue
            i = rng.randint(1, r)
            ci = inst(tuple(ms), tuple(nus), i)
            assert check_condition_U(ci) == check_condition_U_bruteforce(ci)
            checked += 1

    def test_permutation_invariance(self):
        rng = random.Random(7)
        for _ in range(100):
            r = rng.randint(2, 4)
            ms, nus = [], []
            for _ in range(r):
                m = rng.randint(2, 12)
                divs = [d for d in range(1, m + 1) if m % d == 0]
                ms.append(m)
                nus.append(rng.choice(divs))
            base = check_condition_U(inst(tuple(ms), tuple(nus), 1))
            order = list(range(1, r))
            rng.shuffle(order)
            perm = [0] + order
            assert (
                check_condition_U(
                    inst(tuple(ms[j] for j in perm), tuple(nus[j] for j in perm), 1)
                )
                == base
            )

    def test_oracle_bound(self):
        big = inst((128, 128, 128, 128), (1, 1, 1, 1), 1)
        with pytest.raises(OracleBoundExceededError):
            check_condition_U_bruteforce(big, max_combos=1000)

    def test_oracle_bound_past_the_digit_limit(self):
        # the product of the residue counts (10**8000) is never formed
        # nor printed, so the refusal is typed and not a ValueError
        m = 10**4000
        with pytest.raises(OracleBoundExceededError, match="oracle bound"):
            check_condition_U_bruteforce(inst((m, m), (1, 1), 1))


def divisibility_closure(m1, m2, m3):
    """Each multiplicity divides the lcm of the other two (tame triples)."""
    return lcm(m2, m3) % m1 == 0 and lcm(m1, m3) % m2 == 0 and lcm(m1, m2) % m3 == 0


class TestClosure:
    def test_366(self):
        assert divisibility_closure(3, 6, 6) is True

    def test_223(self):
        assert divisibility_closure(2, 2, 3) is False

    def test_444(self):
        assert divisibility_closure(4, 4, 4) is True

    def test_matches_condition_u_on_tame_triples(self):
        from itertools import combinations_with_replacement

        for ms in combinations_with_replacement(range(2, 31), 3):
            t = FibrationNumericalType.tame_type(ms)
            assert divisibility_closure(*ms) == check_all_U(t)


def floor_sum(n, pairs):
    """sum floor(n*a/m), read from the form with no constant or linear part."""
    return QuasiLinearForm(0, 0, tuple(pairs)).value(n)


class TestFloorSum:
    def test_feeds_p13_of_266(self):
        assert floor_sum(13, ((1, 2), (5, 6), (5, 6))) == 26

    def test_n_zero(self):
        assert floor_sum(0, ((1, 2), (9, 10))) == 0

    def test_feeds_p12_of_2510(self):
        assert floor_sum(12, ((1, 2), (4, 5), (9, 10))) == 25

    @settings(max_examples=80)
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(2, 10)).filter(
                lambda am: am[0] < am[1]
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 30),
    )
    def test_periodicity(self, pairs, n):
        period = lcm(*(m for _, m in pairs))
        growth = sum(Fraction(a, m) for a, m in pairs)
        assert floor_sum(n + period, pairs) == floor_sum(n, pairs) + period * growth


class TestQuasiLinearForm:
    def test_eventually_at_least_matches_scan(self):
        form = QuasiLinearForm(1, -2, ((1, 2), (5, 6), (5, 6)))
        # direct scan over two periods past any threshold
        for threshold, target in ((14, 2), (13, 2), (4, 1), (8, 2)):
            period = form.period()
            scan = all(
                form.value(n) >= target
                for n in range(threshold, threshold + 2 * period)
            )
            grows = form.growth() > 0
            expected = scan and grows
            assert form.eventually_at_least(threshold, target) == expected

    @settings(max_examples=300)
    @given(
        st.integers(-6, 6),
        st.integers(-3, 2),
        st.lists(
            st.tuples(st.integers(0, 11), st.integers(2, 12)).filter(
                lambda am: am[0] < am[1]
            ),
            max_size=4,
        ),
        st.integers(0, 30),
        st.integers(-2, 6),
    )
    @example(1, -1, [(1, 2), (1, 2)], 3, 0)  # zero growth, holds
    @example(1, -1, [(1, 2), (1, 2)], 3, 1)  # zero growth, fails
    @example(2, 0, [], 0, 2)  # no pairs, zero growth
    @example(-9, 1, [], 4, 3)  # no pairs, positive growth
    @example(5, -1, [], 0, 1)  # no pairs, negative growth
    @example(-6, 0, [(1, 12)], 96, 2)  # growth 1/12: envelope past a period
    @example(-6, 0, [(1, 12)], 90, 2)
    def test_eventually_at_least_matches_two_period_scan(
        self, const, linear, pairs, threshold, target
    ):
        form = QuasiLinearForm(const, linear, tuple(pairs))
        period = form.period()
        scan = all(
            form.value(n) >= target for n in range(threshold, threshold + 2 * period)
        )
        # zero growth is periodic, so the scan decides it; negative growth
        # eventually falls below any target
        expected = scan and form.growth() >= 0
        assert form.eventually_at_least(threshold, target) is expected

    def test_zero_growth_periodic(self):
        form = QuasiLinearForm(0, 0, ((1, 2),))
        assert form.eventually_at_least(1, 0) is True
        assert form.eventually_at_least(1, 1) is False

    def test_negative_growth(self):
        form = QuasiLinearForm(5, -1, ())
        assert form.eventually_at_least(1, 1) is False

    @settings(max_examples=200)
    @given(
        st.integers(-6, 6),
        st.integers(-3, 2),
        st.lists(
            st.integers(1, 200).flatmap(
                lambda m: st.tuples(st.integers(0, 3 * m - 1), st.just(m))
            ),
            max_size=4,
        ),
        st.integers(0, 300),
    )
    # each branch of the step list: q, b = divmod(a, m), and c = m - b
    # where 2b > m
    @example(1, -2, [], 0)  # P_0 alone
    @example(0, 0, [(7, 3), (11, 4)], 40)  # a >= m, both sides
    @example(-1, 1, [(6, 3), (0, 5)], 30)  # b = 0
    @example(1, -1, [(3, 6), (1, 2), (5, 2)], 30)  # 2b = m
    @example(1, 0, [(1, 5), (1, 9)], 45)  # rising side, b = 1
    @example(1, 0, [(3, 8), (5, 11)], 40)  # rising side, b > 1
    @example(1, -1, [(4, 5), (12, 13)], 40)  # falling side, c = 1
    @example(1, -1, [(5, 7), (8, 11)], 43)  # falling side, c > 1
    @example(2, -1, [(1, 3), (2, 3)], 0)  # n_max = 0
    @example(-2, 1, [(1, 3), (2, 3)], 1)  # n_max = 1
    @example(-3, 0, [(0, 5)], 4)  # every value clamped at zero
    @example(-6, -3, [(2, 7), (6, 7)], 60)  # every value clamped at zero
    @example(1, 0, [(10**9 + 6, 10**9 + 7), (5, 10**9 + 7)], 300)  # m = 10**9 + 7
    def test_series_matches_value(self, const, linear, pairs, n_max):
        form = QuasiLinearForm(const, linear, tuple(pairs))
        expected = [1] + [max(0, form.value(n)) for n in range(1, n_max + 1)]
        assert form.series(n_max) == expected

    @pytest.mark.parametrize(
        "call",
        [
            lambda: QuasiLinearForm(1, 0, ((-10**5000, 2),)),
            lambda: ConditionUInstance((2,), (1,), 10**5000),
            lambda: QuasiLinearForm(1, 0, ()).value(-10**5000),
            lambda: ConditionUInstance((-10**5000,), (1,), 1),
            lambda: ConditionUInstance((2,), (10**5000,), 1),
        ],
        ids=["pair", "index", "value", "multiplicity", "torsion-order"],
    )
    def test_rejected_integer_past_the_digit_limit(self, call):
        # str() of an int past 4300 digits raises ValueError; the message
        # names such an integer by its bit length instead
        with pytest.raises(InvalidInputError, match="an integer of 16610 bits"):
            call()

    def test_series_rejects_what_value_rejects(self):
        with pytest.raises(InvalidInputError):
            QuasiLinearForm(1, 0, ((1, 2),)).series(-1)
        with pytest.raises(InvalidInputError):
            QuasiLinearForm(1, 0, ((-1, 2),)).series(5)
        with pytest.raises(InvalidInputError):
            QuasiLinearForm(1, 0, ((1, 0),)).series(0)

    @pytest.mark.parametrize(
        "pairs", [((-1, 2),), ((1, 0),), ((1, -3),), ((1.0, 2),), ((1, True),), (("a", 2),)]
    )
    def test_malformed_pairs_rejected_at_construction(self, pairs):
        # validated once in the constructor, so value and series never see them
        with pytest.raises(InvalidInputError):
            QuasiLinearForm(1, 0, pairs)

    def test_pairs_normalized_to_int_tuples(self):
        form = QuasiLinearForm(1, 0, [[1, 2], (5, 6)])
        assert form.pairs == ((1, 2), (5, 6)) and form.value(6) == 9

    def test_value_and_series_check_n(self):
        # no float or bool reaches the integer arithmetic
        form = QuasiLinearForm(1, 0, ((1, 2),))
        for n in (-1, 1.5, "3", True):
            with pytest.raises(InvalidInputError):
                form.value(n)
            with pytest.raises(InvalidInputError):
                form.series(n)
