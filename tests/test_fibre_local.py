"""Torsion-order walks, torsion lengths, and admissible coefficients.

``profile_oracle`` lists the forced walks one by one; the package derives
only their torsion lengths (``achievable_torsion_lengths``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plurigenera import (
    InvalidInputError,
    UnsupportedInputError,
    achievable_torsion_lengths,
    admissible_coefficients,
)

BIG_P = 10**12 + 39  # a prime past MAX_CHARACTERISTIC


class TestCoefficients:
    def test_wild_t1(self):
        assert admissible_coefficients(4, 2, 2, 1) == frozenset({3, 1})

    def test_tame(self):
        assert admissible_coefficients(2, 2, 0, 0) == frozenset({1})

    def test_wild_t2(self):
        assert sorted(admissible_coefficients(8, 2, 2, 2)) == [1, 3, 5, 7]

    def test_h1_flag_narrows_t2(self):
        assert sorted(admissible_coefficients(8, 2, 2, 2, h1_at_most_one=True)) == [5, 7]

    def test_t3_not_sharp(self):
        cs = admissible_coefficients(16, 2, 2, 3)
        assert all((a + 1) % 2 == 0 and 0 <= a < 16 for a in cs)

    def test_inconsistent_data_rejected(self):
        with pytest.raises(InvalidInputError):
            admissible_coefficients(6, 2, 2, 1)  # 6 != 2 * 2^e
        with pytest.raises(InvalidInputError):
            admissible_coefficients(4, 2, 0, 1)  # wild needs prime characteristic
        with pytest.raises(InvalidInputError):
            admissible_coefficients(4, 2, 2, 0)  # tame stores nu = m

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: admissible_coefficients(-10**5000, 1, 2, 1), InvalidInputError),
            (lambda: admissible_coefficients(10**5000, 10**5000 - 1, 2, 0),
             InvalidInputError),
            (lambda: admissible_coefficients(10**5000, 3, 2, 1), InvalidInputError),
            (lambda: admissible_coefficients(3 * 10**5000, 3, 2, 1), InvalidInputError),
            (lambda: achievable_torsion_lengths(-10**5000, 1, 2), InvalidInputError),
            (lambda: achievable_torsion_lengths(1, 10**5000, 2), UnsupportedInputError),
        ],
        ids=["bad-data", "tame-torsion", "divisibility", "power", "wild-data",
             "wild-power"],
    )
    def test_rejected_integer_past_the_digit_limit(self, call, error):
        with pytest.raises(error, match="an integer of"):
            call()

    # p goes through validate_characteristic: past MAX_CHARACTERISTIC it is
    # refused before any primality test
    @pytest.mark.parametrize(
        "call, error, match",
        [
            (lambda: admissible_coefficients(2 * BIG_P, 2, BIG_P, 1),
             UnsupportedInputError, "MAX_CHARACTERISTIC"),
            (lambda: achievable_torsion_lengths(1, 1, BIG_P), UnsupportedInputError,
             "MAX_CHARACTERISTIC"),
            (lambda: admissible_coefficients(8, 2, 4, 1), InvalidInputError,
             "characteristic must be 0 or prime, got 4"),
            (lambda: admissible_coefficients(2, 2, 4, 0), InvalidInputError,
             "characteristic must be 0 or prime, got 4"),
            (lambda: achievable_torsion_lengths(1, 1, 4), InvalidInputError,
             "characteristic must be 0 or prime, got 4"),
        ],
        ids=["coefficients-past-bound", "torsion-past-bound", "coefficients-composite",
             "tame-coefficients-composite", "torsion-composite"],
    )
    def test_characteristic_is_validated(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    @settings(max_examples=100)
    @given(st.integers(1, 6), st.integers(1, 2), st.sampled_from((2, 3, 5)),
           st.integers(1, 3))
    def test_divisibility_invariant(self, nu, e, p, t):
        m = nu * p**e
        cs = admissible_coefficients(m, nu, p, t)
        assert all((a + 1) % nu == 0 and 0 <= a < m for a in cs)
        assert m - 1 in cs


def profile_oracle(m, nu, p):
    """Independent walk: next jump = position + current order; the order
    may stay or pick up a factor p at each jump.  Returns the sorted
    (orders, jumps) pairs, orders o_1..o_m and the jumping values <= m."""
    done = []

    def go(orders, jumps, nxt, order):
        pos = len(orders) + 1
        if pos > m:
            done.append((tuple(orders), tuple(jumps)))
            return
        if pos == nxt:
            for o2 in (order, p * order):
                go(orders + [o2], jumps + [pos], pos + o2, o2)
        else:
            go(orders + [order], jumps, nxt, order)

    go([nu], [], nu + 1, nu)
    return sorted(done)


def second_jumps(m, nu, p):
    return {jumps[1] for _, jumps in profile_oracle(m, nu, p) if len(jumps) >= 2}


def torsion_lengths(m, nu, p):
    return {len(jumps) for _, jumps in profile_oracle(m, nu, p)}


class TestSecondJump:
    # on m = nu*p^2 the walk reaches both second jumps 2nu+1 and (p+1)nu+1
    def test_nu2_p2(self):
        assert second_jumps(8, 2, 2) == {5, 7}

    def test_nu1_p2(self):
        # 2*1 + 1 = 3 and (2+1)*1 + 1 = 4; both occur in the profile walk
        assert second_jumps(4, 1, 2) == {3, 4}

    def test_nu2_p3(self):
        assert second_jumps(18, 2, 3) == {5, 9}


class TestProfiles:
    def test_minimal_wild(self):
        profs = profile_oracle(2, 1, 2)
        assert ((1, 1), (2,)) in profs and ((1, 2), (2,)) in profs
        assert all(jumps[0] == 2 for _, jumps in profs)

    def test_first_jump_is_nu_plus_one(self):
        for _, jumps in profile_oracle(4, 2, 2):
            assert jumps[0] == 3

    def test_second_jump_dichotomy(self):
        assert second_jumps(4, 1, 2) == {3, 4}

    def test_matches_oracle(self):
        # the torsion-length kernel against the walks listed one by one
        for nu, e, p in ((1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 2), (1, 2, 3),
                         (2, 1, 3), (3, 2, 2)):
            m = nu * p**e
            assert achievable_torsion_lengths(nu, e, p) == torsion_lengths(m, nu, p)

    def test_invariants(self):
        for m, nu, p in ((8, 1, 2), (9, 1, 3), (8, 2, 2), (12, 3, 2)):
            for orders, jumps in profile_oracle(m, nu, p):
                assert orders[0] == nu and len(orders) == m
                for n in range(1, m):
                    ratio_step = orders[n] // orders[n - 1]
                    assert orders[n] % orders[n - 1] == 0
                    assert ratio_step in (1, p)
                    if ratio_step == p:
                        assert (n + 1) in jumps
                assert all(2 <= j <= m for j in jumps)
                # h^0 = 1 + #jumps so far, nondecreasing, ending at t+1
                values = [1 + sum(1 for j in jumps if j <= n) for n in range(1, m + 1)]
                assert values == sorted(values) and values[-1] == len(jumps) + 1
                if len(jumps) >= 2:
                    assert jumps[1] in {2 * nu + 1, (p + 1) * nu + 1}

    def test_second_jump_cross_validation(self):
        for nu, p in ((2, 3), (1, 2), (3, 2), (2, 2)):
            assert second_jumps(nu * p**2, nu, p) <= {2 * nu + 1, (p + 1) * nu + 1}


class TestAchievableTorsion:
    def test_e1_p2(self):
        assert achievable_torsion_lengths(2, 1, 2) == frozenset({1})

    def test_e2(self):
        assert achievable_torsion_lengths(1, 2, 2) == frozenset({2, 3})

    def test_e1_p3(self):
        assert achievable_torsion_lengths(2, 1, 3) == frozenset({1, 2})

    def test_tame_exponent(self):
        assert achievable_torsion_lengths(5, 0, 2) == frozenset({0})

    def test_matches_profiles(self):
        for nu, e, p in ((1, 1, 2), (2, 1, 2), (1, 2, 2), (2, 1, 3), (1, 1, 5),
                        (3, 1, 3), (2, 2, 2)):
            m = nu * p**e
            assert achievable_torsion_lengths(nu, e, p) == torsion_lengths(m, nu, p)

    def test_minimum_is_exponent(self):
        for p in (2, 3, 5):
            for nu in (1, 2, 3):
                for e in (1, 2):
                    assert min(achievable_torsion_lengths(nu, e, p)) == e
