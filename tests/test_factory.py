"""Abelian-cover factory and the Riemann-Hurwitz genus."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plurigenera import (
    AbelianGroupData,
    InvalidInputError,
    UnsupportedInputError,
    bad_characteristics,
    cover_to_type,
    is_admissible,
    riemann_hurwitz_genus,
    slope,
    verify_main_theorem,
)

Z2_Z6 = AbelianGroupData((2, 6), ((1, 0), (0, 1), (1, 5)))
Z10 = AbelianGroupData((10,), ((5,), (4,), (1,)))


def hurwitz_oracle(data):
    """Explicit orbit count: points above a branch point are the cosets of
    the cyclic subgroup its monodromy generates; genus from the Euler
    characteristic of the cover."""
    order = data.group_order
    euler = 2 * order
    for g in data.monodromies:
        stab = data.subgroup_order((g,))
        points = order // stab
        euler -= order - points
    assert euler % 2 == 0
    return (2 - euler) // 2


class TestCoverToType:
    def test_2_6_6(self):
        t = cover_to_type(Z2_Z6)
        assert [f.m for f in t.fibres] == [2, 6, 6]
        assert t.p == 0 and t.chi == 0 and t.torsion_length == 0
        assert all(f.nu == f.m and f.a == f.m - 1 for f in t.fibres)

    def test_2_5_10(self):
        assert [f.m for f in cover_to_type(Z10).fibres] == [2, 5, 10]

    def test_two_half_fibres_rejected_downstream(self):
        t = cover_to_type(AbelianGroupData((2,), ((1,), (1,))))
        assert slope(t) < 0
        assert not is_admissible(t).admissible

    def test_sum_must_vanish(self):
        with pytest.raises(InvalidInputError):
            AbelianGroupData((10,), ((5,), (4,), (2,)))

    def test_monodromies_must_generate(self):
        with pytest.raises(InvalidInputError):
            AbelianGroupData((10,), ((5,), (5,)))

    def test_group_order_cap(self):
        # the generation check walks the whole group, so it is refused
        # past MAX_GROUP_ORDER; a cyclic group at the cap is still walked
        from plurigenera.factory import MAX_GROUP_ORDER

        with pytest.raises(UnsupportedInputError):
            AbelianGroupData((3000, 3000), ((1, 0), (0, 1), (-1, -1)))
        with pytest.raises(UnsupportedInputError):
            AbelianGroupData((MAX_GROUP_ORDER + 1,), ((1,), (-1,)))
        data = AbelianGroupData((MAX_GROUP_ORDER,), ((1,), (-1,)))
        assert data.group_order == MAX_GROUP_ORDER

    def test_admissible_when_slope_positive(self):
        for data in (Z2_Z6, Z10):
            t = cover_to_type(data)
            assert slope(t) > 0
            assert is_admissible(t).admissible


class TestGenus:
    def test_2_6_6_genus_two(self):
        assert riemann_hurwitz_genus(Z2_Z6) == 2
        assert hurwitz_oracle(Z2_Z6) == 2

    def test_2_5_10_genus_two(self):
        assert riemann_hurwitz_genus(Z10) == 2
        assert hurwitz_oracle(Z10) == 2

    def test_rational_double_cover(self):
        assert riemann_hurwitz_genus(AbelianGroupData((2,), ((1,), (1,)))) == 0

    def test_downstream_verification(self):
        rep = verify_main_theorem(cover_to_type(Z2_Z6))
        assert rep.p12 == 3 and rep.stmt2_witness == 4 and rep.stmt3_witness == 6
        rep = verify_main_theorem(cover_to_type(Z10))
        assert rep.stmt2_witness == 4 and rep.stmt3_witness == 8

    def test_smoothness_advisory(self):
        # reduction of the two standard covers misbehaves exactly at the
        # primes dividing the branch orders
        assert bad_characteristics(Z2_Z6) == (2, 3)
        assert bad_characteristics(Z10) == (2, 5)


@st.composite
def abelian_data(draw):
    factors = tuple(
        draw(st.lists(st.integers(2, 8), min_size=1, max_size=2))
    )
    order = 1
    for d in factors:
        order *= d
    if order > 60:
        factors = factors[:1]
    r = draw(st.integers(1, 4))
    monos = [
        tuple(draw(st.integers(0, d - 1)) for d in factors) for _ in range(r)
    ]
    last = tuple((-sum(g[k] for g in monos)) % d for k, d in enumerate(factors))
    monos.append(last)
    return factors, tuple(monos)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(abelian_data())
    def test_parity_and_oracle_agreement(self, payload):
        factors, monos = payload
        try:
            data = AbelianGroupData(factors, monos)
        except InvalidInputError:
            return  # non-generating draws are fine to skip
        genus = riemann_hurwitz_genus(data)
        assert genus >= 0
        assert genus == hurwitz_oracle(data)
