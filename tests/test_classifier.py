"""The twelfth-plurigenus decision table and the torsion-tuple search."""

import inspect
from fractions import Fraction
from math import lcm

import pytest

from plurigenera import (
    InvalidInputError,
    SurfaceInvariants,
    classify,
    classify_kod0_subtype,
    torsion_solutions,
)


def inv(p12, k2=0, **kw):
    return SurfaceInvariants(p12=p12, k2_min=k2, **kw)


class TestDecisionTable:
    def test_ruled(self):
        assert classify(inv(0)).kodaira_class == "I"

    def test_properly_elliptic(self):
        got = classify(inv(3))
        assert got.kodaira_class == "III" and got.subtype is None

    def test_general_type(self):
        assert classify(inv(2, k2=1)).kodaira_class == "IV"

    def test_kodaira_dimension_zero(self):
        assert classify(inv(1, canonical_torsion=12)).kodaira_class == "II"

    def test_inconsistent_k2(self):
        with pytest.raises(InvalidInputError):
            classify(inv(2, k2=-1))

    def test_p12_one_needs_torsion(self):
        with pytest.raises(InvalidInputError):
            inv(1)
        with pytest.raises(InvalidInputError):
            inv(1, canonical_torsion=5)


class TestSubtypes:
    def test_abelian(self):
        got = classify_kod0_subtype(inv(1, pg=1, q=2, canonical_torsion=1))
        assert got == "Abelian"

    def test_k3(self):
        assert classify_kod0_subtype(inv(1, pg=1, q=0, canonical_torsion=1)) == "K3"

    def test_enriques(self):
        assert (
            classify_kod0_subtype(inv(1, pg=0, q=0, canonical_torsion=2)) == "Enriques"
        )

    def test_hyperelliptic(self):
        for torsion in (2, 3, 4, 6):
            got = classify_kod0_subtype(inv(1, q=1, canonical_torsion=torsion))
            assert got == "hyperelliptic"

    def test_unresolved_char_p(self):
        got = classify_kod0_subtype(inv(1, pg=0, q=0, canonical_torsion=4, p=2))
        assert got == "unresolved"

    def test_classify_populates_subtype(self):
        got = classify(inv(1, pg=1, q=0, canonical_torsion=1))
        assert got.kodaira_class == "II" and got.subtype == "K3"

    def test_requires_class_ii(self):
        with pytest.raises(InvalidInputError):
            classify_kod0_subtype(inv(3))


class TestTorsionSolutions:
    def test_exact_list(self):
        assert torsion_solutions() == (
            (2, 2, 2, 2), (2, 3, 6), (2, 4, 4), (3, 3, 3),
        )

    def test_each_tuple_solves_the_equation(self):
        for tup in torsion_solutions():
            assert sum(1 - Fraction(1, m) for m in tup) == 2

    def test_lcm_is_twelve(self):
        tuples = torsion_solutions()
        assert all(12 % lcm(*tup) == 0 for tup in tuples)
        overall = 1
        for tup in tuples:
            overall = lcm(overall, *tup)
        assert overall == 12

    def test_takes_no_parameters(self):
        # the search box is fixed: m <= 24 and at most 6 terms
        assert not inspect.signature(torsion_solutions).parameters
