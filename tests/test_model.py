"""Numerical model: degree, slope, exact plurigenera, branch bounds."""

import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plurigenera import (
    FibrationNumericalType,
    FibreDatum,
    InvalidInputError,
    PlurigenusValue,
    UnsupportedInputError,
    delta_degree,
    geometric_genus,
    is_admissible,
    plurigenera_series,
    plurigenus,
    slope,
    verify_main_theorem,
)
from plurigenera.cases import cell_row
from plurigenera.model import (
    FIBRE_RULE_CACHE_SIZE,
    MAX_SERIES_N,
    _tame_fibre,
    plurigenus_form,
    validate_characteristic,
)


def tame(ms, chi=0, g=0, p=0):
    return FibrationNumericalType.tame_type(ms, p=p, g=g, chi=chi)


T266 = tame((2, 6, 6))
T2510 = tame((2, 5, 10))
WILD_421 = FibrationNumericalType(
    p=2, g=0, chi=1, quasi_elliptic=False,
    fibres=(FibreDatum.wild_fibre(p=2, nu=2, e=1, t=1, a=1),),
)


def series_oracle(t, n_max):
    """Independent evaluation through Fraction arithmetic and math.floor."""
    d = 2 * t.g - 2 + t.chi + sum(f.t for f in t.fibres)
    out = [1]
    for n in range(1, n_max + 1):
        total = Fraction(1 + n * d)
        total += sum(math.floor(Fraction(n * f.a, f.m)) for f in t.fibres)
        out.append(max(0, int(total)))
    return out


class TestDeltaDegree:
    def test_genus_zero_no_invariants(self):
        assert delta_degree(tame((), chi=0)) == -2

    def test_genus_one(self):
        assert delta_degree(tame((), g=1)) == 0

    def test_wild_contribution(self):
        assert delta_degree(WILD_421) == 0  # -2 + chi 1 + t 1


class TestSlope:
    def test_266(self):
        assert slope(T266) == Fraction(1, 6)
        # exact rational oracle
        expected = Fraction(-2) + Fraction(1, 2) + Fraction(5, 6) + Fraction(5, 6)
        assert slope(T266) == expected

    def test_torsion_quadruple_is_rejected_numerically(self):
        assert slope(tame((2, 2, 2, 2))) == 0

    def test_genus_two_no_fibres(self):
        assert slope(tame((), g=2)) == 2


class TestGeometricGenus:
    def test_case1_shape(self):
        assert geometric_genus(WILD_421) == 1

    def test_case4_shape(self):
        assert geometric_genus(T266) == 0

    def test_chi_three(self):
        assert geometric_genus(tame((), chi=3)) == 2

    def test_rejects_positive_genus(self):
        with pytest.raises(UnsupportedInputError):
            geometric_genus(tame((), g=1, chi=1))


class TestPlurigenus:
    def test_266_golden(self):
        values = [v.value for v in plurigenera_series(T266, 13)]
        assert values == [1, 0, 0, 0, 1, 1, 2, 0, 1, 1, 2, 2, 3, 1]
        assert all(v.exact for v in plurigenera_series(T266, 13))

    def test_2510_golden(self):
        values = [v.value for v in plurigenera_series(T2510, 13)]
        assert values == [1, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 1, 2, 2]

    def test_p0_is_one(self):
        for t in (T266, T2510, WILD_421, tame((), g=3)):
            v = plurigenus(t, 0)
            assert v.value == 1 and v.exact

    def test_wild_p4(self):
        # single wild fibre (m=4, a=1), chi=1: P_4 = 1 + floor(4/4) = 2,
        # consistent with the [n/4] + 1 branch bound
        assert plurigenus(WILD_421, 4).value == 2
        assert plurigenus(WILD_421, 4).value >= 4 // 4 + 1

    def test_empty_fibres_chi3(self):
        values = [v.value for v in plurigenera_series(tame((), chi=3), 2)]
        assert values == [1, 2, 3]

    def test_matches_independent_oracle(self):
        for t in (T266, T2510, WILD_421, tame((3, 4, 12)), tame((2, 2, 3, 3))):
            got = [v.value for v in plurigenera_series(t, 30)]
            assert got == series_oracle(t, 30)

    def test_positive_genus_is_flagged(self):
        v = plurigenus(tame((), g=1, chi=1), 12)
        assert not v.exact
        assert v.value == 12

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidInputError):
            plurigenus(T266, -1)


def per_n(t, n_max):
    """The one-value API called once per n: the series kernel's reference."""
    return [plurigenus(t, n).value for n in range(n_max + 1)]


@st.composite
def fibres(draw, p):
    """A structurally valid fibre: tame, or (when p > 0) wild with any
    coefficient, so admissible and inadmissible types are both drawn."""
    if p == 0 or draw(st.booleans()):
        return FibreDatum.tame(draw(st.integers(2, 12)))
    nu, e = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    m = nu * p**e
    return FibreDatum(m, draw(st.integers(0, m - 1)), nu, e, draw(st.integers(1, 2)))


@st.composite
def types(draw):
    p = draw(st.sampled_from((0, 2, 3, 5)))
    return FibrationNumericalType(
        p=p,
        g=draw(st.integers(0, 3)),
        chi=draw(st.integers(0, 3)),
        quasi_elliptic=False,
        fibres=tuple(draw(st.lists(fibres(p), max_size=4))),
    )


class TestSeriesKernel:
    @settings(max_examples=300, deadline=None)
    @given(types(), st.integers(0, 80))
    @example(tame(()), 20)
    @example(tame((), g=2), 20)
    @example(tame((2, 3), g=1), 20)
    @example(WILD_421, 20)
    def test_kernel_matches_per_n(self, t, n_max):
        reference = per_n(t, n_max)
        assert plurigenus_form(t).series(n_max) == reference
        if t.g == 0:
            assert reference == series_oracle(t, n_max)
        if is_admissible(t).admissible:
            series = verify_main_theorem(t).series
            assert list(series) == per_n(t, len(series) - 1)
            if t.g == 0:
                assert list(series) == series_oracle(t, len(series) - 1)

    @pytest.mark.parametrize("n_max", [0, 1, 13, MAX_SERIES_N])
    def test_plurigenera_series_matches_per_n(self, n_max):
        for t in (T266, WILD_421, tame((2, 3), g=1), tame((), g=2)):
            assert plurigenera_series(t, n_max) == [
                plurigenus(t, n) for n in range(n_max + 1)
            ]

    def test_plurigenera_series_rejects_negative_n_max(self):
        with pytest.raises(InvalidInputError):
            plurigenera_series(T266, -1)

    @pytest.mark.parametrize(
        "ms, period, length", [((3, 5, 8), 120, 255), ((2, 7, 9), 126, 41)]
    )
    def test_audit_series_cutoff_at_lcm_120(self, ms, period, length):
        # P_0 .. P_(14 + 2*lcm) up to lcm 120, P_0 .. P_40 past it
        t = tame(ms, g=1, chi=1)
        assert math.lcm(*ms) == period
        series = verify_main_theorem(t).series
        assert len(series) == length
        assert list(series) == per_n(t, length - 1)


class TestGenericLowerBound:
    """The branch lower bounds of P_n for n >= 1: ``plurigenus`` reads each
    one from ``plurigenus_form``; on a g = 0 cell with chi + t >= 3 the
    easy-large-degree certificate 1 + n*d is never below n + 1."""

    def test_positive_genus_with_chi(self):
        # g + n - 1
        assert plurigenus(tame((), g=1, chi=1), 12) == PlurigenusValue(12, 12, False)

    def test_genus_three_unramified(self):
        # (2n - 1)(g - 1)
        assert plurigenus(tame((), g=3), 1) == PlurigenusValue(1, 2, False)

    def test_genus_one_floor_branch(self):
        # sum floor(n*a_i/m_i)
        assert plurigenus(tame((2, 2), g=1), 12) == PlurigenusValue(12, 12, False)

    def test_chi_two_branch(self):
        t = tame((2,), chi=2)
        assert plurigenus(t, 5) == PlurigenusValue(5, 1 + 2, True)  # 1 + floor(5/2)

    def test_large_degree_branch(self):
        t = tame((), chi=3)
        (certificate,) = cell_row(3, 0).certificates
        assert certificate.bound.value(7) == plurigenus(t, 7).value == 8

    def test_n_zero_is_one(self):
        assert plurigenus(tame((), g=3), 0) == PlurigenusValue(0, 1, True)

    def test_never_exceeds_plurigenus(self):
        samples = [
            tame((), g=1, chi=1),
            tame((2, 3), g=1),
            tame((), g=2),
            tame((2,), chi=2),
            tame((2, 2), chi=3),
            WILD_421,
        ]
        for t in samples:
            form = plurigenus_form(t)
            for n in range(1, 20):
                assert form.value(n) <= plurigenus(t, n).value
        for t in (tame((2, 2), chi=3), tame((), chi=5)):
            (certificate,) = cell_row(t.chi, t.torsion_length).certificates
            for n in range(1, 20):
                assert n + 1 <= certificate.bound.value(n) <= plurigenus(t, n).value


small_mults = st.lists(st.integers(2, 9), min_size=0, max_size=4)


class TestStructure:
    def test_fibres_canonicalized(self):
        t = tame((6, 2, 6))
        assert [f.m for f in t.fibres] == [2, 6, 6]

    @given(small_mults, st.integers(0, 3))
    def test_permutation_invariance(self, ms, chi):
        import itertools

        if len(ms) <= 1:
            return
        perms = list(itertools.permutations(ms))[:6]
        base = tame(perms[0], chi=chi)
        for perm in perms[1:]:
            other = tame(perm, chi=chi)
            assert other == base
            assert slope(other) == slope(base)
            assert [v.value for v in plurigenera_series(other, 8)] == [
                v.value for v in plurigenera_series(base, 8)
            ]

    @given(st.integers(2, 40))
    def test_tame_constructor_forces_max_coefficient(self, m):
        f = FibreDatum.tame(m)
        assert f.a == m - 1 and f.nu == m and f.e == 0 and f.t == 0

    @settings(max_examples=60)
    @given(small_mults, st.integers(0, 2), st.integers(0, 12))
    def test_periodicity_identity(self, ms, chi, n):
        t = tame(ms, chi=chi)
        period = math.lcm(*(f.m for f in t.fibres)) if t.fibres else 1
        def linear(n_):
            return 1 + n_ * delta_degree(t) + sum(n_ * f.a // f.m for f in t.fibres)
        assert linear(n + period) - linear(n) == period * slope(t)

    def test_structural_validation(self):
        with pytest.raises(InvalidInputError):
            FibreDatum(m=1, a=0, nu=1, e=0, t=0)
        with pytest.raises(InvalidInputError):
            FibreDatum(m=4, a=4, nu=4, e=0, t=0)
        with pytest.raises(InvalidInputError):
            FibrationNumericalType(p=4, g=0, chi=0, quasi_elliptic=False, fibres=())
        with pytest.raises(InvalidInputError):
            FibrationNumericalType(p=0, g=-1, chi=0, quasi_elliptic=False, fibres=())

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: FibreDatum(2, 10**5000, 2, 0, 0), InvalidInputError),
            (lambda: validate_characteristic(-10**5000), InvalidInputError),
            (lambda: validate_characteristic(10**5000), UnsupportedInputError),
        ],
        ids=["coefficient", "negative-characteristic", "large-characteristic"],
    )
    def test_rejected_integer_past_the_digit_limit(self, call, error):
        with pytest.raises(error, match="an integer of 16610 bits"):
            call()

    def test_torsion_length_is_derived_on_construction(self):
        import dataclasses

        wild2 = FibreDatum.wild_fibre(p=2, nu=1, e=2, t=2, a=1)
        t = FibrationNumericalType(
            p=2, g=0, chi=1, quasi_elliptic=False,
            fibres=(wild2, FibreDatum.tame(3)),
        )
        assert t.torsion_length == 2
        # replace() and from_dict rebuild it from the new fibres
        assert dataclasses.replace(t, fibres=()).torsion_length == 0
        three = dataclasses.replace(t, fibres=t.fibres + WILD_421.fibres)
        assert three.torsion_length == 3
        assert FibrationNumericalType.from_dict(three.to_dict()).torsion_length == 3
        # it takes no part in equality, hashing, repr or to_dict
        other = FibrationNumericalType.from_dict(t.to_dict())
        object.__setattr__(other, "torsion_length", 99)
        assert other == t and hash(other) == hash(t)
        assert "torsion_length" not in repr(t)
        assert "torsion_length" not in t.to_dict()
        with pytest.raises(TypeError):
            FibrationNumericalType(
                p=0, g=0, chi=0, quasi_elliptic=False, fibres=(), torsion_length=1
            )

    @pytest.mark.parametrize(
        "fibres", [(1,), (FibreDatum.tame(2), "m=3"), ({"m": 2},)]
    )
    def test_non_fibre_entries_rejected(self, fibres):
        with pytest.raises(InvalidInputError):
            FibrationNumericalType(
                p=0, g=0, chi=0, quasi_elliptic=False, fibres=fibres
            )


class TestJson:
    def test_round_trip(self):
        for t in (T266, WILD_421, tame((), g=2, chi=1)):
            assert FibrationNumericalType.from_dict(t.to_dict()) == t

    def test_unsorted_fibres_canonicalized_on_load(self):
        data = {
            "p": 0, "g": 0, "chi": 0, "quasi_elliptic": False,
            "fibres": [
                {"m": 6, "a": 5, "nu": 6, "e": 0, "t": 0},
                {"m": 2, "a": 1, "nu": 2, "e": 0, "t": 0},
                {"m": 6, "a": 5, "nu": 6, "e": 0, "t": 0},
            ],
        }
        assert FibrationNumericalType.from_dict(data) == T266

    def test_bad_payloads_rejected(self):
        with pytest.raises(InvalidInputError):
            FibrationNumericalType.from_json("not json")
        with pytest.raises(InvalidInputError):
            FibrationNumericalType.from_dict({"p": 0, "g": 0, "chi": 0})
        with pytest.raises(InvalidInputError):
            FibrationNumericalType.from_dict(
                {"p": 0, "g": 0, "chi": 0, "quasi_elliptic": False,
                 "fibres": [], "extra": 1}
            )

    def test_exact_types(self):
        assert isinstance(slope(T266), Fraction)
        assert isinstance(plurigenus(T266, 12).value, int)


class TestCompactLayout:
    """Types and fibres are slotted values, and a tame fibre is shared
    per multiplicity."""

    WILD_3 = FibrationNumericalType(
        p=2, g=0, chi=0, quasi_elliptic=False,
        fibres=(FibreDatum.wild_fibre(p=2, nu=1, e=2, t=2, a=1),) + WILD_421.fibres,
        existence_unknown=True,
    )

    def test_no_instance_dict(self):
        for value in (FibreDatum.tame(2), WILD_421.fibres[0], T266, WILD_421):
            assert not hasattr(value, "__dict__")

    def test_pickle_round_trip(self):
        for t in (T266, WILD_421, self.WILD_3, tame((), g=2, chi=1)):
            back = pickle.loads(pickle.dumps(t))
            assert back == t and hash(back) == hash(t)
            assert back.torsion_length == t.torsion_length
        assert self.WILD_3.torsion_length == 3

    def test_tame_fibre_is_shared(self):
        assert FibreDatum.tame(7) is FibreDatum.tame(7)
        t = tame((2, 6, 6))
        assert t.fibres[1] is t.fibres[2] is FibreDatum.tame(6)
        assert FibreDatum.tame(7) == FibreDatum(m=7, a=6, nu=7, e=0, t=0)

    @pytest.mark.parametrize("m", [5.0, True, "5", 1, 0, -3])
    def test_tame_rejects_what_the_constructor_rejects(self, m):
        with pytest.raises(InvalidInputError):
            FibreDatum.tame(m)

    def test_tame_cache_is_bounded(self):
        assert _tame_fibre.cache_info().maxsize == FIBRE_RULE_CACHE_SIZE
        for m in range(2, FIBRE_RULE_CACHE_SIZE + 1000):
            FibreDatum.tame(m)
        assert _tame_fibre.cache_info().currsize == FIBRE_RULE_CACHE_SIZE

    def test_bytes_per_tame_type(self):
        # 10,000 seeded tame types with 1-6 fibres, m <= 30: a type holds
        # its slots and its fibre tuple, and shares its fibres
        rng = random.Random(20)
        specs = [
            tuple(rng.randint(2, 30) for _ in range(rng.randint(1, 6)))
            for _ in range(10_000)
        ]
        for m in range(2, 31):
            FibreDatum.tame(m)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            types = [FibrationNumericalType.tame_type(ms) for ms in specs]
            per_type = (tracemalloc.get_traced_memory()[0] - before) / len(types)
        finally:
            tracemalloc.stop()
        assert per_type <= 250, per_type
