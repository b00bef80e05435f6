"""Case labels, branch-bound replay, and the class certificates."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plurigenera import (
    EnumerationBounds,
    FibrationNumericalType,
    FibreDatum,
    InvalidInputError,
    UnsupportedInputError,
    enumerate_types,
)
from plurigenera.cases import (
    StatementCheck,
    case4_sharp_family,
    cell_row,
    exact_form,
    form_dominates,
    replay_type,
)
from plurigenera.congruence import QuasiLinearForm
from plurigenera.verifier import (
    _cell_order,
    _cell_types_material,
    _materialize_certified,
)


def tame(ms, chi=0, g=0, p=0, quasi=False):
    return FibrationNumericalType.tame_type(ms, p=p, g=g, chi=chi, quasi_elliptic=quasi)


SMALL = EnumerationBounds(
    max_mult=10, max_fibres=4, max_chi_plus_t=2, characteristics=(0, 2, 3)
)


class TestLabels:
    def test_partition(self):
        w1 = FibreDatum(m=4, a=1, nu=2, e=1, t=1)
        w2 = FibreDatum(m=8, a=1, nu=2, e=2, t=2)
        mk = lambda chi, fibres: FibrationNumericalType(
            p=2, g=0, chi=chi, quasi_elliptic=False, fibres=fibres
        )
        labels = {
            mk(1, (w1,)): "case1",
            mk(0, (w2,)): "case2",
            mk(0, (w1, FibreDatum.tame(2))): "case3",
            tame((2, 6, 6)): "case4",
            tame((2, 3), chi=1): "case3-tame",
            tame((2,), chi=2): "easy-chi-2",
            tame((), chi=3): "easy-large-degree",
        }
        for ty, label in labels.items():
            assert replay_type(ty).label == label
            assert cell_row(ty.chi, ty.torsion_length).label == label

    @pytest.mark.parametrize("ms, chi, wild", [
        ((2, 3), -1, 0), ((2, 3, 7), -3, 0), ((), -5, 0), ((), -1, 2),
    ])
    def test_negative_chi_is_outside_the_analysis(self, ms, chi, wild):
        # ``wild`` fibres of torsion length 2: the last type has chi + t = 3
        w2 = FibreDatum(m=8, a=1, nu=2, e=2, t=2)
        ty = FibrationNumericalType(
            p=2, g=0, chi=chi, quasi_elliptic=False,
            fibres=(w2,) * wild + tuple(FibreDatum.tame(m) for m in ms),
        )
        with pytest.raises(UnsupportedInputError, match="no cell"):
            replay_type(ty)

    def test_sharp_families(self):
        assert case4_sharp_family((2, 5, 10)) == "2-b-2b"
        assert case4_sharp_family((2, 6, 6)) == "2-2a-2a"
        assert case4_sharp_family((2, 3, 6)) is None
        assert case4_sharp_family((2, 4, 4)) is None
        assert case4_sharp_family((3, 6, 6)) is None


FORMS = st.builds(
    QuasiLinearForm,
    st.integers(-1, 1),
    st.integers(-1, 1),
    st.lists(st.tuples(st.integers(0, 24), st.integers(1, 12)), max_size=5),
)


class TestDomination:
    def test_termwise_certificate(self):
        exact = QuasiLinearForm(1, -2, ((1, 2), (5, 6), (5, 6)))
        assert form_dominates(exact, QuasiLinearForm(1, -2, ((1, 2), (1, 2), (1, 2))))
        assert not form_dominates(exact, QuasiLinearForm(1, -2, ((5, 6), (5, 6), (5, 6))))
        assert not form_dominates(exact, QuasiLinearForm(2, -2, ()))

    def test_certificate_implies_pointwise(self):
        exact = QuasiLinearForm(1, -1, ((5, 8), (1, 2)))
        bound = QuasiLinearForm(1, -1, ((1, 2), (1, 2)))
        assert form_dominates(exact, bound)
        for n in range(0, 120):
            assert bound.value(n) <= exact.value(n)

    @settings(max_examples=400)
    @given(FORMS, FORMS)
    @example(QuasiLinearForm(1, 0, ()), QuasiLinearForm(1, 0, ()))
    @example(QuasiLinearForm(1, 0, ((1, 2),)), QuasiLinearForm(1, 0, ()))
    @example(QuasiLinearForm(1, 0, ()), QuasiLinearForm(1, 0, ((0, 2),)))
    @example(
        QuasiLinearForm(1, -2, ((1, 2), (5, 6), (2, 3))),
        QuasiLinearForm(1, -2, ((3, 4), (1, 2))),
    )
    def test_integer_keys_order_like_fractions(self, exact, bound):
        # the reference sorts the ratios a/m as fractions
        def ratios(form):
            return sorted((Fraction(a, m) for a, m in form.pairs), reverse=True)

        expected = (
            bound.const <= exact.const
            and bound.linear <= exact.linear
            and len(bound.pairs) <= len(exact.pairs)
            and all(b <= e for b, e in zip(ratios(bound), ratios(exact)))
        )
        assert form_dominates(exact, bound) is expected


def _per_n_scan(form: QuasiLinearForm, upto: int):
    """The statement readings from one value(n) call per n: the series,
    the least n <= 14 with P_n >= 1 and with P_n >= 2, and the failed
    statements, the tail taken from a scan over two periods past 14."""
    values = [1] + [max(0, form.value(n)) for n in range(1, upto + 1)]
    first1, first2 = (
        min((n for n in range(1, 15) if values[n] >= target), default=None)
        for target in (1, 2)
    )
    tail = form.growth() >= 0 and all(
        form.value(n) >= 2 for n in range(14, 14 + 2 * form.period())
    )
    holds = (
        values[12] >= 2,
        any(v >= 1 for v in values[1:5]),
        any(v >= 2 for v in values[1:9]),
        tail,
    )
    failed = tuple(f"stmt{i}" for i, ok in enumerate(holds, start=1) if not ok)
    return tuple(values), first1, first2, tail, failed


class TestStatementCheck:
    @staticmethod
    def _assert_matches_scan(form, upto=14):
        check = StatementCheck.from_form(form, upto)
        series, first1, first2, tail, failed = _per_n_scan(form, upto)
        assert check.series == series
        assert (check.p12, check.p13) == (series[12], series[13])
        assert (check.first_ge1, check.first_ge2) == (first1, first2)
        assert check.tail is tail
        assert check.failed == failed

    @settings(max_examples=300)
    @given(
        st.builds(
            QuasiLinearForm,
            st.integers(-8, 2),
            st.integers(-1, 1),
            st.lists(st.tuples(st.integers(0, 15), st.integers(1, 16)), max_size=3),
        ),
        st.integers(14, 40),
    )
    # witnesses past 14: P_n >= 1 first at 40 and P_n >= 2 first at 60,
    # and P_n >= 1 at once but P_n >= 2 first at 20
    @example(QuasiLinearForm(-1, 0, ((1, 20),)), 14)
    @example(QuasiLinearForm(1, 0, ((1, 20),)), 30)
    @example(QuasiLinearForm(1, -2, ((1, 2), (5, 6), (5, 6))), 14)  # (2, 6, 6)
    def test_matches_a_per_n_scan(self, form, upto):
        self._assert_matches_scan(form, upto)

    @settings(max_examples=300)
    @given(
        st.integers(-40, 40),
        st.integers(0, 3),
        st.lists(st.tuples(st.integers(0, 40), st.integers(1, 16)), max_size=4),
        st.integers(14, 40),
    )
    @example(1, 0, [(1, 2), (5, 6), (5, 6)], 14)  # (2, 6, 6) with linear 0
    @example(-12, 1, [], 14)  # P_14 = 2 exactly
    @example(-13, 1, [], 14)
    def test_tail_of_a_rising_form_is_read_at_14(self, const, linear, pairs, upto):
        # with linear >= 0 the form cannot fall: the check decides
        # statement (4) by P_14, and must agree with eventually_at_least
        form = QuasiLinearForm(const, linear, tuple(pairs))
        check = StatementCheck.from_form(form, upto)
        assert check.tail is form.eventually_at_least(14, 2)

    def test_certificate_bounds_match_a_per_n_scan(self):
        for chi in range(0, 6):
            for t in range(0, 6 - chi):
                for cert in cell_row(chi, t).certificates:
                    self._assert_matches_scan(cert.bound)

    def test_reads_at_least_14_values(self):
        with pytest.raises(InvalidInputError):
            StatementCheck.from_form(QuasiLinearForm(1, 0, ()), 13)


class TestReplay:
    def test_case1_wild_alone(self):
        w = FibreDatum(m=4, a=1, nu=2, e=1, t=1)
        t = FibrationNumericalType(p=2, g=0, chi=1, quasi_elliptic=False, fibres=(w,))
        rep = replay_type(t)
        assert rep.ok and rep.bound.pairs == ((1, 4),)

    def test_case4_family_bound_is_exact(self):
        rep = replay_type(tame((2, 6, 6)))
        assert rep.ok
        assert rep.bound == exact_form(tame((2, 6, 6)))

    def test_rejects_positive_genus(self):
        with pytest.raises(UnsupportedInputError):
            replay_type(tame((), g=1, chi=1))

    @pytest.mark.parametrize(
        "ms, chi, claim",
        [
            ((2, 3, 7), 0,
             "case4: m1 = 2 triples are (2,b,2b), b >= 5 odd, or (2,2a,2a), a >= 3"),
            ((2, 3), 0, "case4: positivity needs r >= 3"),
            ((2, 2, 2, 3), 0, "case4: admissible quadruples dominate (2,2,3,3)"),
            ((3, 3, 4), 0, "case4: m1 = 3 triples dominate (3,6,6) or (3,4,12)"),
            ((5,), 1, "case3-tame: positivity needs r >= 2"),
            ((2, 2), 1, "case3-tame: positivity forces the larger multiplicity >= 3"),
            ((), 2, "easy-chi-2: positivity needs a multiple fibre"),
        ],
    )
    def test_failed_claim_is_reported(self, ms, chi, claim):
        # inadmissible types: the branch stops at its first failed claim,
        # whose message starts with the branch label
        rep = replay_type(tame(ms, chi=chi))
        assert rep.label == claim.split(":")[0]
        assert rep.bound is None and not rep.dominated and not rep.ok
        assert rep.claim_failures == (claim,)

    def test_all_enumerated_types_replay_clean(self):
        count = 0
        for t in enumerate_types(SMALL):
            rep = replay_type(t)
            assert rep.ok, (t, rep)
            count += 1
        assert count > 3000

    def test_bounds_hold_over_full_window(self):
        # belt and suspenders for the termwise certificate: numeric scan
        # over a common period of the exact form and the bound
        for t in enumerate_types(
            EnumerationBounds(max_mult=8, max_fibres=3, max_chi_plus_t=2,
                              characteristics=(0, 2))
        ):
            rep = replay_type(t)
            form = exact_form(t)
            window = lcm(form.period(), rep.bound.period())
            assert rep.bound.growth() <= form.growth()
            for n in range(1, 2 * window + 1):
                assert rep.bound.value(n) <= max(0, form.value(n))


H = (1, 2)
LD = "easy-large-degree"
# (chi, t): (label, ((certificate name, label, (const, linear, pairs)), ...))
EXPECTED_ROWS = {
    (0, 0): ("case4", (("case4-r-ge-5", "case4", (1, -2, (H,) * 5)),)),
    (0, 1): ("case3", (("case3-r-ge-4", "case3", (1, -1, (H,) * 3)),)),
    (0, 2): ("case2", (("case2-max-coefficient", "case2", (1, 0, (H,))),)),
    (0, 3): (LD, ((LD, LD, (1, 1, ())),)),
    (0, 4): (LD, ((LD, LD, (1, 2, ())),)),
    (0, 5): (LD, ((LD, LD, (1, 3, ())),)),
    (1, 0): ("case3-tame", (
        ("case3-tame-r-2", "case3-tame", (1, -1, (H, (2, 3)))),
        ("case3-tame-r-ge-3", "case3-tame", (1, -1, (H,) * 3)),
    )),
    (1, 1): ("case1", (("case1-max-coefficient", "case1", (1, 0, (H,))),)),
    (1, 2): (LD, ((LD, LD, (1, 1, ())),)),
    (1, 3): (LD, ((LD, LD, (1, 2, ())),)),
    (1, 4): (LD, ((LD, LD, (1, 3, ())),)),
    (1, 5): (LD, ((LD, LD, (1, 4, ())),)),
    (2, 0): ("easy-chi-2", (("easy-chi-2", "easy-chi-2", (1, 0, (H,))),)),
    (2, 1): (LD, ((LD, LD, (1, 1, ())),)),
    (2, 2): (LD, ((LD, LD, (1, 2, ())),)),
    (2, 3): (LD, ((LD, LD, (1, 3, ())),)),
    (2, 4): (LD, ((LD, LD, (1, 4, ())),)),
    (2, 5): (LD, ((LD, LD, (1, 5, ())),)),
    (3, 0): (LD, ((LD, LD, (1, 1, ())),)),
    (3, 1): (LD, ((LD, LD, (1, 2, ())),)),
    (3, 2): (LD, ((LD, LD, (1, 3, ())),)),
    (3, 3): (LD, ((LD, LD, (1, 4, ())),)),
    (3, 4): (LD, ((LD, LD, (1, 5, ())),)),
    (3, 5): (LD, ((LD, LD, (1, 6, ())),)),
    (4, 0): (LD, ((LD, LD, (1, 2, ())),)),
    (4, 1): (LD, ((LD, LD, (1, 3, ())),)),
    (4, 2): (LD, ((LD, LD, (1, 4, ())),)),
    (4, 3): (LD, ((LD, LD, (1, 5, ())),)),
    (4, 4): (LD, ((LD, LD, (1, 6, ())),)),
    (4, 5): (LD, ((LD, LD, (1, 7, ())),)),
    (5, 0): (LD, ((LD, LD, (1, 3, ())),)),
    (5, 1): (LD, ((LD, LD, (1, 4, ())),)),
    (5, 2): (LD, ((LD, LD, (1, 5, ())),)),
    (5, 3): (LD, ((LD, LD, (1, 6, ())),)),
    (5, 4): (LD, ((LD, LD, (1, 7, ())),)),
    (5, 5): (LD, ((LD, LD, (1, 8, ())),)),
}


def _check_coverage(bounds, cells) -> int:
    """Assert that every admissible type of the cells is either
    materialized by the certified sweep or termwise-dominated by a
    certificate of its row; return how many were dominated."""
    checked = 0
    for cell in cells:
        p, chi, t, quasi = cell
        materialized = set(_materialize_certified(bounds, cell))
        certs = cell_row(chi, t).certificates
        for ty in _cell_types_material(bounds, cell):
            if ty in materialized:
                continue
            assert any(
                form_dominates(exact_form(ty), cert.bound) for cert in certs
            ), (cell, ty)
            checked += 1
    return checked


class TestClassCertificates:
    def test_rows_are_the_case_analysis(self):
        for (chi, t), (label, certs) in EXPECTED_ROWS.items():
            row = cell_row(chi, t)
            assert row.label == label
            assert tuple(
                (c.name, row.label, (c.bound.const, c.bound.linear, c.bound.pairs))
                for c in row.certificates
            ) == certs

    def test_all_certificates_pass_statements(self):
        for chi in range(0, 5):
            for t in range(0, 5 - chi):
                for cert in cell_row(chi, t).certificates:
                    assert not StatementCheck.from_form(cert.bound).failed, cert.name

    def test_certificates_cover_everything_not_materialized(self):
        assert _check_coverage(SMALL, _cell_order(SMALL)) > 0

    @pytest.mark.parametrize(
        "chi, t", [(chi, t) for chi in range(4) for t in range(4 - chi)]
    )
    def test_certificates_cover_everything_past_the_residual(self, chi, t):
        # room for two tame fibres more than the row's residual takes
        # (none when the row has no residual), so types the sweep leaves
        # to the certificates exist
        cap = cell_row(chi, t).tame_cap or 0
        bounds = EnumerationBounds(10, t + cap + 2, chi + t, (0, 2, 3))
        cells = [cell for cell in _cell_order(bounds) if cell[1:3] == (chi, t)]
        assert _check_coverage(bounds, cells) > 0
