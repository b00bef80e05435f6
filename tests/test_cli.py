"""Command-line interface: formats, exit codes, round-trips, determinism."""

import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plurigenera import EnumerationBounds
from plurigenera.cli import run

T266 = {
    "p": 0, "g": 0, "chi": 0, "quasi_elliptic": False,
    "fibres": [
        {"m": 2, "a": 1, "nu": 2, "e": 0, "t": 0},
        {"m": 6, "a": 5, "nu": 6, "e": 0, "t": 0},
        {"m": 6, "a": 5, "nu": 6, "e": 0, "t": 0},
    ],
}
T2510 = {
    "p": 0, "g": 0, "chi": 0, "quasi_elliptic": False,
    "fibres": [
        {"m": 2, "a": 1, "nu": 2, "e": 0, "t": 0},
        {"m": 5, "a": 4, "nu": 5, "e": 0, "t": 0},
        {"m": 10, "a": 9, "nu": 10, "e": 0, "t": 0},
    ],
}


@pytest.fixture
def type_file(tmp_path):
    def write(payload, name="type.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return write


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCompute:
    def test_csv_contains_p13(self, capsys, type_file):
        path = type_file(T266)
        code = run(["compute", "--type", path, "--n-max", "13", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert "13,1,True" in out.splitlines()

    def test_json_series(self, capsys, type_file):
        code, env = run_json(capsys, ["compute", "--type", type_file(T266), "--n-max", "6"])
        assert code == 0
        values = [row["value"] for row in env["result"]["series"]]
        assert values == [1, 0, 0, 0, 1, 1, 2]
        assert env["tool_version"]

    def test_n_max_limit(self, capsys, type_file):
        from plurigenera.model import MAX_SERIES_N

        path = type_file(T266)
        code, env = run_json(capsys, ["compute", "--type", path, "--n-max", str(MAX_SERIES_N)])
        assert code == 0
        assert len(env["result"]["series"]) == MAX_SERIES_N + 1
        argv = ["compute", "--type", path, "--n-max", str(MAX_SERIES_N + 1)]
        code, env = run_json(capsys, argv)
        assert code == 1
        assert env["result"]["error"] == "invalid-input"
        assert f"n_max must be <= {MAX_SERIES_N}" in env["result"]["message"]

    def test_inadmissible_exit_2(self, capsys, type_file):
        bad = dict(T266, fibres=[{"m": 2, "a": 1, "nu": 2, "e": 0, "t": 0}] * 4)
        code, env = run_json(capsys, ["compute", "--type", type_file(bad)])
        assert code == 2
        assert "slope-nonpositive" in env["result"]["violations"]

    def test_malformed_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"p\": 1}", encoding="utf-8")
        code, env = run_json(capsys, ["compute", "--type", str(path)])
        assert code == 1
        assert env["result"]["error"] == "invalid-input"

    def test_byte_identical_reports(self, capsys, type_file):
        path = type_file(T266)
        run(["compute", "--type", path])
        first = capsys.readouterr().out
        run(["compute", "--type", path])
        second = capsys.readouterr().out
        assert first == second


class TestVerify:
    def test_2510_witness(self, capsys, type_file):
        code, env = run_json(capsys, ["verify", "--type", type_file(T2510)])
        assert code == 0
        assert env["result"]["stmt3_witness"] == 8
        assert env["result"]["stmt4"] is True

    def test_u_inadmissible(self, capsys, type_file):
        bad = dict(
            T266,
            fibres=[
                {"m": m, "a": m - 1, "nu": m, "e": 0, "t": 0} for m in (2, 2, 2, 3)
            ],
        )
        code, env = run_json(capsys, ["verify", "--type", type_file(bad)])
        assert code == 2
        assert "condition-U" in env["result"]["violations"]


class TestUCheck:
    def test_u4_false_exit_zero(self, capsys):
        code, env = run_json(
            capsys, ["u-check", "--m", "2,2,2,3", "--nu", "2,2,2,3", "--i", "4"]
        )
        assert code == 0
        assert env["result"]["condition_u"] is False

    def test_oracle_agrees(self, capsys):
        code, env = run_json(
            capsys,
            ["u-check", "--m", "2,6,6", "--nu", "2,6,6", "--i", "1", "--oracle"],
        )
        assert code == 0
        assert env["result"]["condition_u"] is True
        assert env["result"]["oracle"] is True

    def test_oracle_refusal_past_the_digit_limit(self, capsys):
        m = str(10**4000)
        code, env = run_json(
            capsys, ["u-check", "--m", f"{m},{m}", "--nu", "1,1", "--i", "1", "--oracle"]
        )
        assert code == 1
        assert env["result"]["error"] == "invalid-input"
        assert "oracle bound" in env["result"]["message"]


class TestClassify:
    def test_class_iii(self, capsys):
        code, env = run_json(capsys, ["classify", "--p12", "3", "--k2", "0"])
        assert code == 0
        assert env["result"] == {"class": "III", "subtype": None}

    def test_torsion_solutions_flag(self, capsys):
        code, env = run_json(
            capsys,
            ["classify", "--p12", "0", "--k2", "0", "--torsion-solutions"],
        )
        assert code == 0
        assert [2, 3, 6] in env["result"]["torsion_solutions"]

    def test_inconsistent_exit_2(self, capsys):
        code, env = run_json(capsys, ["classify", "--p12", "2", "--k2", "-1"])
        assert code == 1  # rejected as invalid invariants


# a group of order 9,000,000: past factory.MAX_GROUP_ORDER
BIG_GROUP = ["factory", "--group", "3000,3000", "--monodromies", "1,0;0,1;-1,-1"]


class TestFactory:
    def test_z2_z6(self, capsys):
        code, env = run_json(
            capsys,
            ["factory", "--group", "2,6", "--monodromies", "1,0;0,1;1,5"],
        )
        assert code == 0
        assert env["result"]["multiplicities"] == [2, 6, 6]
        assert env["result"]["cover_genus"] == 2

    def test_z10(self, capsys):
        code, env = run_json(
            capsys, ["factory", "--group", "10", "--monodromies", "5;4;1"]
        )
        assert code == 0
        assert env["result"]["multiplicities"] == [2, 5, 10]
        assert env["result"]["cover_genus"] == 2

    def test_group_past_the_cap_exit_2(self, capsys):
        code, env = run_json(capsys, BIG_GROUP)
        assert code == 2
        assert env["result"]["error"] == "unsupported-input"
        assert "MAX_GROUP_ORDER" in env["result"]["message"]


class TestEnumerateAndSweep:
    ARGS = [
        "--max-mult", "8", "--max-fibres", "3", "--max-chi-plus-t", "1",
        "--characteristics", "0,2",
    ]

    def test_round_trip(self, capsys, tmp_path):
        code, env = run_json(capsys, ["enumerate", *self.ARGS])
        assert code == 0
        assert env["result"]["count"] == len(env["result"]["types"])
        for i, payload in enumerate(env["result"]["types"][:10]):
            path = tmp_path / f"t{i}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            code2, env2 = run_json(capsys, ["compute", "--type", str(path), "--n-max", "2"])
            assert code2 == 0
            assert env2["result"]["type"] == payload

    def test_enumerate_jobs_identical(self, capsys):
        code, env1 = run_json(capsys, ["enumerate", *self.ARGS, "--jobs", "1"])
        assert code == 0
        code, env2 = run_json(capsys, ["enumerate", *self.ARGS, "--jobs", "2"])
        assert code == 0
        assert env1 == env2

    def test_verify_all_jobs_identical(self, capsys):
        code, env1 = run_json(capsys, ["verify-all", *self.ARGS, "--jobs", "1"])
        assert code == 0
        code, env2 = run_json(capsys, ["verify-all", *self.ARGS, "--jobs", "2"])
        assert code == 0
        assert env1 == env2
        assert env1["result"]["counterexamples"] == []

    def test_sharp(self, capsys):
        code, env = run_json(
            capsys,
            [
                "sharp", "--max-mult", "7", "--max-fibres", "3",
                "--max-chi-plus-t", "0", "--characteristics", "0",
                "--no-wild", "--no-quasi-elliptic",
                "--predicate", "p13-equals-1",
            ],
        )
        assert code == 0
        mults = [[f["m"] for f in d["fibres"]] for d in env["result"]["types"]]
        assert mults == [[2, 6, 6]]

    def test_csv_rows(self, capsys):
        code = run(["verify-all", *self.ARGS, "--rows", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("type,label,P_1")

    def test_default_flags_are_the_default_bounds(self, capsys):
        code, env = run_json(capsys, ["verify-all"])
        assert code == 0
        assert env["inputs"] == EnumerationBounds().to_dict()


# a lone wild fibre with m = 5^5: its torsion-length walk is 3124 jumps deep
DEEP_WILD = {
    "p": 5, "g": 0, "chi": 1, "quasi_elliptic": False,
    "fibres": [{"m": 3125, "a": 3124, "nu": 1, "e": 5, "t": 1}],
}


class TestErrorEnvelopes:
    SMALL_SWEEP = [
        "verify-all", "--materialize-all", "--max-mult", "8", "--max-fibres", "3",
        "--max-chi-plus-t", "1", "--characteristics", "0",
    ]
    CASES = {
        "inadmissible": (
            ["compute", "--type", "{bad_type}"], 2, "inadmissible", "slope-nonpositive"
        ),
        "wild-torsion-length": (
            ["verify", "--type", "{deep_wild}"], 2, "inadmissible", "wild-torsion-length"
        ),
        "malformed": (["compute", "--type", "{malformed}"], 1, "invalid-input", None),
        "oracle-bound": (
            ["u-check", "--m", "50,50,50,50,50", "--nu", "50,50,50,50,50",
             "--i", "1", "--oracle"],
            1, "invalid-input", "oracle bound",
        ),
        "guard": (SMALL_SWEEP, 2, "unsupported-input", "materialization guard"),
        "group-order": (BIG_GROUP, 2, "unsupported-input", "MAX_GROUP_ORDER"),
    }

    @pytest.fixture
    def paths(self, type_file, tmp_path, monkeypatch):
        import plurigenera.verifier as verifier

        monkeypatch.setattr(verifier, "MATERIAL_GUARD", 10)
        malformed = tmp_path / "malformed.json"
        malformed.write_text("{\"p\": 1}", encoding="utf-8")
        bad = dict(T266, fibres=[{"m": 2, "a": 1, "nu": 2, "e": 0, "t": 0}] * 4)
        return {
            "bad_type": type_file(bad, "bad.json"),
            "deep_wild": type_file(DEEP_WILD, "deep.json"),
            "malformed": str(malformed),
        }

    def test_deep_wild_fibre_is_inadmissible(self, capsys, paths):
        code, env = run_json(capsys, ["verify", "--type", paths["deep_wild"]])
        assert code == 2
        assert env["result"]["violations"] == ["wild-torsion-length"]

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flat_error_row(self, capsys, paths, case, fmt):
        argv, expected_code, error, detail = self.CASES[case]
        argv = [arg.format(**paths) for arg in argv]
        code = run([*argv, "--format", fmt])
        lines = capsys.readouterr().out.splitlines()
        assert code == expected_code
        header_lines = 1 if fmt == "csv" else 2
        assert len(lines) == header_lines + 1
        assert lines[0].startswith("error")
        assert error in lines[-1]
        if detail is not None:
            assert detail in lines[-1]

    def test_enumerate_at_default_bounds_is_refused(self, capsys):
        code, env = run_json(capsys, ["enumerate"])
        assert code == 2
        assert env["result"]["error"] == "unsupported-input"
        assert "(0, 1, 0, False)" in env["result"]["message"]

    def test_enumerate_past_the_exact_total_is_refused_at_once(self, capsys):
        # the cell (3, 1, 1) would test 5,565,120 candidates; its first
        # shape alone gives 278,256
        argv = ["enumerate", "--max-mult", "30", "--max-fibres", "6",
                "--max-chi-plus-t", "2", "--characteristics", "3"]
        code, env = run_json(capsys, argv)
        assert code == 2
        assert env["result"]["error"] == "unsupported-input"
        assert "(3, 1, 1, False) would test 5565120 candidates" in (
            env["result"]["message"]
        )

    def test_no_seed_flag(self, capsys, type_file):
        with pytest.raises(SystemExit):
            run(["compute", "--type", type_file(T266), "--seed", "1"])
        code, env = run_json(capsys, ["compute", "--type", type_file(T266)])
        assert code == 0
        assert set(env) == {"command", "inputs", "result", "tool_version"}


# ---------------------------------------------------------------------------
# the gate: arbitrary input never hangs, crashes or prints a bare traceback

JUNK = st.one_of(
    st.floats(allow_nan=False), st.booleans(), st.none(), st.text(max_size=3)
)
# small values reach the model's rules, huge and negative ones its checks
FIELD = st.one_of(
    st.integers(0, 12),
    st.integers(-(10**40), 10**40),
    st.sampled_from([2**61 - 1, 10**12 + 39, 2 * 10**9, 2**18]),
    JUNK,
)


def _records(fields: dict):
    """Dicts over ``fields``, at times missing one key or carrying an
    extra one."""
    keys = sorted(fields)
    return st.builds(
        lambda record, drop, extra: {
            **{k: v for k, v in record.items() if k not in drop}, **extra
        },
        st.fixed_dictionaries(fields),
        st.one_of(st.just(()), st.sets(st.sampled_from(keys), max_size=1)),
        st.one_of(st.just({}), st.dictionaries(st.just("extra"), FIELD, max_size=1)),
    )


FIBRES = _records(
    {key: st.one_of(st.integers(0, 12), FIELD) for key in ("m", "a", "nu", "e", "t")}
)
TYPES = _records(
    {
        "p": st.one_of(st.sampled_from([0, 2, 3, 5, 7]), FIELD),
        "g": st.one_of(st.integers(0, 2), FIELD),
        "chi": st.one_of(st.integers(-1, 3), FIELD),
        "quasi_elliptic": st.one_of(st.booleans(), FIELD),
        "fibres": st.one_of(st.lists(FIBRES, max_size=4), FIELD),
        "existence_unknown": st.one_of(st.booleans(), FIELD),
    }
)


def _lone_fibre(p, chi, m, a, nu, e, t):
    return {
        "p": p, "g": 0, "chi": chi, "quasi_elliptic": False,
        "fibres": [{"m": m, "a": a, "nu": nu, "e": e, "t": t}],
    }


# seconds one CLI call may take on any input of the gate
TYPE_DEADLINE_S = 5
SWEEP_DEADLINE_S = 30


def _run_gated(argv, stdin: str = "", deadline_s: float = TYPE_DEADLINE_S):
    """Run the CLI in process: it must exit 0, 1 or 2 and print one JSON
    envelope within the deadline."""
    import contextlib
    import io
    import sys
    import time
    from unittest import mock

    out = io.StringIO()
    start = time.perf_counter()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        with contextlib.redirect_stdout(out):
            code = run(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), argv
    envelope = json.loads(out.getvalue())
    assert set(envelope) == {"command", "inputs", "result", "tool_version"}
    assert elapsed < deadline_s, (argv, elapsed)
    return code, envelope


class TestArbitraryInputGate:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["compute", "verify"]), TYPES)
    # a t >= 3 fibre with m = 2*10^9: its coefficient set is 2 values, not
    # a scan of m
    @example("verify", _lone_fibre(2, 1, 2 * 10**9, 2 * 10**9 - 1, 10**9, 1, 3))
    # p^e = 2^18: past MAX_WILD_POWER
    @example("compute", _lone_fibre(2, 1, 2**18, 2**18 - 1, 1, 18, 1))
    # p = 2^61 - 1: past MAX_CHARACTERISTIC
    @example("verify", {**T266, "p": 2**61 - 1})
    # an exponent whose power p^e alone would not fit in memory
    @example("verify", _lone_fibre(2, 1, 8, 7, 1, 10**30, 1))
    # 20,000 tame fibres of m = 2: condition U is linear in r
    @example("verify", {**T266, "fibres": [T266["fibres"][0]] * 20_000})
    def test_type_commands(self, command, payload):
        code, envelope = _run_gated([command, "--type", "-"], json.dumps(payload))
        if code == 0:
            assert envelope["result"]["type"]["fibres"] is not None

    @pytest.mark.parametrize(
        "command, payload, code, detail",
        [
            ("verify", _lone_fibre(2, 1, 2 * 10**9, 2 * 10**9 - 1, 10**9, 1, 3), 2,
             "wild-torsion-length"),
            ("compute", _lone_fibre(2, 1, 2**18, 2**18 - 1, 1, 18, 1), 2,
             "MAX_WILD_POWER"),
            ("verify", {**T266, "p": 2**61 - 1}, 2, "MAX_CHARACTERISTIC"),
            ("verify", _lone_fibre(2, 1, 8, 7, 1, 10**30, 1), 2, "wild-power-relation"),
            ("verify", {**T266, "fibres": [T266["fibres"][0]] * 20_000}, 0, None),
        ],
        ids=["coefficients", "wild-power", "characteristic", "exponent", "20000-fibres"],
    )
    def test_repros_get_an_answer_or_a_typed_error(self, command, payload, code, detail):
        got, envelope = _run_gated([command, "--type", "-"], json.dumps(payload))
        assert got == code
        if detail is not None:
            assert detail in json.dumps(envelope["result"])

    def test_max_mult_past_the_limit_is_refused(self):
        argv = ["verify-all", "--max-mult", "300000", "--max-fibres", "1",
                "--max-chi-plus-t", "0", "--characteristics", "0"]
        code, envelope = _run_gated(argv)
        assert code == 2 and envelope["result"]["error"] == "unsupported-input"
        assert "MAX_MULT" in envelope["result"]["message"]

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_output_integer_past_the_print_limit_is_refused(self, capsys, fmt):
        # chi has 4,298 digits, under the parse limit; P_10000 has more
        # than the 4,300 that Python converts to a string
        payload = {"p": 0, "g": 0, "chi": 10**4297, "quasi_elliptic": False, "fibres": []}
        argv = ["compute", "--type", "-", "--n-max", "10000", "--format", fmt]
        if fmt == "json":
            code, envelope = _run_gated(argv, json.dumps(payload))
            assert code == 2 and envelope["result"]["error"] == "unsupported-input"
            assert "4300 digits" in envelope["result"]["message"]
            return
        from unittest import mock

        with mock.patch("sys.stdin", io.StringIO(json.dumps(payload))):
            code = run(argv)
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert lines[0].startswith("error")
        assert "unsupported-input" in lines[-1] and "4300 digits" in lines[-1]

    @pytest.mark.parametrize(
        "text", ['{"p": ' + "1" * 5000 + "}", "[", '{"p": NaN}', "null"]
    )
    def test_unparsable_type_is_malformed(self, text):
        code, envelope = _run_gated(["verify", "--type", "-"], text)
        assert code == 1 and envelope["result"]["error"] == "invalid-input"

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(
            [["enumerate"], ["verify-all"], ["verify-all", "--materialize-all"],
             ["verify-all", "--rows"], ["sharp", "--predicate", "p123-zero"],
             ["sharp", "--predicate", "p13-equals-1"]]
        ),
        st.integers(2, 12),
        st.integers(1, 4),
        st.integers(0, 2),
        st.lists(st.sampled_from([0, 2, 3, 5, 7]), min_size=1, max_size=3),
        st.booleans(),
        st.booleans(),
        # at times one flag out of range; the last occurrence counts
        st.sampled_from(
            [[]] * 6
            + [["--max-mult=1"], ["--max-fibres=0"], ["--max-chi-plus-t=-1"],
               ["--characteristics=2,4"], [f"--characteristics={2**61 - 1}"],
               ["--characteristics=2,x"]]
        ),
    )
    # the largest bounds the gate draws, with every characteristic
    @example(["verify-all", "--materialize-all"], 12, 4, 2, [0, 2, 3, 5, 7], False, False, [])
    @example(["enumerate"], 12, 4, 2, [0, 2, 3, 5, 7], False, False, [])
    @example(["sharp", "--predicate", "p13-equals-1"], 12, 4, 2, [0, 2, 3, 5, 7],
             False, False, [])
    # past verifier.MAX_MULT: refused before any cell runs
    @example(["verify-all"], 10**9, 1, 0, [0], False, False, [])
    def test_sweep_commands(
        self, command, max_mult, max_fibres, max_chi_plus_t, ps, no_wild, no_quasi,
        spoiled,
    ):
        argv = [
            *command,
            f"--max-mult={max_mult}",
            f"--max-fibres={max_fibres}",
            f"--max-chi-plus-t={max_chi_plus_t}",
            "--characteristics=" + ",".join(map(str, ps)),
            *(["--no-wild"] if no_wild else []),
            *(["--no-quasi-elliptic"] if no_quasi else []),
            *(["--jobs", "1"] if command[0] != "sharp" else []),
            *spoiled,
        ]
        _run_gated(argv, deadline_s=SWEEP_DEADLINE_S)
