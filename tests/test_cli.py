"""Command-line interface: formats, exit codes, round-trips, determinism."""

import json

import pytest

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

    def test_no_seed_flag(self, capsys, type_file):
        with pytest.raises(SystemExit):
            run(["compute", "--type", type_file(T266), "--seed", "1"])
        code, env = run_json(capsys, ["compute", "--type", type_file(T266)])
        assert code == 0
        assert set(env) == {"command", "inputs", "result", "tool_version"}
