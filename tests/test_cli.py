"""End-to-end tests of the command-line interface and its exit codes."""

import json
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "equisum"]
TWO_POINTS = (
    '{"a": 1, "b": 1, "lambda": 2, "swapped": false, "provenance": "pair", '
    '"points": [{"x": [0], "y": [0]}, {"x": [1], "y": [1]}]}'
)


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=env, timeout=300
    )


class TestConstruct:
    def test_writes_point_set(self, tmp_path):
        out = tmp_path / "s.json"
        proc = run_cli("construct", "--a", "5", "--b", "8", "--out", str(out))
        assert proc.returncode == 0
        obj = json.loads(out.read_text())
        assert len(obj["points"]) == 14
        assert (obj["a"], obj["b"], obj["lambda"]) == (5, 8, 1)

    def test_prop1_single_dims(self, tmp_path):
        out = tmp_path / "s.json"
        proc = run_cli("construct", "--a", "1", "--b", "1", "--out", str(out))
        assert proc.returncode == 0
        assert len(json.loads(out.read_text())["points"]) == 3

    def test_infeasible_exits_2_with_named_verdict(self):
        proc = run_cli("construct", "--a", "28", "--b", "40")
        assert proc.returncode == 2
        obj = json.loads(proc.stdout)
        assert obj["error"] == "InfeasibleConstruction"
        assert obj["verdict"]["kind"] == "InequalityFails"
        assert obj["verdict"]["margin_hi"].startswith("-")

    def test_bad_flags_exit_64(self):
        assert run_cli("construct", "--a", "0", "--b", "5").returncode == 64
        assert run_cli("construct", "--a", "5").returncode == 64


class TestVerify:
    def test_round_trip_passes(self, tmp_path):
        out = tmp_path / "s.json"
        run_cli("construct", "--a", "3", "--b", "7", "--out", str(out))
        proc = run_cli("verify", "--in", str(out))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["pass"] and report["n_points"] == 11

    def test_corruption_exits_1(self, tmp_path):
        out = tmp_path / "s.json"
        run_cli("construct", "--a", "2", "--b", "4", "--out", str(out))
        obj = json.loads(out.read_text())
        obj["points"][0]["x"][0] += 1e-3
        out.write_text(json.dumps(obj))
        proc = run_cli("verify", "--in", str(out))
        assert proc.returncode == 1
        assert not json.loads(proc.stdout)["pass"]

    def test_two_point_set_passes(self, tmp_path):
        out = tmp_path / "two.json"
        out.write_text(TWO_POINTS)
        assert run_cli("verify", "--in", str(out)).returncode == 0

    def test_unparseable_exits_65(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{this is not json")
        assert run_cli("verify", "--in", str(bad)).returncode == 65

    def test_missing_file_exits_65(self, tmp_path):
        assert run_cli("verify", "--in", str(tmp_path / "nope.json")).returncode == 65


class TestCheck:
    def test_failing_pair(self):
        proc = run_cli("check", "--a", "29", "--b", "39")
        assert proc.returncode == 0  # conclusive verdict
        obj = json.loads(proc.stdout)
        assert obj["kind"] == "InequalityFails"
        assert (obj["c"], obj["alpha"], obj["beta"]) == (2, 21, 9)

    def test_beta_trivial(self):
        obj = json.loads(run_cli("check", "--a", "2", "--b", "3").stdout)
        assert obj["kind"] == "BetaTrivial" and obj["beta"] == 0

    def test_lemma_covered_flag(self):
        obj = json.loads(run_cli("check", "--a", "5", "--b", "30").stdout)
        assert obj["lemma_covered"] is True

    def test_swap_resolution(self):
        obj = json.loads(run_cli("check", "--a", "7", "--b", "3").stdout)
        assert obj["kind"] == "SwapAndRecurse"
        assert obj["resolved"]["kind"] == "BetaTrivial"
        assert obj["resolved"]["beta"] == 3

    def test_precision_floor_is_no_setting(self):
        # the floor is fixed at 2^-200; the variable that once set it is not read
        plain = run_cli("check", "--a", "5", "--b", "8")
        proc = run_cli("check", "--a", "5", "--b", "8", env_extra={"EQUISUM_PRECISION_FLOOR": "banana"})
        assert (proc.returncode, proc.stdout) == (0, plain.stdout)
        assert json.loads(proc.stdout)["kind"] == "InequalityHolds"


class TestSweep:
    def test_small_json(self):
        proc = run_cli("sweep", "--a-min", "2", "--a-max", "2", "--b-max", "5", "--format", "json")
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert len(obj["records"]) == 3
        assert [r["b"] for r in obj["records"]] == [3, 4, 5]

    def test_csv_header(self):
        proc = run_cli("sweep", "--a-min", "2", "--a-max", "3", "--format", "csv")
        assert proc.stdout.splitlines()[0] == "a,b,c,alpha,beta,verdict,margin_lo,margin_hi,lemma_covered"

    def test_bad_range_exits_64(self):
        assert run_cli("sweep", "--a-min", "1", "--a-max", "5").returncode == 64

    def test_repeat_runs_byte_identical(self, tmp_path):
        f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli("sweep", "--a-min", "2", "--a-max", "6", "--out", str(f1))
        run_cli("sweep", "--a-min", "2", "--a-max", "6", "--jobs", "2", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()


class TestRoundTripInvariant:
    def test_construct_verify_round_trip_up_to_60(self, round_trips_up_to_sixty):
        # in-process for speed; every feasible pair with a + b <= 60 must
        # construct and then verify cleanly through the CLI layer with
        # --out.  The loop (tests/conftest.py) also serves the golden
        # digests in test_pointset_arrays.py.
        from equisum.feasibility import VerdictKind, classify

        trips = round_trips_up_to_sixty
        checked = 0
        for (a, b), rc_construct, rc_verify in zip(
            trips.pairs, trips.construct_codes, trips.verify_codes
        ):
            kind = classify(a, b).kind
            if kind is VerdictKind.SWAP_AND_RECURSE:
                kind = classify(b, a).kind
            if kind in (VerdictKind.INEQUALITY_FAILS, VerdictKind.INDETERMINATE):
                continue
            assert (rc_construct, rc_verify) == (0, 0), (a, b)
            checked += 1
        assert checked > 800


class TestUnwritableOut:
    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--a", "5", "--b", "8"],
            ["verify", "--in", "{set}"],
            ["check", "--a", "5", "--b", "8"],
            ["sweep", "--a-min", "2", "--a-max", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_exits_73_with_one_error_line(self, tmp_path, capsys, argv):
        from equisum.cli import EXIT_CANTCREAT, main

        set_path = tmp_path / "two.json"
        set_path.write_text(TWO_POINTS)
        argv = [arg.format(set=set_path) for arg in argv]
        assert main(argv + ["--out", str(tmp_path / "missing" / "x.json")]) == EXIT_CANTCREAT
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        lines = err.splitlines()
        assert lines[-1].startswith("equisum: cannot write output:")
        assert len(lines) == (2 if argv[0] == "sweep" else 1)  # sweep logs its summary first

