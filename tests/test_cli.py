"""End-to-end tests of the command-line interface and its exit codes."""

import json
import re
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


class TestHelp:
    def test_help_names_the_exit_codes_and_no_measurements(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        text = " ".join(proc.stdout.split())  # argparse rewraps the lines
        for command in ("construct", "verify", "check", "sweep"):
            assert command in text
        codes = re.findall(r"\b(\d+) [a-z]", text.split("Exit codes:")[1])
        assert codes == ["0", "1", "2", "3", "64", "65", "73"]
        assert "RSS" not in text and "MAX_SWEEP_RECORDS" not in text


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

    @pytest.mark.parametrize("b", [10**31, 10**32])
    def test_far_past_the_lemma_line(self, b):
        # answered from the lemma certificate, as the sweep answers it: the
        # inequality's margin is below the 2^-200 floor there
        proc = run_cli("check", "--a", "5", "--b", str(b))
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert (obj["kind"], obj["lemma_covered"]) == ("InequalityHolds", True)
        assert "margin_lo" not in obj and "margin_hi" not in obj

    def test_undecided_at_the_digit_limit_exits_3(self, capsys):
        # 4,299 digits, under argparse's 4,300: neither the lemma nor the
        # margin clears the floor, and that is the certified answer
        import time

        from equisum.cli import EXIT_INDETERMINATE, main

        a, b = str(10**2149), str(10**4298 + 10**2149 + 12345)
        t0 = time.perf_counter()
        assert main(["check", "--a", a, "--b", b]) == EXIT_INDETERMINATE
        assert time.perf_counter() - t0 < 2.0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["kind"], obj["lemma_covered"]) == ("Indeterminate", True)
        proc = run_cli("check", "--a", a, "--b", b)
        assert (proc.returncode, proc.stderr) == (3, "")

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
    def test_exits_73_with_one_error_line(self, tmp_path, capsys, monkeypatch, argv):
        from equisum import sweep
        from equisum.cli import EXIT_CANTCREAT, main

        def unreached(task):
            raise AssertionError(f"a pair was decided before --out was opened: {task}")

        # --out is opened before the sweep decides any pair
        monkeypatch.setattr(sweep, "_rows", unreached)
        set_path = tmp_path / "two.json"
        set_path.write_text(TWO_POINTS)
        argv = [arg.format(set=set_path) for arg in argv]
        assert main(argv + ["--out", str(tmp_path / "missing" / "x.json")]) == EXIT_CANTCREAT
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        lines = err.splitlines()
        assert lines[-1].startswith("equisum: cannot write output:")
        assert len(lines) == 1


class TestBadInputKeepsOut:
    """An input that exits 64 or 65 neither truncates nor rewrites an
    existing --out, and prints nothing on stdout."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["construct", "--a", "0", "--b", "8"], 64),
            (["verify", "--in", "{bad}"], 65),
            (["verify", "--in", "{set}", "--rel-tol", "0"], 64),
            (["check", "--a", "0", "--b", "8"], 64),
            (["sweep", "--a-min", "1", "--a-max", "3"], 64),
            (["sweep", "--a-min", "2", "--a-max", "3", "--jobs", "0"], 64),
        ],
        ids=["construct-a-0", "verify-malformed", "verify-rel-tol-0", "check-a-0", "sweep-a-min-1", "sweep-jobs-0"],
    )
    def test_existing_out_survives(self, tmp_path, capsys, argv, code):
        from equisum.cli import main

        bad, good, out = tmp_path / "bad.json", tmp_path / "two.json", tmp_path / "existing.out"
        bad.write_text("{this is not json")
        good.write_text(TWO_POINTS)
        out.write_bytes(b"kept\n")
        argv = [arg.format(bad=bad, set=good) for arg in argv]
        assert main(argv + ["--out", str(out)]) == code
        assert out.read_bytes() == b"kept\n"
        assert capsys.readouterr().out == ""


class TestOutFile:
    def test_shorter_payload_leaves_only_the_new_bytes(self, tmp_path, capsys):
        from equisum.cli import main

        out = tmp_path / "s.json"
        out.write_bytes(b"x" * 100_000)  # longer than the set
        assert main(["construct", "--a", "2", "--b", "3", "--out", str(out)]) == 0
        assert main(["construct", "--a", "2", "--b", "3"]) == 0
        assert out.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_pipe_through_dev_stdout(self):
        # stdout is a pipe here, which cannot be truncated
        proc = run_cli("check", "--a", "2", "--b", "3", "--out", "/dev/stdout")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run_cli("check", "--a", "2", "--b", "3").stdout

    @pytest.mark.parametrize("cmd", ["check", "construct"])
    def test_dev_null(self, cmd):
        # a character device: it seeks, but cannot be truncated
        proc = run_cli(cmd, "--a", "2", "--b", "3", "--out", "/dev/null")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


class TestStreamedSweep:
    """`sweep` renders each task's rows as they are made: CSV writes them at
    once, JSON holds their text until its summary is written."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv, records",
        [
            # 22,100 records; holding them all peaked at 14 MB as CSV, and
            # at 49 MiB for 5.7 MiB of JSON
            (["--a-max", "40"], sum(a * a - 1 for a in range(2, 41))),
            # one a with --b-max far past a^2; as one task it peaked at 18 MB
            # as CSV, and holding every record at 114 MiB for 11.8 MiB of JSON
            (["--a-max", "2", "--b-max", "60000"], 59_998),
        ],
        ids=["a-max-40", "long-b-range"],
    )
    def test_peak_memory_follows_the_output(self, tmp_path, argv, records, fmt):
        import tracemalloc

        from equisum.cli import main

        out = tmp_path / f"sweep.{fmt}"
        tracemalloc.start()
        try:
            code = main(["sweep", "--a-min", "2", *argv, "--format", fmt, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        if fmt == "csv":  # one task's rows at a time
            assert out.read_text().count("\n") == 1 + records
            assert peak < 3 * 2**20
        else:  # the text of every record, and one task's rows
            assert len(json.loads(out.read_text())["records"]) == records
            assert peak < out.stat().st_size + 3 * 2**20

    def test_long_b_range_split_into_tasks_gives_the_same_rows(self, capsys):
        from equisum import sweep
        from equisum.cli import main

        assert main(["sweep", "--a-min", "5", "--a-max", "5", "--b-max", "10000", "--format", "csv"]) == 0
        one_task = sweep._rows((5, 6, 10_000))
        assert len(one_task) > sweep._TASK_ROWS
        assert capsys.readouterr().out == sweep.CSV_HEADER + "\n" + sweep.csv_rows(one_task)

    def test_range_over_the_bound_leaves_out_untouched(self, tmp_path, capsys):
        from equisum.cli import EXIT_USAGE, main

        out = tmp_path / "existing.csv"
        out.write_bytes(b"kept\n")
        argv = ["sweep", "--a-min", "2", "--a-max", "106", "--format", "csv", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert out.read_bytes() == b"kept\n"
        assert capsys.readouterr().out == ""

    def test_unreadable_set_leaves_out_untouched(self, tmp_path):
        from equisum.cli import EXIT_DATA, main

        bad, out = tmp_path / "bad.json", tmp_path / "existing.json"
        bad.write_text("{this is not json")
        out.write_bytes(b"kept\n")
        assert main(["verify", "--in", str(bad), "--out", str(out)]) == EXIT_DATA
        assert out.read_bytes() == b"kept\n"

    def test_pool_to_stdout_matches_serial(self, capsys):
        from equisum.cli import main

        argv = ["sweep", "--a-min", "2", "--a-max", "12", "--format", "csv"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert serial.count("\n") == 1 + sum(a * a - 1 for a in range(2, 13))

    def test_indeterminate_writes_every_row_and_exits_3(self, monkeypatch, capsys):
        from equisum import feasibility
        from equisum.cli import EXIT_INDETERMINATE, main
        from equisum.feasibility import FeasibilityVerdict, VerdictKind, check_inequality

        def undecided(p):
            return FeasibilityVerdict(VerdictKind.INDETERMINATE, p, check_inequality(p).margin)

        argv = ["sweep", "--a-min", "2", "--a-max", "8", "--format", "csv"]
        assert main(argv) == 0
        decided = capsys.readouterr().out.splitlines()
        monkeypatch.setattr(feasibility, "check_inequality", undecided)
        assert main(argv) == EXIT_INDETERMINATE
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert len(lines) == len(decided) == 1 + sum(a * a - 1 for a in range(2, 9))
        # the rows check_inequality decided say Indeterminate, the rest are unchanged
        changed = [(old, new) for old, new in zip(decided, lines) if old != new]
        assert changed and all(
            new == old.replace(",InequalityHolds,", ",Indeterminate,").replace(",InequalityFails,", ",Indeterminate,")
            for old, new in changed
        )
        assert err.startswith(f"sweep: {len(lines) - 1} pairs, 0 failing")
