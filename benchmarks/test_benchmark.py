"""Tests of the benchmark itself: its output checks, span aggregation and
BENCHMARK.json.  Run with `python -m pytest benchmarks`.

The checks must accept what the program emits and reject a wrong verdict,
a shifted margin and corrupted point sets, including a set whose lambda is
Infinity.
"""

from __future__ import annotations

import json
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import checks
import child
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from equisum import cli  # noqa: E402
from equisum.sweep import emit_report_csv, run_sweep  # noqa: E402


@pytest.fixture(scope="module")
def sweep_csv() -> str:
    return emit_report_csv(run_sweep(2, 30))


def sweep_check(text: str) -> tuple[int, checks.Errors]:
    errors = checks.Errors()
    return checks.check_sweep_csv(text, 2, 30, errors), errors


def edit_row(text: str, a: int, b: int, **fields: str) -> str:
    names = checks.CSV_HEADER.split(",")
    lines = text.split("\n")
    for k, line in enumerate(lines):
        values = line.split(",")
        if values[:2] == [str(a), str(b)]:
            for name, value in fields.items():
                values[names.index(name)] = value
            lines[k] = ",".join(values)
    return "\n".join(lines)


def row(text: str, a: int, b: int) -> dict[str, str]:
    prefix = f"{a},{b},"
    line = next(line for line in text.split("\n") if line.startswith(prefix))
    return dict(zip(checks.CSV_HEADER.split(","), line.split(",")))


class TestSweepCheck:
    def test_accepts_program_output(self, sweep_csv):
        failed, errors = sweep_check(sweep_csv)
        assert (failed, errors.count) == (0, 0), errors.messages

    def test_record_count_is_sum_of_a_squared_minus_one(self, sweep_csv):
        assert len(sweep_csv.strip().split("\n")) - 1 == workloads.sweep_pair_count(2, 30) == 9425

    def test_rejects_wrong_verdict(self, sweep_csv):
        # (28, 40) fails with a negative margin; calling it a hold is wrong
        _, errors = sweep_check(edit_row(sweep_csv, 28, 40, verdict=checks.HOLDS))
        assert errors.count >= 1

    def test_rejects_verdict_flipped_with_its_margin(self, sweep_csv):
        r = row(sweep_csv, 20, 50)
        assert r["verdict"] == checks.HOLDS
        flipped = edit_row(
            sweep_csv,
            20,
            50,
            verdict=checks.FAILS,
            margin_lo="-" + r["margin_hi"],
            margin_hi="-" + r["margin_lo"],
        )
        _, errors = sweep_check(flipped)
        assert errors.count >= 1

    def test_rejects_shifted_margin(self, sweep_csv):
        r = row(sweep_csv, 20, 50)
        shift = float(r["margin_hi"]) - float(r["margin_lo"]) + 1e-6
        shifted = edit_row(
            sweep_csv,
            20,
            50,
            margin_lo=repr(float(r["margin_lo"]) + shift),
            margin_hi=repr(float(r["margin_hi"]) + shift),
        )
        _, errors = sweep_check(shifted)
        assert any("outside" in m for m in errors.messages)

    def test_rejects_wrong_parameters(self, sweep_csv):
        _, errors = sweep_check(edit_row(sweep_csv, 5, 20, beta="3"))
        assert any("parameters" in m for m in errors.messages)

    def test_rejects_malformed_records(self, sweep_csv):
        text = edit_row(sweep_csv, 20, 50, c="x")
        text = edit_row(text, 20, 51, margin_lo="n/a")
        failed, errors = sweep_check(text)
        assert errors.count >= 2 and failed == 2

    def test_missing_record_is_failed_and_wrong(self, sweep_csv):
        text = "\n".join(line for line in sweep_csv.split("\n") if not line.startswith("20,50,"))
        failed, errors = sweep_check(text)
        assert failed == 1 and errors.count >= 1

    def test_indeterminate_is_failed_not_wrong(self, sweep_csv):
        failed, errors = sweep_check(edit_row(sweep_csv, 20, 50, verdict="Indeterminate"))
        assert (failed, errors.count) == (1, 0)


def construct_and_verify(tmp_path: Path, a: int, b: int) -> tuple[str, str]:
    exit_codes, _wall_s, _cpu_s, set_text, report = child.round_trip(cli, tmp_path, a, b)
    assert exit_codes == [0, 0]
    return set_text, report


def set_errors(text: str, a: int, b: int) -> checks.Errors:
    errors = checks.Errors()
    checks.check_point_set(text, a, b, errors)
    return errors


class TestPointSetCheck:
    @pytest.mark.parametrize("a,b", [(1, 4), (4, 1), (4, 4), (3, 7), (7, 3), (5, 20), (3, 12)])
    def test_accepts_program_output(self, tmp_path, a, b):
        point_set, report = construct_and_verify(tmp_path, a, b)
        errors = set_errors(point_set, a, b)
        checks.check_verify_report(report, a, b, errors)
        assert errors.count == 0, errors.messages

    def test_rejects_moved_coordinate(self, tmp_path):
        obj = json.loads(construct_and_verify(tmp_path, 3, 7)[0])
        obj["points"][2]["y"][0] += 1e-6
        assert set_errors(json.dumps(obj), 3, 7)

    def test_rejects_infinite_lambda(self):
        # equisum verify passes this set: max_dev <= rel_tol * lam is inf <= inf
        text = (
            '{"a":1,"b":1,"lambda":Infinity,"swapped":false,"provenance":"x",'
            '"points":[{"x":[0.0],"y":[0.0]},{"x":[5.0],"y":[7.0]}]}'
        )
        assert set_errors(text, 1, 1)

    def test_rejects_nan_coordinate(self, tmp_path):
        text = construct_and_verify(tmp_path, 1, 4)[0]
        obj = json.loads(text)
        obj["points"][0]["x"][0] = float("nan")
        assert set_errors(json.dumps(obj), 1, 4)

    def test_rejects_missing_point(self, tmp_path):
        obj = json.loads(construct_and_verify(tmp_path, 4, 4)[0])
        obj["points"].pop()
        assert set_errors(json.dumps(obj), 4, 4)

    def test_rejects_failed_report(self, tmp_path):
        report = json.loads(construct_and_verify(tmp_path, 3, 7)[1])
        report["pass"] = False
        errors = checks.Errors()
        checks.check_verify_report(json.dumps(report), 3, 7, errors)
        assert errors


def test_aggregate_self_and_inclusive_time():
    # A[0,10] holds B[1,3], B[4,6] and a nested A[7,9]
    names = ["A", "B"]
    stats = spans.aggregate(
        names,
        array("i", [0, 1, 1, 0]),
        array("i", [-1, 0, 0, 0]),
        array("b", [1, 1, 1, 0]),
        array("d", [0.0, 1.0, 4.0, 7.0]),
        array("d", [10.0, 3.0, 6.0, 9.0]),
    )
    assert stats["A"] == {"calls": 2, "s": 10.0, "self_s": 6.0}
    assert stats["B"] == {"calls": 2, "s": 4.0, "self_s": 4.0}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)


def run_bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_call_counts_repeat():
    args = ("--workload", workloads.WIDE, "--seed", "1", "--seconds", "1", "--trace", "1")
    first, second = run_bench(*args), run_bench(*args)
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {name for name, _, _ in spans.PER_LAYER}
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["feasibility.classify.calls"] > 0
