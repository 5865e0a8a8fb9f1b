"""Tests for the boundary sweep and its report formats."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import equisum
from equisum import cli, feasibility
from equisum.feasibility import VerdictKind, check_inequality, derive_parameters, lemma_applies
from equisum.sweep import (
    CSV_HEADER,
    Sweep,
    SweepRecord,
    emit_report_csv,
    emit_report_json,
    evaluate_pair,
    fraction_to_decimal_str,
    margin_strings,
    run_sweep,
)
from fractions import Fraction


def reference_record(a: int, b: int) -> dict:
    """The fields of the record of (a, b) as the sweep built them one pair
    at a time: `derive_parameters`, `lemma_applies`, `check_inequality` and
    `margin_strings`."""
    p = derive_parameters(a, b)
    covered = lemma_applies(a, b)
    lo = hi = None
    if p.beta in (0, 1, a):
        kind = VerdictKind.BETA_TRIVIAL
    elif covered:
        kind = VerdictKind.INEQUALITY_HOLDS
    else:
        kind, _, margin = check_inequality(p)
        lo, hi = margin_strings(margin)
    return dict(
        a=a, b=b, c=p.c, alpha=p.alpha, beta=p.beta, verdict=kind.value,
        margin_lo=lo, margin_hi=hi, lemma_covered=covered,
    )


def reference_json(report: Sweep) -> str:
    """The report as `json.dumps(..., indent=2)` writes it as one object, with
    one `_asdict()` dict per record: the builder `json_rows` replaced."""
    obj = {
        "config": report.config,
        "lemma_certified": report.lemma_certified,
        "conclusive": report.conclusive,
        "failing_pairs": [list(p) for p in report.failing_pairs],
        "records": [r._asdict() for r in report.records],
    }
    return json.dumps(obj, indent=2) + "\n"


def assert_records_match_reference(records) -> None:
    for rec in records:
        assert type(rec) is SweepRecord
        ref = reference_record(rec.a, rec.b)
        # field by field, with the types: a 1 must not stand for True
        assert [(type(v), v) for v in rec] == [(type(v), v) for v in ref.values()]
        assert rec._asdict() == ref


class TestDecimalRendering:
    def test_thirty_significant_digits(self):
        s = fraction_to_decimal_str(Fraction(1, 3))
        assert s == "0.333333333333333333333333333333"

    def test_exact_values_stay_short(self):
        assert fraction_to_decimal_str(Fraction(-7, 4)) == "-1.75"


class TestEvaluatePair:
    def test_trivial_beta(self):
        rec = evaluate_pair(2, 3)
        assert (rec.verdict, rec.margin_lo, rec.lemma_covered) == ("BetaTrivial", None, False)

    def test_failing_pair_has_negative_margin(self):
        rec = evaluate_pair(28, 40)
        assert rec.verdict == "InequalityFails"
        assert rec.margin_lo is not None and rec.margin_hi.startswith("-0.0000082")

    def test_out_of_scope_rejected(self):
        for a, b in [(3, 3), (5, 4), (1, 5)]:
            with pytest.raises(ValueError):
                evaluate_pair(a, b)

    def test_lemma_covered_is_not_redecided(self):
        rec = evaluate_pair(3, 12)  # 12 = 3^2 + 3, beta = 0
        assert rec.lemma_covered
        rec2 = evaluate_pair(3, 14)  # beta = 2, main case but above threshold
        assert rec2.lemma_covered
        assert rec2.verdict == "InequalityHolds"
        assert rec2.margin_lo is None


class TestRunSweep:
    def test_explicit_small_range(self):
        report = run_sweep(2, 2, b_max=5)
        assert [(r.a, r.b) for r in report.records] == [(2, 3), (2, 4), (2, 5)]
        assert report.failing_pairs == []
        assert report.conclusive

    def test_up_to_lemma_matches_explicit_for_a2(self):
        # for a = 2 the lemma threshold is 6, so UpToLemma scans b in (2, 5]
        lemma = run_sweep(2, 2)
        explicit = run_sweep(2, 2, b_max=5)
        assert [(r.a, r.b) for r in lemma.records] == [(r.a, r.b) for r in explicit.records]
        assert lemma.config["b_policy"] == "UpToLemma"
        assert lemma.lemma_certified == [2]

    def test_a28_reproduces_single_failure(self):
        report = run_sweep(28, 28)
        assert report.failing_pairs == [(28, 40)]
        assert report.conclusive

    def test_failing_pairs_only_in_main_case(self):
        report = run_sweep(28, 28)
        by_pair = {(r.a, r.b): r for r in report.records}
        for a, b in report.failing_pairs:
            rec = by_pair[(a, b)]
            assert 2 <= rec.beta <= a - 1

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            run_sweep(1, 5)
        with pytest.raises(ValueError):
            run_sweep(5, 4)

    def test_records_match_reference_up_to_60(self):
        report = run_sweep(2, 60)
        assert len(report.records) == sum(a * a - 1 for a in range(2, 61))
        assert_records_match_reference(report.records)

    def test_records_match_reference_across_lemma_line(self):
        # b up to 60 crosses a^2 + a for a in [3, 6]: lemma-covered rows,
        # main-case ones reported as holding with no margin among them
        report = run_sweep(3, 6, b_max=60)
        assert [(r.a, r.b) for r in report.records] == [(a, b) for a in range(3, 7) for b in range(a + 1, 61)]
        holds_covered = [r for r in report.records if r.lemma_covered and r.verdict == "InequalityHolds"]
        assert holds_covered and all(r.margin_lo is None and r.margin_hi is None for r in holds_covered)
        assert_records_match_reference(report.records)

    def test_one_inequality_call_per_main_case_pair(self, monkeypatch):
        # the tier-1 counterpart of CI's traced sweep-60 step (68,440 calls)
        calls = []

        def counted(p):
            calls.append(p)
            return check_inequality(p)

        monkeypatch.setattr(feasibility, "check_inequality", counted)
        report = run_sweep(2, 30)
        assert (len(calls), len(report.records)) == (8120, 9425)
        assert calls == [derive_parameters(r.a, r.b) for r in report.records if 2 <= r.beta < r.a]

    def test_sweep_60_reads_one_table_and_one_certificate_per_a(self):
        feasibility._squares.cache_clear()
        feasibility.lemma_certificate.cache_clear()
        run_sweep(2, 60)
        assert feasibility._squares.cache_info()[:2] == (68440, 59)  # (hits, misses)
        assert feasibility.lemma_certificate.cache_info()[:2] == (0, 59)

    def test_parallel_serial_identical(self):
        serial = run_sweep(2, 10, jobs=1)
        parallel = run_sweep(2, 10, jobs=3)
        fields = ("config", "records", "failing_pairs", "lemma_certified", "conclusive")
        assert [getattr(serial, f) for f in fields] == [getattr(parallel, f) for f in fields]
        assert emit_report_json(serial) == emit_report_json(parallel)
        assert emit_report_csv(serial) == emit_report_csv(parallel)


class TestReports:
    def test_empty_csv_is_header_only(self):
        empty = run_sweep(2, 2, b_max=2)
        assert emit_report_csv(empty) == CSV_HEADER + "\n"

    def test_single_record_field_order(self):
        report = run_sweep(2, 2, b_max=3)
        lines = emit_report_csv(report).splitlines()
        assert lines[0] == "a,b,c,alpha,beta,verdict,margin_lo,margin_hi,lemma_covered"
        assert lines[1] == "2,3,2,3,0,BetaTrivial,,,false"
        assert len(lines) == 2

    def test_json_round_trip(self):
        # every field of the report and of each record reaches the JSON;
        # a = 28 has a failing pair and margins on most records
        report = run_sweep(28, 28)
        obj = json.loads(emit_report_json(report))
        assert obj == {
            "config": report.config,
            "lemma_certified": report.lemma_certified,
            "conclusive": report.conclusive,
            "failing_pairs": [[28, 40]],
            "records": [r._asdict() for r in report.records],
        }
        assert [SweepRecord(**r) for r in obj["records"]] == report.records

    @pytest.mark.parametrize(
        "a_min, a_max, b_max, jobs",
        [
            (2, 2, 2, 1),  # no record: "records": []
            (2, 2, 3, 1),
            (28, 28, None, 1),  # a failing pair, and margins on most records
            (3, 6, 60, 1),  # lemma-covered records with null margins
            (5, 5, 10_000, 1),  # more than _TASK_ROWS rows: a task boundary between two records
            (2, 12, None, 2),
        ],
        ids=["empty", "one-record", "a-28", "lemma-covered", "over-task-rows", "two-workers"],
    )
    def test_json_matches_the_encoder(self, capsys, a_min, a_max, b_max, jobs):
        report = run_sweep(a_min, a_max, b_max, jobs)
        expected = reference_json(report)
        assert bool(report.records) != expected.endswith('"records": []\n}\n')
        assert emit_report_json(report) == expected
        argv = ["sweep", "--a-min", str(a_min), "--a-max", str(a_max), "--jobs", str(jobs)]
        assert cli.main(argv + (["--b-max", str(b_max)] if b_max else [])) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("emit_report", [emit_report_csv, emit_report_json], ids=["csv", "json"])
    def test_peak_memory_follows_the_output(self, emit_report):
        # records are rendered a task's worth at a time: as one chunk, 2.1 MiB
        # of CSV peaked at 5.5 MiB and 5.7 MiB of JSON at 17.1 MiB
        import tracemalloc

        report = run_sweep(2, 40)
        tracemalloc.start()
        try:
            text = emit_report(report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.isascii() and peak < 2.2 * len(text)

    def test_json_mirrors_record_field_names(self):
        report = run_sweep(2, 2, b_max=4)
        obj = json.loads(emit_report_json(report))
        assert list(obj["records"][0].keys()) == [
            "a", "b", "c", "alpha", "beta", "verdict", "margin_lo", "margin_hi", "lemma_covered",
        ]

    def test_ordering_stable(self):
        report = run_sweep(2, 4)
        pairs = [(r.a, r.b) for r in report.records]
        assert pairs == sorted(pairs)


def test_decision_layer_imports_no_numpy():
    # sweep, feasibility and realnum run without numpy; the package __init__,
    # which imports the constructions, is bypassed by a bare package
    code = (
        "import sys, types\n"
        "sys.modules['numpy'] = None\n"
        "package = types.ModuleType('equisum')\n"
        f"package.__path__ = [{str(Path(equisum.__file__).parent)!r}]\n"
        "sys.modules['equisum'] = package\n"
        "import equisum.sweep\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
