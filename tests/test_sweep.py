"""Tests for the boundary sweep and its report formats."""

import json

import pytest

from equisum.sweep import (
    CSV_HEADER,
    SweepReport,
    emit_report_csv,
    emit_report_json,
    evaluate_pair,
    fraction_to_decimal_str,
    parse_report_json,
    run_sweep,
)
from fractions import Fraction


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

    def test_parallel_serial_identical(self):
        serial = run_sweep(2, 10, jobs=1)
        parallel = run_sweep(2, 10, jobs=3)
        assert serial == parallel
        assert emit_report_json(serial) == emit_report_json(parallel)
        assert emit_report_csv(serial) == emit_report_csv(parallel)


class TestReports:
    def test_empty_csv_is_header_only(self):
        empty = SweepReport(records=[], failing_pairs=[], config={}, lemma_certified=[], conclusive=True)
        assert emit_report_csv(empty) == CSV_HEADER + "\n"

    def test_single_record_field_order(self):
        report = run_sweep(2, 2, b_max=3)
        lines = emit_report_csv(report).splitlines()
        assert lines[0] == "a,b,c,alpha,beta,verdict,margin_lo,margin_hi,lemma_covered"
        assert lines[1] == "2,3,2,3,0,BetaTrivial,,,false"
        assert len(lines) == 2

    def test_json_round_trip(self):
        report = run_sweep(2, 5)
        again = parse_report_json(emit_report_json(report))
        assert again == report

    @pytest.mark.parametrize(
        "text,field",
        [
            ("{}", "records"),
            ('{"records": [{"a": 2}], "failing_pairs": [], "config": {}, '
             '"lemma_certified": [], "conclusive": true}', "'b'"),
            ("[]", "object"),
        ],
    )
    def test_json_schema_errors_name_the_field(self, text, field):
        with pytest.raises(ValueError, match=field):
            parse_report_json(text)

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
