"""Byte goldens of the command line at the feasibility boundary.

The sweep CSV over a in [2, 60], the sweep JSON over a in [2, 20] and
`check` at the six pairs next to the paper's boundary were captured from
the implementation that decided through `Fraction` enclosures and rendered
the reduced endpoints.  The integer decision and the rendering of the
unreduced integers must give the same bytes, with one worker process or two.
The sweep JSON over a in [2, 60] was captured when the report went through
`json.dumps` as one object; the streamed renderer must give the same bytes.
`check` at (5, 40), past the lemma line, answers from the lemma as the sweep
does, so it prints no margin.  The sweep JSON over a in [2, 20] with b up to
500 crosses the lemma line for every a (6,441 of its 9,291 records are
covered), so it pins the covered rows, `lemma_certified` and `conclusive`.
"""

import hashlib

import pytest

from equisum import cli
from equisum.sweep import emit_report_csv, run_sweep

SWEEP_60_CSV_SHA256 = "4de9dbad9b7815f5c6e09234471eafcccb5d1fbc75d68ca017e3ef5d4ed4c3a1"
SWEEP_20_JSON_SHA256 = "6b4fef9de9f9d9b0b6011a1845f84849654e6d84b7ce766549f24e846a2ec23a"
SWEEP_60_JSON_SHA256 = "bbe431d53528c37107fbe9ea490eb50d1ad1067cf590b6380d7af0a498378b51"
SWEEP_20_B_500_JSON_SHA256 = "e3f62fa720c7f40c570ea154f081d9e61e7db36f7acc4025467225707390b110"

CHECK_JSON = {
    (28, 40): """\
{
  "a": 28,
  "b": 40,
  "kind": "InequalityFails",
  "c": 2,
  "alpha": 18,
  "beta": 11,
  "margin_lo": "-0.00000833533526096113581099251115864",
  "margin_hi": "-0.00000825155273194335254951088566973",
  "lemma_covered": false
}
""",
    (28, 41): """\
{
  "a": 28,
  "b": 41,
  "kind": "InequalityHolds",
  "c": 2,
  "alpha": 17,
  "beta": 12,
  "margin_lo": "0.00000428742730303409482476206127075",
  "margin_hi": "0.00000437120621018447624378703729390",
  "lemma_covered": false
}
""",
    (29, 39): """\
{
  "a": 29,
  "b": 39,
  "kind": "InequalityFails",
  "c": 2,
  "alpha": 21,
  "beta": 9,
  "margin_lo": "-0.00000862127678258544087350020280381",
  "margin_hi": "-0.00000853751176269465109466442040035",
  "lemma_covered": false
}
""",
    (29, 44): """\
{
  "a": 29,
  "b": 44,
  "kind": "InequalityFails",
  "c": 2,
  "alpha": 16,
  "beta": 14,
  "margin_lo": "-0.0000384544754204754096484802652239",
  "margin_hi": "-0.0000383706512658808234182143923900",
  "lemma_covered": false
}
""",
    (30, 47): """\
{
  "a": 30,
  "b": 47,
  "kind": "InequalityFails",
  "c": 2,
  "alpha": 15,
  "beta": 16,
  "margin_lo": "-0.0000100608708600525965771844817532",
  "margin_hi": "-0.00000997706197690067458299583651953",
  "lemma_covered": false
}
""",
    (27, 39): """\
{
  "a": 27,
  "b": 39,
  "kind": "InequalityHolds",
  "c": 2,
  "alpha": 17,
  "beta": 11,
  "margin_lo": "0.000131838651064963366046926395141",
  "margin_hi": "0.000131922319490732876045781005654",
  "lemma_covered": false
}
""",
    (5, 40): """\
{
  "a": 5,
  "b": 40,
  "kind": "InequalityHolds",
  "c": 7,
  "alpha": 2,
  "beta": 4,
  "lemma_covered": true
}
""",
}


def test_sweep_60_csv_digest(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--a-min", "2", "--a-max", "60", "--format", "csv", "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_60_CSV_SHA256


def test_sweep_60_csv_digest_with_two_workers():
    # the pool's rows, pickled back from the workers, give the same bytes
    text = emit_report_csv(run_sweep(2, 60, jobs=2))
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_60_CSV_SHA256


def test_sweep_20_json_digest(tmp_path):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--a-min", "2", "--a-max", "20", "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_20_JSON_SHA256


def test_sweep_60_json_digest(tmp_path):
    out = tmp_path / "sweep.json"
    assert cli.main(["sweep", "--a-min", "2", "--a-max", "60", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_60_JSON_SHA256


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_across_the_lemma_line_json_digest(tmp_path, jobs):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--a-min", "2", "--a-max", "20", "--b-max", "500", "--jobs", jobs, "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_20_B_500_JSON_SHA256


@pytest.mark.parametrize("a, b", list(CHECK_JSON))
def test_check_json_bytes(capsys, a, b):
    assert cli.main(["check", "--a", str(a), "--b", str(b)]) == 0
    assert capsys.readouterr().out == CHECK_JSON[a, b]
