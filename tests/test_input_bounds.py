"""Out-of-range input ends in a documented exit code before any work starts:
non-finite point-set JSON (65), the precision exponent and --jobs (64)."""

import json

import pytest

from equisum import cli, sweep
from equisum.mixednorm import pointset_from_json

INFINITE_LAMBDA = (
    '{"a":1,"b":1,"lambda":Infinity,"swapped":false,"provenance":"x",'
    '"points":[{"x":[0.0],"y":[0.0]},{"x":[5.0],"y":[7.0]}]}'
)
NAN_COORDINATE = (
    '{"a":1,"b":1,"lambda":2,"swapped":false,"provenance":"x",'
    '"points":[{"x":[0.0],"y":[NaN]},{"x":[1.0],"y":[1.0]}]}'
)


class TestNonFiniteJson:
    @pytest.mark.parametrize("text", [INFINITE_LAMBDA, NAN_COORDINATE])
    def test_verify_exits_65(self, tmp_path, capsys, text):
        path = tmp_path / "s.json"
        path.write_text(text)
        assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_DATA
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_every_token_rejected(self, token):
        with pytest.raises(ValueError, match="non-finite"):
            pointset_from_json(NAN_COORDINATE.replace("NaN", token))

    def test_overflowing_lambda_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            pointset_from_json(INFINITE_LAMBDA.replace("Infinity", "1e999"))

    def test_finite_set_still_verifies(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(NAN_COORDINATE.replace("NaN", "1.0").replace('"lambda":2', '"lambda":1'))
        assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["pass"] is True


class TestPrecisionExponentBound:
    @pytest.mark.parametrize("raw", [str(cli.MAX_PRECISION_FLOOR_EXP + 1), "1000000000000", "0"])
    def test_out_of_range_exits_64(self, monkeypatch, capsys, raw):
        # rejected from the integer alone: 2**raw is never computed
        monkeypatch.setenv(cli.ENV_PRECISION_FLOOR, raw)
        assert cli.main(["check", "--a", "5", "--b", "8"]) == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_bound_itself_accepted(self, monkeypatch, capsys):
        monkeypatch.setenv(cli.ENV_PRECISION_FLOOR, str(cli.MAX_PRECISION_FLOOR_EXP))
        assert cli.main(["check", "--a", "5", "--b", "8"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["kind"] == "InequalityHolds"


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


class _InlinePool:
    """Runs map in this process and records the worker count asked for."""

    max_workers: list[int] = []

    def __init__(self, max_workers):
        _InlinePool.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


class TestJobsBound:
    def test_huge_jobs_exits_64_before_any_pool(self, monkeypatch, capsys):
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", _NoPool)
        assert cli.main(["sweep", "--a-min", "2", "--a-max", "6", "--jobs", "100000"]) == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_cap_accepted(self, monkeypatch, capsys):
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 3)
        _InlinePool.max_workers.clear()
        assert cli.main(["sweep", "--a-min", "2", "--a-max", "6", "--jobs", str(cli.MAX_JOBS)]) == cli.EXIT_OK
        assert _InlinePool.max_workers == [3]

    def test_workers_bounded_by_cpus_and_pairs(self, monkeypatch):
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", _InlinePool)
        serial = sweep.emit_report_json(sweep.run_sweep(2, 8, jobs=1))
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        _InlinePool.max_workers.clear()
        assert sweep.emit_report_json(sweep.run_sweep(2, 8, jobs=100_000)) == serial
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 64)
        # 2 < b <= 8 is six pairs: at most three workers of two pairs each
        six_pairs = sweep.emit_report_json(sweep.run_sweep(2, 2, b_max=8))
        assert sweep.emit_report_json(sweep.run_sweep(2, 2, b_max=8, jobs=100_000)) == six_pairs
        assert _InlinePool.max_workers == [2, 3]
