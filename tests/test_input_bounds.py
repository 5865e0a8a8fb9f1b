"""Out-of-range input ends in a documented exit code before any work starts:
non-finite or mistyped point-set JSON, a file larger than verify reads and a
set of more points than verify takes (65), construct's dimensions, --jobs
and verify's --rel-tol (64)."""

import json

import pytest

from equisum import cli, sweep
from equisum.constructions import construct
from equisum.mixednorm import pointset_from_json, pointset_to_json, verify_equilateral

INFINITE_LAMBDA = (
    '{"a":1,"b":1,"lambda":Infinity,"swapped":false,"provenance":"x",'
    '"points":[{"x":[0.0],"y":[0.0]},{"x":[5.0],"y":[7.0]}]}'
)
NAN_COORDINATE = (
    '{"a":1,"b":1,"lambda":2,"swapped":false,"provenance":"x",'
    '"points":[{"x":[0.0],"y":[NaN]},{"x":[1.0],"y":[1.0]}]}'
)
OVERFLOWING_COORDINATE = (
    '{"a":1,"b":1,"lambda":2,"swapped":false,"provenance":"x",'
    '"points":[{"x":[0.0],"y":[1e999]},{"x":[1.0],"y":[1e999]}]}'
)
FINITE_SET = NAN_COORDINATE.replace("NaN", "1.0").replace('"lambda":2', '"lambda":1')
# each field of a JSON type the format does not allow; all but "a":0 were
# once read by int(), float(), bool() or str() and the set verified
MISTYPED_FIELDS = [
    FINITE_SET.replace(old, new, 1)
    for old, new in [
        ('"a":1', '"a":1.5'),
        ('"a":1', '"a":"1"'),
        ('"a":1', '"a":0'),
        ('"b":1', '"b":true'),
        ('"lambda":1', '"lambda":"1"'),
        ('"swapped":false', '"swapped":"no"'),
        ('"provenance":"x"', '"provenance":5'),
        ('"x":[0.0]', '"x":["0"]'),
        ('"y":[1.0]},{"x":[1.0],"y":[1.0]', '"y":[false]},{"x":[1.0],"y":[true]'),
    ]
]
# lambda 1, but the two points are 3 + 4 = 7 apart
FAR_PAIR = (
    '{"a":1,"b":1,"lambda":1,"swapped":false,"provenance":"x",'
    '"points":[{"x":[0.0],"y":[0.0]},{"x":[3.0],"y":[4.0]}]}'
)


class TestNonFiniteJson:
    @pytest.mark.parametrize("text", [INFINITE_LAMBDA, NAN_COORDINATE, *MISTYPED_FIELDS])
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

    def test_overflowing_coordinate_exits_65(self, tmp_path, capsys):
        # 1e999 is no token: json reads it as a float, which overflows to inf
        with pytest.raises(ValueError, match="finite"):
            pointset_from_json(OVERFLOWING_COORDINATE)
        path = tmp_path / "s.json"
        path.write_text(OVERFLOWING_COORDINATE)
        assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_DATA
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "old,new",
        [('"a":1', '"a":1e999'), ('"a":1', '"a":1' + "0" * 400), ('"y":[1.0]', '"y":[1' + "0" * 400 + "]")],
    )
    def test_overflowing_number_exits_65(self, tmp_path, capsys, old, new):
        # an integer literal too large for binary64 is as unreadable as 1e999
        path = tmp_path / "s.json"
        path.write_text(FINITE_SET.replace(old, new, 1))
        assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_DATA
        assert capsys.readouterr().out == ""

    def test_finite_set_still_verifies(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(NAN_COORDINATE.replace("NaN", "1.0").replace('"lambda":2', '"lambda":1'))
        assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["pass"] is True


class TestRelTolBound:
    @pytest.mark.parametrize("rel_tol", ["inf", "nan", "0", "-1"])
    def test_out_of_range_exits_64(self, tmp_path, capsys, rel_tol):
        # --rel-tol inf once passed every set: max_dev <= inf * lambda
        path = tmp_path / "s.json"
        path.write_text(FAR_PAIR)
        assert cli.main(["verify", "--in", str(path), "--rel-tol", rel_tol]) == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""
        with pytest.raises(ValueError, match="rel_tol"):
            verify_equilateral(pointset_from_json(FAR_PAIR), float(rel_tol))

    def test_finite_tolerance_applies(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(FAR_PAIR)
        assert cli.main(["verify", "--in", str(path), "--rel-tol", "5"]) == cli.EXIT_VERIFY_FAIL
        assert json.loads(capsys.readouterr().out)["max_abs_deviation"] == 6.0
        assert cli.main(["verify", "--in", str(path), "--rel-tol", "6"]) == cli.EXIT_OK


class _Reached(Exception):
    pass


def _reached(*args):
    raise _Reached


class TestConstructBound:
    @pytest.mark.parametrize("a,b", [(1, 100_000_000), (1, cli.MAX_CONSTRUCT_DIM), (501, 500)])
    def test_above_bound_exits_64_before_building(self, monkeypatch, capsys, a, b):
        monkeypatch.setattr(cli, "construct", _reached)
        assert cli.main(["construct", "--a", str(a), "--b", str(b)]) == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("a,b", [(1, cli.MAX_CONSTRUCT_DIM - 1), (500, 500)])
    def test_bound_itself_reaches_construct(self, monkeypatch, a, b):
        monkeypatch.setattr(cli, "construct", _reached)
        with pytest.raises(_Reached):
            cli.main(["construct", "--a", str(a), "--b", str(b)])


def line_set(n: int) -> str:
    """n points (i, 0) in E^1 (+)_1 E^1, neighbours at distance 1."""
    points = ",".join('{"x":[%d],"y":[0]}' % i for i in range(n))
    return '{"a":1,"b":1,"lambda":1,"swapped":false,"provenance":"line","points":[%s]}' % points


class TestVerifyPointBound:
    @pytest.mark.parametrize("n", [cli.MAX_CONSTRUCT_DIM + 2, 100_000])
    def test_above_bound_exits_65_before_any_distance(self, tmp_path, monkeypatch, capsys, n):
        # 10^5 points would be 5e9 distances
        monkeypatch.setattr(cli, "verify_equilateral", _reached)
        path = tmp_path / "s.json"
        path.write_text(line_set(n))
        assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_DATA
        assert capsys.readouterr().out == ""

    def test_largest_constructed_size_gets_a_report(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(line_set(cli.MAX_CONSTRUCT_DIM + 1))
        assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_VERIFY_FAIL
        report = json.loads(capsys.readouterr().out)
        assert (report["n_points"], report["worst_pair"]) == (1001, [0, 1000])


class TestVerifyFileBound:
    def test_one_byte_over_exits_65_before_parsing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "pointset_from_json", _reached)
        path = tmp_path / "s.json"
        path.write_bytes(b" " * (cli.MAX_VERIFY_BYTES + 1))
        assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_DATA
        out, err = capsys.readouterr()
        assert out == "" and "larger than" in err

    def test_largest_constructed_set_fits(self):
        # a + b = 1000 at a = 1 (or b = 1) gives the longest JSON construct emits
        text = pointset_to_json(construct(1, cli.MAX_CONSTRUCT_DIM - 1).point_set)
        assert len(text.encode()) <= cli.MAX_VERIFY_BYTES


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

    def map(self, fn, *iterables, chunksize=1):
        return list(map(fn, *iterables))


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
