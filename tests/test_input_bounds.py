"""Out-of-range input ends in a documented exit code before any work starts:
non-finite, too large, too deeply nested or mistyped point-set JSON, a file
larger than verify reads and a set of more points than verify takes (65), construct's dimensions, --jobs,
the number of sweep records (counted by run_sweep, at most
sweep.MAX_SWEEP_RECORDS = 400,000) and verify's --rel-tol (64)."""

import json
import math
import os
import threading

import numpy as np
import pytest

from equisum import cli, sweep
from equisum.constructions import construct
from equisum.mixednorm import MAX_COORDINATE, PointSet, pointset_from_json, pointset_to_json, verify_equilateral

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
# a boolean among numbers in a row, which numpy alone reads as 0 or 1: with
# swapped's the only other literal, with a second literal in the text, and
# with more "e"s than are searched one by one
BOOLEAN_COORDINATE = FINITE_SET.replace('"y":[1.0]},{"x"', '"y":[false]},{"x"', 1)
BOOLEAN_COORDINATES = [
    BOOLEAN_COORDINATE,
    BOOLEAN_COORDINATE.replace('"swapped":false', '"swapped":true'),
    BOOLEAN_COORDINATE.replace('"provenance":"x"', '"provenance":"a true story"'),
    BOOLEAN_COORDINATE.replace('"provenance":"x"', '"provenance":"%s"' % ("e" * 20)),
    FINITE_SET.replace('"x":[1.0]', '"x":[true]'),
]
# lambda 1, but the two points are 3 + 4 = 7 apart
FAR_PAIR = (
    '{"a":1,"b":1,"lambda":1,"swapped":false,"provenance":"x",'
    '"points":[{"x":[0.0],"y":[0.0]},{"x":[3.0],"y":[4.0]}]}'
)


class TestNonFiniteJson:
    @pytest.mark.parametrize("text", [INFINITE_LAMBDA, NAN_COORDINATE, *MISTYPED_FIELDS, *BOOLEAN_COORDINATES])
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


class TestBooleanCoordinate:
    """A coordinate that is a JSON boolean exits 65 (BOOLEAN_COORDINATES in
    TestNonFiniteJson); literals elsewhere, more than mixednorm._MAX_E
    letters "e" or a number in exponent form leave a set readable."""

    @pytest.mark.parametrize(
        "old,new",
        [
            ('"provenance":"x"', '"provenance":"true or false"'),
            ('"provenance":"x"', '"provenance":"%s"' % ("e" * 20)),
            ('"swapped":false', '"swapped":true'),
            ('"x":[1.0]', '"x":[1e0]'),
        ],
    )
    def test_literals_elsewhere_still_verify(self, tmp_path, capsys, old, new):
        path = tmp_path / "s.json"
        path.write_text(FINITE_SET.replace(old, new, 1))
        assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["pass"] is True


def opposite_pair(x: str, lam: str = "1") -> str:
    """Two points (x, 0) and (-x, 0) in E^1 (+)_1 E^1."""
    return (
        '{"a":1,"b":1,"lambda":%s,"swapped":false,"provenance":"x",'
        '"points":[{"x":[%s],"y":[0.0]},{"x":[-%s],"y":[0.0]}]}' % (lam, x, x)
    )


def assert_one_error_line(capsys):
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "Traceback" not in err and "Warning" not in err


class TestCoordinateBound:
    """A coordinate above MAX_COORDINATE in magnitude is unreadable input: at
    +-1e308 the difference overflowed, numpy warned on stderr and the report
    held the non-standard token Infinity."""

    @pytest.mark.parametrize("x", ["1e308", "1.0000000000000002e150"])
    def test_above_bound_exits_65(self, tmp_path, capsys, x):
        path = tmp_path / "s.json"
        path.write_text(opposite_pair(x))
        assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_DATA
        assert_one_error_line(capsys)
        with pytest.raises(ValueError, match="at most 1e150"):
            pointset_from_json(opposite_pair(x))

    def test_bound_itself_is_accepted(self, tmp_path, capsys):
        assert repr(MAX_COORDINATE) == "1e+150"
        path = tmp_path / "s.json"
        path.write_text(opposite_pair("1e150", lam="2e150"))
        assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert (report["pass"], report["max_abs_deviation"]) == (True, 0.0)
        # the squared differences of many coordinates at the bound sum finitely
        X = np.full((2, 1000), MAX_COORDINATE)
        X[1] *= -1
        report = verify_equilateral(PointSet(1000, 1, 1.0, X, np.zeros((2, 1))))
        assert math.isfinite(report.max_abs_deviation) and not report.passed

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e308])
    def test_non_finite_or_huge_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            PointSet(1, 1, 1.0, np.array([[0.0], [1.0]]), np.array([[0.0], [value]]))
        with pytest.raises(ValueError, match="finite"):
            PointSet(2, 1, 1.0, np.array([[value, 0.0], [1.0, 0.0]]), np.zeros((2, 1)))

    def test_empty_set_accepted(self):
        assert len(PointSet(2, 3, 1.0, np.empty((0, 2)), np.empty((0, 3)))) == 0


class TestDeepNesting:
    # 100,000 levels is past any recursion depth the test's own stack leaves
    DEEP = "[" * 100_000 + "]" * 100_000

    def test_exits_65_without_a_traceback(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(self.DEEP)
        assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_DATA
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("text", [DEEP, '{"points":' + DEEP + "}"], ids=["array", "in-object"])
    def test_raises_value_error(self, text):
        with pytest.raises(ValueError, match="nested too deeply"):
            pointset_from_json(text)


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


def _reached(*args, **kwargs):
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


class TestVerifyPipe:
    """A pipe reports size 0 to fstat, so verify reads on to the bound."""

    def run_through_pipe(self, data: bytes) -> int:
        r, w = os.pipe()

        def write():
            with os.fdopen(w, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            return cli.main(["verify", "--in", f"/dev/fd/{r}"])
        finally:
            os.close(r)  # a writer still blocked on a full pipe then fails and ends
            writer.join(timeout=60)
            assert not writer.is_alive()

    def test_set_from_a_pipe_verifies(self, capsys):
        text = pointset_to_json(construct(3, 40).point_set)
        assert self.run_through_pipe(text.encode()) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert (report["n_points"], report["pass"]) == (44, True)

    def test_one_byte_over_exits_65_before_parsing(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "pointset_from_json", _reached)
        assert self.run_through_pipe(b" " * (cli.MAX_VERIFY_BYTES + 1)) == cli.EXIT_DATA
        out, err = capsys.readouterr()
        assert out == "" and "larger than" in err


def plain_enumeration(a_min, a_max, b_max):
    """(a, b) for a in [a_min, a_max] and a < b <= B(a), B(a) being b_max or,
    unset, one below the lemma line a^2 + a."""
    return [
        (a, b)
        for a in range(a_min, a_max + 1)
        for b in range(a + 1, (a * a + a - 1 if b_max is None else b_max) + 1)
    ]


def closed_form_count(a_min, a_max, b_max):
    """The length of `plain_enumeration`, summed in closed form."""
    if b_max is None:
        # a^2 - 1 pairs a < b < a^2 + a for each a; sum(a^2 - 1 for a in 1..x)
        def below(x):
            return x * (x + 1) * (2 * x + 1) // 6 - x

        return below(a_max) - below(a_min - 1)
    # b_max - a pairs for each a < b_max
    hi = min(a_max, b_max - 1)
    count = hi - a_min + 1
    return count * b_max - (a_min + hi) * count // 2 if count > 0 else 0


class TestSweepBound:
    """run_sweep checks and counts the range; exit 64 with `_rows` and
    `lemma_certificate` replaced by `_reached` means no pair was decided and
    no lemma certified."""

    @pytest.mark.parametrize(
        "a_min,a_max,b_max",
        [(2, 2, None), (2, 7, None), (5, 9, None), (2, 2, 3), (2, 6, 2), (3, 6, 5), (2, 6, 40), (4, 9, 7)],
    )
    def test_record_count_in_closed_form(self, a_min, a_max, b_max):
        records = sweep.run_sweep(a_min, a_max, b_max=b_max).records
        assert [(r.a, r.b) for r in records] == plain_enumeration(a_min, a_max, b_max)
        assert closed_form_count(a_min, a_max, b_max) == len(records)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--a-max", "2", "--b-max", str(cli.MAX_SWEEP_RECORDS + 2)],
            ["--a-max", "105"],  # 391,300 records at the lemma line
        ],
    )
    def test_bound_itself_reaches_run_sweep(self, monkeypatch, argv):
        monkeypatch.setattr(sweep, "_rows", _reached)
        with pytest.raises(_Reached):
            cli.main(["sweep", "--a-min", "2", *argv])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--a-max", "2", "--b-max", str(cli.MAX_SWEEP_RECORDS + 3)],  # one record over
            ["--a-max", "106"],
            ["--a-max", str(10**18)],
            ["--a-max", "2", "--b-max", str(10**12)],
        ],
    )
    def test_above_bound_exits_64_before_sweeping(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(sweep, "_rows", _reached)
        monkeypatch.setattr(sweep, "lemma_certificate", _reached)
        assert cli.main(["sweep", "--a-min", "2", *argv]) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and f"more than {cli.MAX_SWEEP_RECORDS}" in err

    def test_bound_is_checked_before_any_row(self, monkeypatch):
        monkeypatch.setattr(sweep, "_rows", _reached)
        with pytest.raises(ValueError, match=f"more than {cli.MAX_SWEEP_RECORDS}"):
            sweep.run_sweep(2, 106)

    def test_no_a_at_or_past_b_max_is_visited(self, capsys):
        # an a >= b-max has no records and is not visited, so a-max costs nothing
        argv = ["sweep", "--a-min", "2", "--a-max", str(10**18), "--b-max", "5", "--format", "csv"]
        assert cli.main(argv) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == sweep.CSV_HEADER
        assert [tuple(map(int, line.split(",")[:2])) for line in lines[1:]] == plain_enumeration(2, 4, 5)

    def test_rows_run_only_below_b_max(self, monkeypatch):
        calls, rows = [], sweep._rows

        def counted(*args):
            calls.append(args)
            return rows(*args)

        monkeypatch.setattr(sweep, "_rows", counted)
        report = sweep.run_sweep(2, 1000, b_max=5)
        assert len(calls) == 3  # a = 2, 3, 4: each a < 5 is one task
        assert len(report.records) == 6

    def test_empty_range(self, capsys):
        report = sweep.run_sweep(2, 6, b_max=2)
        assert (report.records, report.failing_pairs, report.lemma_certified, report.conclusive) == ([], [], [], True)
        assert cli.main(["sweep", "--a-min", "2", "--a-max", "6", "--b-max", "2", "--format", "csv"]) == cli.EXIT_OK
        assert capsys.readouterr().out == sweep.CSV_HEADER + "\n"


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


class _WindowPool(_InlinePool):
    """An inline pool that records the number of tasks of each map call and
    runs them lazily, as the consumer takes them."""

    lengths: list[int] = []

    def map(self, fn, *iterables, chunksize=1):
        tasks = list(iterables[0])
        _WindowPool.lengths.append(len(tasks))
        return map(fn, tasks)


class TestPoolWindow:
    # a in [2, 30] is 29 tasks, one per a; two workers take at most 8 at once
    def test_each_map_call_takes_at_most_four_tasks_per_worker(self, monkeypatch):
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", _WindowPool)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        _WindowPool.lengths.clear()
        _InlinePool.max_workers.clear()
        serial = sweep.emit_report_csv(sweep.run_sweep(2, 30))
        assert _InlinePool.max_workers == []  # the serial path starts no pool
        assert sweep.emit_report_csv(sweep.run_sweep(2, 30, jobs=2)) == serial
        assert len(_WindowPool.lengths) > 1 and max(_WindowPool.lengths) <= 4 * 2
        assert sum(_WindowPool.lengths) == 29

    def test_consumer_that_stops_submits_no_more_tasks(self, monkeypatch):
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", _WindowPool)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        _WindowPool.lengths.clear()
        chunks = sweep.Sweep(2, 30, jobs=2).chunks()
        assert next(chunks)[0][:2] == (2, 3)
        chunks.close()
        assert len(_WindowPool.lengths) == 1 and _WindowPool.lengths[0] <= 4 * 2


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
