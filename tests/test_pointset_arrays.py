"""The array-backed point set on the construct -> verify path: row-block
verification against the all-pairs tensor, JSON shapes and signed zeros,
golden artifact digests, the JSON codec against per-coordinate formatting,
and a parser built once and reused."""

import contextlib
import hashlib
import io
import json
import tracemalloc
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisum import cli, mixednorm
from equisum.constructions import construct, construct_prop2
from equisum.mixednorm import (
    PointSet,
    VerificationReport,
    pointset_from_json,
    pointset_to_json,
    verify_equilateral,
)


def full_tensor_report(s: PointSet, rel_tol: float = 1e-9) -> VerificationReport:
    """Reference: every pair at once through the n x n x (a+b) tensor."""
    n = len(s)
    if n < 2:
        return VerificationReport(n, 0, s.lam, rel_tol, 0.0, None, True)
    xs, ys = s.X, s.Y
    dist = np.linalg.norm(xs[:, None, :] - xs[None, :, :], axis=2)
    dist += np.linalg.norm(ys[:, None, :] - ys[None, :, :], axis=2)
    iu, ju = np.triu_indices(n, k=1)
    dev = np.abs(dist[iu, ju] - s.lam)
    k = int(np.argmax(dev))
    max_dev = float(dev[k])
    return VerificationReport(
        n, len(dev), s.lam, rel_tol, max_dev, (int(iu[k]), int(ju[k])), bool(max_dev <= rel_tol * s.lam)
    )


def random_set(rng: Random, n: int, a: int, b: int, integer: bool) -> PointSet:
    draw = (lambda: float(rng.randint(-1, 1))) if integer else (lambda: rng.uniform(-2.0, 2.0))
    X = np.array([[draw() for _ in range(a)] for _ in range(n)]).reshape(n, a)
    Y = np.array([[draw() for _ in range(b)] for _ in range(n)]).reshape(n, b)
    return PointSet(a=a, b=b, lam=rng.choice([0.5, 1.0, 2.0, 3.0]), X=X, Y=Y)


# a budget that takes each small test set in a single block, as the default
# _BLOCK_ELEMENTS (smaller) also does; kept fixed so the test ids do not move
# with the default
ONE_BLOCK = 1 << 20


class TestRowBlockVerify:
    # budgets of 1 and 40 elements cut a row into spans of offsets or hold
    # a few rows per block; ONE_BLOCK takes each of these sets in a single
    # block
    @pytest.mark.parametrize("budget", [1, 40, 300, ONE_BLOCK])
    def test_matches_full_tensor_on_random_sets(self, monkeypatch, budget):
        monkeypatch.setattr(mixednorm, "_BLOCK_ELEMENTS", budget)
        rng = Random(budget)
        for trial in range(60):
            n, a, b = rng.randint(0, 14), rng.randint(1, 12), rng.randint(1, 12)
            # small integer coordinates make many equal deviations (ties)
            s = random_set(rng, n, a, b, integer=trial % 2 == 0)
            assert verify_equilateral(s) == full_tensor_report(s), (n, a, b)

    @pytest.mark.parametrize("budget", [1, 2, 3, ONE_BLOCK])
    def test_tie_across_blocks_keeps_first_pair(self, monkeypatch, budget):
        # lam = 1: (0, 2) and (1, 3) deviate most, by 5; lam = 5: (0, 1)
        # and (2, 3), by 4.  Each tie spans two rows, so with one row per
        # block it spans two blocks, and the first pair must win.
        monkeypatch.setattr(mixednorm, "_BLOCK_ELEMENTS", budget)
        X, Y = [[0.0], [1.0], [1.0], [0.0]], [[0.0], [0.0], [5.0], [5.0]]
        s = PointSet(a=1, b=1, lam=1.0, X=X, Y=Y)
        report = verify_equilateral(s)
        assert report == full_tensor_report(s)
        assert report.worst_pair == (0, 2) and report.max_abs_deviation == 5.0
        s = PointSet(a=1, b=1, lam=5.0, X=X, Y=Y)
        assert verify_equilateral(s).worst_pair == full_tensor_report(s).worst_pair == (0, 1)

    def test_constructed_set_in_blocks_of_eight_rows(self, monkeypatch):
        s = construct_prop2(40).point_set
        monkeypatch.setattr(mixednorm, "_BLOCK_ELEMENTS", 8 * len(s) * 40)
        assert verify_equilateral(s) == full_tensor_report(s)


class TestCyclicBand:
    """Each pair {i, j} comes from row i at offset k = j - i, or from row j
    through the wrap at k = n - (j - i); at even n the pairs at k = n/2 come
    from both ends."""

    # Y is four coordinates wide, so a band row of Y holds 4 * (n//2)
    # differences: budgets below that cut each row along k, in spans of one
    # offset (budgets 1 to 7) or two (budget 8)
    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 8, mixednorm._BLOCK_ELEMENTS])
    @pytest.mark.parametrize("n", [5, 6])
    def test_tie_whose_first_pair_wraps(self, monkeypatch, budget, n):
        # points 0 and n-1 coincide, and so do 1 and 2: with lam = 100 both
        # pairs deviate by 100, the most.  (1, 2) is reached first, from row
        # 1; the first pair, (0, n-1), only later, from row n-1 at k = 1.
        monkeypatch.setattr(mixednorm, "_BLOCK_ELEMENTS", budget)
        x = [0.0, 7.0, 7.0, 3.0, 5.0, 11.0][: n - 1] + [0.0]
        s = PointSet(a=1, b=4, lam=100.0, X=[[v] for v in x], Y=[[0.0] * 4] * n)
        report = verify_equilateral(s)
        assert report == full_tensor_report(s)
        assert report.worst_pair == (0, n - 1) and report.max_abs_deviation == 100.0

    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 8, mixednorm._BLOCK_ELEMENTS])
    def test_tie_at_half_offset_from_both_ends(self, monkeypatch, budget):
        # n = 6: (0, 3) and (2, 5) are both at k = 3, and each coincides
        monkeypatch.setattr(mixednorm, "_BLOCK_ELEMENTS", budget)
        x = [0.0, 1.0, 4.0, 0.0, 9.0, 4.0]
        s = PointSet(a=1, b=4, lam=50.0, X=[[v] for v in x], Y=[[1.0, 0.0, 2.0, 0.0]] * 6)
        assert verify_equilateral(s) == full_tensor_report(s)
        assert verify_equilateral(s).worst_pair == (0, 3)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_blocks_split_at_half(self, monkeypatch, rows, n):
        # a budget of rows * (n // 2) * max(a, b) holds `rows` band rows of
        # the wider factor, so for n = 2 * rows or 2 * rows + 1 a block of
        # it can end at n // 2; a chunk holds an eighth of a budget of
        # distances, at least one row
        rng = Random(n * 10 + rows)
        for trial in range(20):
            a, b = rng.randint(1, 6), rng.randint(1, 6)
            monkeypatch.setattr(mixednorm, "_BLOCK_ELEMENTS", rows * (n // 2) * max(a, b))
            s = random_set(rng, n, a, b, integer=trial % 2 == 0)
            assert verify_equilateral(s) == full_tensor_report(s), (n, a, b)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        n=st.integers(0, 40),
        a=st.integers(1, 12),
        b=st.integers(1, 12),
        rows=st.integers(1, 41),
        integer=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_tensor(self, n, a, b, rows, integer, seed):
        s = random_set(Random(seed), n, a, b, integer)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mixednorm, "_BLOCK_ELEMENTS", rows * max(n // 2, 1) * max(a, b))
            assert verify_equilateral(s) == full_tensor_report(s)

    def test_peak_memory_is_one_block_beyond_the_set(self):
        # the bands copy each factor once, 1.5 times its rows; one block of
        # float64 differences comes on top.  Gathering both ends of each
        # pair of a block of rows, as before the band, takes twice the block.
        s = construct(10, 300).point_set
        bound = 8 * mixednorm._BLOCK_ELEMENTS + 2 * (s.X.nbytes + s.Y.nbytes)
        tracemalloc.start()
        try:
            verify_equilateral(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


class TestArrays:
    def test_json_shapes_for_zero_and_one_point(self):
        for n in (0, 1):
            s = PointSet(a=3, b=2, lam=1.0, X=np.ones((n, 3)), Y=np.ones((n, 2)))
            t = pointset_from_json(pointset_to_json(s))
            assert t.X.shape == (n, 3) and t.Y.shape == (n, 2)
            assert pointset_to_json(t) == pointset_to_json(s)

    @pytest.mark.parametrize(
        "points",
        [
            '[{"x": [0, 1], "y": [0]}, {"x": [1], "y": [1]}]',  # ragged
            '[{"x": [0], "y": [0]}, {"x": [1], "y": [1]}]',  # a = 2, rows of 1
            '[{"x": [[0, 1]], "y": [0]}]',  # nested too deep
            '[{"x": [0, 1], "y": [null]}]',  # not a number
            '[{"x": ["0", "1"], "y": [0]}]',  # strings
            '[{"x": [0, 1], "y": [false]}]',  # a boolean row
        ],
    )
    def test_bad_rows_rejected(self, points):
        text = '{"a": 2, "b": 1, "lambda": 1, "swapped": false, "provenance": "", "points": %s}'
        with pytest.raises(ValueError):
            pointset_from_json(text % points)

    def test_prop2_emits_negative_zero(self):
        # the second copy of the half unit vectors is -half_e: its zeros are -0.0
        text = pointset_to_json(construct_prop2(3).point_set)
        assert '"y": [-0.5, -0, -0]' in text and '"y": [0.5, 0, 0]' in text
        # json reads -0 as the integer 0; parsed as a float it keeps its sign
        t = pointset_from_json(text)
        assert np.signbit(t.Y[3, 1]) and not np.signbit(t.Y[0, 1])
        assert pointset_to_json(t) == text


def reference_json(s: PointSet) -> str:
    """Reference: one "%.17g" per coordinate, one formatting call per point."""
    head = (
        f'{{"a": {s.a}, "b": {s.b}, "lambda": {"%.17g" % s.lam}, '
        f'"swapped": {json.dumps(s.swapped)}, "provenance": {json.dumps(s.provenance)}, "points": ['
    )
    point = '{"x": [%s], "y": [%s]}' % (", ".join(["%.17g"] * s.a), ", ".join(["%.17g"] * s.b))
    body = ",\n  ".join([point % tuple(row) for row in np.hstack([s.X, s.Y]).tolist()])
    return head + "\n  " + body + "\n]}\n"


# signed zeros, the smallest subnormal, the smallest normal, the largest
# magnitude a set takes (MAX_COORDINATE) and the float below it
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1e150, -1e150, 9.999999999999998e149, -9.999999999999998e149,
]
FINITE = st.floats(min_value=-mixednorm.MAX_COORDINATE, max_value=mixednorm.MAX_COORDINATE)


@st.composite
def point_sets(draw):
    """Small sets whose coordinates repeat a few values (as constructed
    sets do), are all drawn apart, or come from signed zeros, subnormals
    and the extremes a set takes."""
    n, a, b = draw(st.integers(0, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    values = draw(
        st.sampled_from(
            [
                st.lists(FINITE, min_size=1, max_size=3).flatmap(st.sampled_from),
                FINITE,
                st.sampled_from(EDGE_VALUES),
            ]
        )
    )
    X = np.array(draw(st.lists(values, min_size=n * a, max_size=n * a))).reshape(n, a)
    Y = np.array(draw(st.lists(values, min_size=n * b, max_size=n * b))).reshape(n, b)
    lam = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    return PointSet(a, b, lam, X, Y, draw(st.text(max_size=4)), draw(st.booleans()))


class TestCodecProperty:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(s=point_sets())
    def test_emit_matches_reference_and_round_trips(self, s):
        text = pointset_to_json(s)
        assert text == reference_json(s)
        # with the parse's token table at its default size, and at a size
        # of 1, where every token after the first is converted past the cap
        for cap in (mixednorm._TOKEN_TABLE_SIZE, 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mixednorm, "_TOKEN_TABLE_SIZE", cap)
                t = pointset_from_json(text)
            # tobytes, not ==: -0.0 == 0.0, but the bytes keep the sign of zero
            assert (t.X.tobytes(), t.Y.tobytes()) == (s.X.tobytes(), s.Y.tobytes()), cap
            assert (t.a, t.b, t.lam, t.provenance, t.swapped) == (s.a, s.b, s.lam, s.provenance, s.swapped)
            assert pointset_to_json(t) == text, cap


class TestTokenTable:
    def test_equal_values_from_different_tokens(self):
        # each token is a key of its own, so -0 is not read from 0's entry
        text = (
            '{"a": 3, "b": 2, "lambda": 100, "swapped": false, "provenance": "", "points": ['
            '{"x": [100, 1e2, 100.0], "y": [0, -0]}, {"x": [1e2, 100.0, 100], "y": [-0, 0]}]}'
        )
        t = pointset_from_json(text)
        assert t.X.tolist() == [[100.0] * 3] * 2 and t.lam == 100.0
        assert np.signbit(t.Y).tolist() == [[False, True], [True, False]]

    def test_parse_peak_memory_and_what_it_keeps(self):
        # rows of shared floats: a list slot per coordinate, not a float
        s = construct(10, 300).point_set
        text = pointset_to_json(s)
        arrays = s.X.nbytes + s.Y.nbytes
        tracemalloc.start()
        try:
            t = pointset_from_json(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (t.X.tobytes(), t.Y.tobytes()) == (s.X.tobytes(), s.Y.tobytes())
        assert peak < 3 * arrays, (peak, arrays)
        # the table and the parsed rows are gone once the call returns
        assert kept - arrays < 64 * 1024, (kept, arrays)


def run_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def round_trip_digests(pairs, tmp_path) -> tuple[str, str]:
    """sha256 over the concatenated stdout of construct, and of verify,
    for each pair in order.  Every pair must construct and its set verify
    (exit 0), and every constructed set parses and re-emits to the same
    bytes."""
    path = tmp_path / "set.json"
    constructed, verified = hashlib.sha256(), hashlib.sha256()
    for a, b in pairs:
        rc, text = run_main(["construct", "--a", str(a), "--b", str(b)])
        assert rc == cli.EXIT_OK, (a, b)
        constructed.update(text.encode())
        assert pointset_to_json(pointset_from_json(text)) == text, (a, b)
        path.write_text(text)
        rc, text = run_main(["verify", "--in", str(path)])
        assert rc == cli.EXIT_OK, (a, b)
        verified.update(text.encode())
    return constructed.hexdigest(), verified.hexdigest()


class TestGoldenBytes:
    def test_every_pair_up_to_sixty(self, round_trips_up_to_sixty):
        # every pair with a + b <= 60 is feasible; the first that is not,
        # (28, 40), has a + b = 68.  The loop (tests/conftest.py) writes
        # through --out, which holds the bytes stdout would.
        trips = round_trips_up_to_sixty
        pairs = [(a, s - a) for s in range(2, 61) for a in range(1, s)]
        assert trips.pairs == pairs and len(pairs) == 1770
        results = zip(trips.construct_codes, trips.verify_codes, trips.reemits_identical)
        ok = (cli.EXIT_OK, cli.EXIT_OK, True)
        assert [pair for pair, r in zip(pairs, results) if r != ok] == []
        assert (trips.construct_sha256, trips.verify_sha256) == (
            "1a7a54f2fa1f5c9d47d1cbe4ea53a21e462b075949fc7f36bc14749171140a31",
            "5c37ad6a7b0092ba021b2a9182a533de0ab952e4d883ea4ad19fdd6c34d79400",
        )

    def test_wide_sets(self, tmp_path):
        pairs = [(10, 300), (300, 10), (150, 150), (25, 250), (19, 280), (1, 300), (300, 1)]
        assert round_trip_digests(pairs, tmp_path) == (
            "7277e6dc5c4d8dd2efc27eb97d4ac7db632b8a93bc43da3542ad06af6282dccf",
            "fd7cf7abdab5ca8aa907c5ff93be10ca1d22bf38a5c413e2892be930ea6c7c1d",
        )


class TestParserReuse:
    def test_calls_share_no_state(self, tmp_path):
        assert cli._build_parser() is cli._build_parser()
        path = tmp_path / "s.json"
        # the pair (0, 1) is 1e-3 off lambda
        path.write_text(
            '{"a": 1, "b": 1, "lambda": 1, "swapped": false, "provenance": "", '
            '"points": [{"x": [0], "y": [0]}, {"x": [1.001], "y": [0]}]}'
        )
        rc, text = run_main(["verify", "--in", str(path), "--rel-tol", "1e-2"])
        assert rc == cli.EXIT_OK and json.loads(text)["rel_tol"] == 1e-2
        rc, text = run_main(["check", "--a", "7", "--b", "3"])
        assert rc == cli.EXIT_OK and json.loads(text)["kind"] == "SwapAndRecurse"
        rc, text = run_main(["verify", "--in", str(path)])
        assert rc == cli.EXIT_VERIFY_FAIL and json.loads(text)["rel_tol"] == mixednorm.DEFAULT_REL_TOL
        assert run_main(["construct", "--a", "2"])[0] == cli.EXIT_USAGE
        rc, text = run_main(["construct", "--a", "2", "--b", "3"])
        assert rc == cli.EXIT_OK and len(json.loads(text)["points"]) == 6
