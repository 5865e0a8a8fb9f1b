"""The array-backed point set on the construct -> verify path: row-block
verification against the all-pairs tensor, JSON shapes and signed zeros,
golden artifact digests, and a parser built once and reused."""

import contextlib
import hashlib
import io
import json
from random import Random

import numpy as np
import pytest

from equisum import cli, mixednorm
from equisum.constructions import construct_prop2
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


class TestRowBlockVerify:
    # budgets of 1 and 40 elements force one or a few rows per block;
    # the default takes each of these sets in a single block
    @pytest.mark.parametrize("budget", [1, 40, 300, mixednorm._BLOCK_ELEMENTS])
    def test_matches_full_tensor_on_random_sets(self, monkeypatch, budget):
        monkeypatch.setattr(mixednorm, "_BLOCK_ELEMENTS", budget)
        rng = Random(budget)
        for trial in range(60):
            n, a, b = rng.randint(0, 14), rng.randint(1, 12), rng.randint(1, 12)
            # small integer coordinates make many equal deviations (ties)
            s = random_set(rng, n, a, b, integer=trial % 2 == 0)
            assert verify_equilateral(s) == full_tensor_report(s), (n, a, b)

    @pytest.mark.parametrize("budget", [1, 2, 3, mixednorm._BLOCK_ELEMENTS])
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
    def test_every_pair_up_to_sixty(self, tmp_path):
        # every pair with a + b <= 60 is feasible; the first that is not,
        # (28, 40), has a + b = 68
        pairs = [(a, s - a) for s in range(2, 61) for a in range(1, s)]
        assert len(pairs) == 1770
        assert round_trip_digests(pairs, tmp_path) == (
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
