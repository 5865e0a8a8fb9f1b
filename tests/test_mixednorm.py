"""Tests for the mixed-norm distance, verification and serialization."""

from random import Random

import numpy as np
import pytest

from equisum.mixednorm import (
    PointSet,
    mixed_distance,
    pointset_from_json,
    pointset_to_json,
    verify_equilateral,
)


def mp(x, y):
    return np.array(x, dtype=float), np.array(y, dtype=float)


def point_set(a, b, lam, pts, provenance):
    return PointSet(
        a=a, b=b, lam=lam, X=[p[0] for p in pts], Y=[p[1] for p in pts], provenance=provenance
    )


# Prop 1 instance for b = 1, hand-checked: all three pairwise distances are 1.
PROP1_B1 = [mp([0.0], [-0.5]), mp([0.0], [0.5]), mp([0.5], [0.0])]


class TestMixedDistance:
    @pytest.mark.parametrize(
        "p,q,expected",
        [
            (mp([0], [0, 0]), mp([1], [0, 0]), 1.0),
            (mp([0], [3, 4]), mp([0], [0, 0]), 5.0),
            (mp([1], [3, 4]), mp([0], [0, 0]), 6.0),
        ],
    )
    def test_examples(self, p, q, expected):
        assert mixed_distance(p, q) == pytest.approx(expected, abs=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            mixed_distance(mp([0], [0]), mp([0, 0], [0]))

    def test_symmetry_exact(self):
        rng = Random(7)
        for _ in range(200):
            p = mp([rng.uniform(-5, 5) for _ in range(3)], [rng.uniform(-5, 5) for _ in range(4)])
            q = mp([rng.uniform(-5, 5) for _ in range(3)], [rng.uniform(-5, 5) for _ in range(4)])
            assert mixed_distance(p, q) == mixed_distance(q, p)

    def test_triangle_inequality(self):
        rng = Random(11)
        for _ in range(500):
            pts = [
                mp([rng.uniform(-3, 3) for _ in range(2)], [rng.uniform(-3, 3) for _ in range(3)])
                for _ in range(3)
            ]
            d01 = mixed_distance(pts[0], pts[1])
            d12 = mixed_distance(pts[1], pts[2])
            d02 = mixed_distance(pts[0], pts[2])
            assert d02 <= d01 + d12 + 1e-12

    def test_positive_homogeneity(self):
        rng = Random(13)
        for _ in range(200):
            x = [rng.uniform(-2, 2) for _ in range(3)]
            y = [rng.uniform(-2, 2) for _ in range(2)]
            t = rng.uniform(0.01, 100.0)
            p, q = mp(x, y), mp([0, 0, 0], [0, 0])
            scaled = mp([t * v for v in x], [t * v for v in y])
            assert mixed_distance(scaled, q) == pytest.approx(t * mixed_distance(p, q), rel=1e-12)


class TestVerifyEquilateral:
    def test_prop1_b1_passes(self):
        s = point_set(1, 1, 1.0, PROP1_B1, "hand")
        report = verify_equilateral(s, 1e-9)
        assert report.passed
        assert report.n_pairs == 3
        assert report.max_abs_deviation <= 1e-15

    def test_any_two_points_pass(self):
        pts = [mp([0.3], [1.0, 2.0]), mp([-1.0], [0.0, 0.5])]
        lam = mixed_distance(pts[0], pts[1])
        s = point_set(1, 2, lam, pts, "pair")
        assert verify_equilateral(s, 1e-9).passed

    def test_corruption_detected(self):
        pts = [mp(x.copy(), y.copy()) for x, y in PROP1_B1]
        pts[1] = mp([0.0], [0.5 + 1e-3])
        s = point_set(1, 1, 1.0, pts, "corrupt")
        report = verify_equilateral(s, 1e-9)
        assert not report.passed
        assert report.max_abs_deviation > 1e-4
        assert report.worst_pair is not None

    def test_vacuous_single_point(self):
        s = point_set(1, 1, 1.0, [mp([0.0], [0.0])], "one")
        report = verify_equilateral(s, 1e-9)
        assert report.passed and report.n_pairs == 0 and report.worst_pair is None

    def test_worst_pair_tie_breaks_to_smallest(self):
        # all distances deviate equally; the first pair (0, 1) must be reported
        pts = [mp([0.0], [0.0]), mp([1.0], [0.0]), mp([0.0], [1.0])]
        s = point_set(1, 1, 2.0, pts, "tie")
        report = verify_equilateral(s, 1e-9)
        assert report.worst_pair == (0, 1)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            point_set(2, 1, 1.0, PROP1_B1, "bad")


class TestJson:
    def make_set(self):
        return point_set(1, 1, 1.0, PROP1_B1, "prop1(b=1)")

    def test_round_trip_bytes(self):
        s = self.make_set()
        text = pointset_to_json(s)
        again = pointset_to_json(pointset_from_json(text))
        assert text == again

    def test_round_trip_values(self):
        s = self.make_set()
        t = pointset_from_json(pointset_to_json(s))
        assert (t.a, t.b, t.lam, t.swapped, t.provenance) == (1, 1, 1.0, False, "prop1(b=1)")
        assert np.array_equal(s.X, t.X) and np.array_equal(s.Y, t.Y)

    def test_seventeen_digit_floats_survive(self):
        ugly = 1.0 - (2.0 / 3.0) ** 0.5
        s = point_set(1, 1, ugly, [mp([ugly], [-ugly])], "ugly")
        t = pointset_from_json(pointset_to_json(s))
        assert t.lam == ugly
        assert t.X[0, 0] == ugly

    def test_field_order(self):
        text = pointset_to_json(self.make_set())
        head = text.split("[", 1)[0]
        keys = ["\"a\"", "\"b\"", "\"lambda\"", "\"swapped\"", "\"provenance\"", "\"points\""]
        positions = [head.index(k) for k in keys]
        assert positions == sorted(positions)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            pointset_from_json("not json at all {")
        with pytest.raises(ValueError):
            pointset_from_json("{\"a\": 1}")
