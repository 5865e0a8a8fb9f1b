"""Tests for simplex generation, circumradii and block embeddings."""

from fractions import Fraction

import numpy as np
import pytest

from equisum.geometry import circumradius_sq, place_in_block, regular_simplex


class TestCircumradiusSq:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, Fraction(0)), (1, Fraction(1, 4)), (3, Fraction(3, 8)), (10, Fraction(10, 22))],
    )
    def test_values(self, n, expected):
        assert circumradius_sq(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            circumradius_sq(-1)

    def test_increasing_and_bounded(self):
        # 1/4 <= d_n^2 < 1/2 for n >= 1, strictly increasing
        prev = Fraction(0)
        for n in range(1, 201):
            d2 = circumradius_sq(n)
            assert Fraction(1, 4) <= d2 < Fraction(1, 2)
            assert d2 > prev
            prev = d2


def simplex_postcondition_errors(verts: np.ndarray, side: float) -> tuple[float, float, float]:
    """Max relative errors of (pairwise side, centroid, vertex norm)."""
    m = verts.shape[0]
    d2 = float(circumradius_sq(m - 1))
    dist_err = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            dist_err = max(dist_err, abs(np.linalg.norm(verts[i] - verts[j]) - side))
    cent_err = float(np.max(np.abs(verts.sum(axis=0)))) if m > 1 else float(np.max(np.abs(verts)))
    norm_err = max(abs(np.linalg.norm(v) - side * d2**0.5) for v in verts)
    return dist_err / side, cent_err / side, norm_err / side


class TestRegularSimplex:
    def test_single_point(self):
        verts = regular_simplex(1, 1.0, 3)
        assert verts.shape == (1, 3)
        assert np.all(verts == 0.0)

    def test_two_points_on_a_line(self):
        verts = regular_simplex(2, 1.0, 1)
        assert sorted(verts[:, 0]) == pytest.approx([-0.5, 0.5], abs=1e-15)

    def test_tetrahedron_vertex_norms(self):
        verts = regular_simplex(4, 1.0, 3)
        expected = float(circumradius_sq(3)) ** 0.5  # sqrt(3/8)
        for v in verts:
            assert np.linalg.norm(v) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("m", [2, 3, 5, 10, 25, 50])
    @pytest.mark.parametrize("side", [1.0, 0.2928932188134525])
    def test_postconditions(self, m, side):
        verts = regular_simplex(m, side, m - 1)
        dist_err, cent_err, norm_err = simplex_postcondition_errors(verts, side)
        assert dist_err <= 1e-12
        assert cent_err <= 1e-12
        assert norm_err <= 1e-12

    def test_padding_leaves_exact_zeros(self):
        verts = regular_simplex(3, 1.0, 6)
        assert verts.shape == (3, 6)
        assert np.all(verts[:, 2:] == 0.0)

    def test_ambient_too_small_rejected(self):
        with pytest.raises(ValueError):
            regular_simplex(4, 1.0, 2)

    def test_deterministic(self):
        a = regular_simplex(7, 0.3, 9)
        b = regular_simplex(7, 0.3, 9)
        assert np.array_equal(a, b)


class TestPlaceInBlock:
    def test_place_examples(self):
        assert np.array_equal(place_in_block(np.array([1.0]), (1, 2), 0), [1.0, 0.0, 0.0])
        assert np.array_equal(place_in_block(np.array([2.0, 3.0]), (1, 2), 1), [0.0, 2.0, 3.0])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            place_in_block(np.array([1.0, 2.0]), (1, 2), 0)

    def test_distinct_blocks_exactly_orthogonal(self):
        dims = (3, 4, 2)
        u = place_in_block(np.array([0.1, -0.7, 0.3]), dims, 0)
        v = place_in_block(np.array([1.0, 2.0, 3.0, 4.0]), dims, 1)
        w = place_in_block(np.array([-5.0, 0.25]), dims, 2)
        assert float(u @ v) == 0.0
        assert float(u @ w) == 0.0
        assert float(v @ w) == 0.0
