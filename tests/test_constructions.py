"""Tests for the three explicit equilateral-set constructions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from equisum.constructions import (
    InfeasibleConstructionError,
    construct,
    construct_prop1,
    construct_prop2,
)
from equisum.feasibility import VerdictKind, classify, derive_parameters, inequality_margin
from equisum.geometry import circumradius_sq
from equisum.mixednorm import pointset_to_json, verify_equilateral
from equisum.realnum import Enclosure, Sign, enclose_sqrt, sign_with_enclosure


def assert_equilateral(point_set, rel_tol=1e-9):
    report = verify_equilateral(point_set, rel_tol)
    assert report.passed, f"max deviation {report.max_abs_deviation} at {report.worst_pair}"
    return report


class TestProp1:
    def test_b1_exact_coordinates(self):
        ps = construct_prop1(1).point_set
        assert len(ps) == 3
        # simplex points (0, +-1/2) and the offset (1 - d_1, o) = (1/2, 0)
        values = sorted((float(x[0]), float(y[0])) for x, y in zip(ps.X, ps.Y))
        assert values == [(0.0, -0.5), (0.0, 0.5), (0.5, 0.0)]
        assert_equilateral(ps)

    @pytest.mark.parametrize("b", [1, 2, 3, 7, 20, 50])
    def test_sizes_and_equilaterality(self, b):
        ps = construct_prop1(b).point_set
        assert len(ps) == b + 2
        assert (ps.a, ps.b) == (1, b)
        assert_equilateral(ps)

    def test_invalid(self):
        with pytest.raises(ValueError):
            construct_prop1(0)


class TestProp2:
    @pytest.mark.parametrize("a", [2, 3, 5, 12, 30, 50])
    def test_sizes_and_equilaterality(self, a):
        ps = construct_prop2(a).point_set
        assert len(ps) == 2 * a + 1
        assert (ps.a, ps.b) == (a, a)
        assert_equilateral(ps)

    def test_cross_polytope_second_factor(self):
        ps = construct_prop2(3).point_set
        ys = ps.Y[:-1]  # all but the apex
        norms = np.linalg.norm(ys, axis=1)
        assert norms == pytest.approx(np.full(6, 0.5), abs=1e-15)

    def test_apex_radicand_positive_certified(self):
        # 1/4 - (3/2 - sqrt(2)) d_{a-1}^2 > 0 for a in [2, 200]; exact except
        # for a single sqrt(2) enclosure
        for a in range(2, 201):
            d2 = circumradius_sq(a - 1)

            def radicand(eps):
                s = enclose_sqrt(2, eps / 4)  # (1 - 1/sqrt(2))^2 = 3/2 - sqrt(2)
                side_sq = Enclosure.point(Fraction(3, 2)) - s
                return Enclosure.point(Fraction(1, 4)) - side_sq.scale(d2)

            assert sign_with_enclosure(radicand)[0] is Sign.POSITIVE

    def test_invalid(self):
        with pytest.raises(ValueError):
            construct_prop2(1)


class TestConstructTheorem:
    @pytest.mark.parametrize(
        "a,b,n",
        [(5, 8, 14), (2, 4, 7), (2, 5, 8), (2, 3, 6), (3, 7, 11), (9, 12, 22)],
    )
    def test_feasible_pairs(self, a, b, n):
        result = construct(a, b)
        assert len(result.point_set) == n == a + b + 1
        assert_equilateral(result.point_set)

    def test_infeasible_raises_with_verdict(self):
        with pytest.raises(InfeasibleConstructionError) as excinfo:
            construct(28, 40)
        assert excinfo.value.verdict.kind is VerdictKind.INEQUALITY_FAILS
        assert excinfo.value.verdict.margin.hi < 0

    def test_cross_simplex_distances_match_g(self):
        # for (5, 8): w-to-z distances in the first factor all equal g(2)
        result = construct(5, 8)
        p = result.parameters
        ws = [result.point_set.X[i * p.c] for i in range(p.alpha)]
        zs = [
            result.point_set.X[p.alpha * p.c + j * (p.c + 1)]
            for j in range(p.beta)
        ]
        g2 = 1.0 - math.sqrt(7.0 / 12.0)
        f1 = 1.0 - math.sqrt(1.0 / 2.0)
        f2 = 1.0 - math.sqrt(2.0 / 3.0)
        for w in ws:
            for z in zs:
                assert np.linalg.norm(w - z) == pytest.approx(g2, abs=1e-12)
        for i in range(len(ws)):
            for k in range(i + 1, len(ws)):
                assert np.linalg.norm(ws[i] - ws[k]) == pytest.approx(f1, abs=1e-12)
        for j in range(len(zs)):
            for k in range(j + 1, len(zs)):
                assert np.linalg.norm(zs[j] - zs[k]) == pytest.approx(f2, abs=1e-12)

    def test_zeta_matches_certified_margin(self):
        # binary64 zeta^2 agrees with the certified enclosure of
        # g^2 - d^2 f^2 - d^2 f^2 to 1e-12 in every feasible main case
        for a in range(2, 30):
            for b in range(a + 1, 61):
                p = derive_parameters(a, b)
                if not 2 <= p.beta <= a - 1:
                    continue
                verdict = classify(a, b)
                if verdict.kind is not VerdictKind.INEQUALITY_HOLDS:
                    continue
                result = construct(a, b)
                enc = inequality_margin(p, Fraction(1, 2**48))
                z2 = result.zeta**2
                assert float(enc.lo) - 1e-12 <= z2 <= float(enc.hi) + 1e-12

    def test_beta_one_and_beta_a_use_unified_formula(self):
        # the special-case branches must agree with the d_0 = 0 unification
        for a, b in [(2, 4), (4, 9), (2, 5), (3, 7), (5, 11)]:
            p = derive_parameters(a, b)
            assert p.beta in (1, a)
            result = construct(a, b)
            enc = inequality_margin(p, Fraction(1, 2**48))
            assert float(enc.lo) - 1e-12 <= result.zeta**2 <= float(enc.hi) + 1e-12


class TestConstructDispatch:
    @pytest.mark.parametrize(
        "a,b,n,swapped",
        [
            (1, 5, 7, False),
            (5, 1, 7, True),
            (6, 6, 13, False),
            (7, 3, 11, True),
            (5, 8, 14, False),
            (1, 1, 3, False),
        ],
    )
    def test_routes(self, a, b, n, swapped):
        result = construct(a, b)
        ps = result.point_set
        assert (ps.a, ps.b, len(ps), ps.swapped) == (a, b, n, swapped)
        assert_equilateral(ps)

    def test_infeasible_propagates(self):
        with pytest.raises(InfeasibleConstructionError):
            construct(28, 40)
        with pytest.raises(InfeasibleConstructionError):
            construct(40, 28)  # swapped orientation of the same pair

    def test_deterministic_bytes(self):
        a = pointset_to_json(construct(5, 8).point_set)
        b = pointset_to_json(construct(5, 8).point_set)
        assert a == b
