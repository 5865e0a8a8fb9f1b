"""Explicit equilateral sets of size a + b + 1 in E^a (+)_1 E^b.

Three constructions, all with unit target distance:

* a = 1: the b+1 vertices of a unit regular b-simplex in the second factor,
  plus (1 - d_b, o).
* a = b: a cross-polytope paired with a small regular simplex,
  {(v_i, +-e_i/2)}, plus an apex (t e_a, o).
* b > a >= 2: one regular simplex per orthogonal block of the second
  factor, with the block representatives w_i, z_j placed in the first
  factor at separations f(c-1), f(c) and cross separation g(c); the last
  E^1 coordinate carries the offset zeta that realises g(c).

Every builder is deterministic: identical inputs give identical coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .feasibility import FeasibilityVerdict, Parameters, VerdictKind, circumradius_sq, classify
from .geometry import regular_simplex
from .mixednorm import PointSet


class InfeasibleConstructionError(Exception):
    """The certified verdict rules out (or cannot certify) the construction."""

    def __init__(self, verdict: FeasibilityVerdict):
        self.verdict = verdict
        super().__init__(f"no construction for this pair: verdict {verdict.kind.value}")


@dataclass(frozen=True)
class ConstructionResult:
    point_set: PointSet
    zeta: float | None = None
    parameters: Parameters | None = None


def _f(n: int) -> float:
    return 1.0 - math.sqrt(n / (n + 1))


def _g(c: int) -> float:
    return 1.0 - math.sqrt(0.5 * ((c - 1) / c + c / (c + 1)))


def _d(n: int) -> float:
    return math.sqrt(float(circumradius_sq(n)))


def construct_prop1(b: int) -> ConstructionResult:
    """b + 2 equidistant points in E^1 (+)_1 E^b at distance 1."""
    if b < 1:
        raise ValueError(f"construct_prop1: b must be >= 1, got {b}")
    X = np.zeros((b + 2, 1))
    Y = np.zeros((b + 2, b))
    Y[: b + 1] = regular_simplex(b + 1, 1.0, b)
    X[b + 1, 0] = 1.0 - _d(b)
    ps = PointSet(a=1, b=b, lam=1.0, X=X, Y=Y, provenance=f"prop1(b={b})")
    return ConstructionResult(point_set=ps)


def construct_prop2(a: int) -> ConstructionResult:
    """2a + 1 equidistant points in E^a (+)_1 E^a at distance 1.

    The simplex occupies the first a-1 coordinates and the apex the a-th,
    so the apex is orthogonal to every v_i exactly, even in binary64.
    """
    if a < 2:
        raise ValueError(f"construct_prop2: a must be >= 2, got {a}")
    side = 1.0 - 1.0 / math.sqrt(2.0)
    X = np.zeros((2 * a + 1, a))
    Y = np.zeros((2 * a + 1, a))
    X[:a] = X[a : 2 * a] = regular_simplex(a, side, a)
    Y[:a] = 0.5 * np.eye(a)
    Y[a : 2 * a] = -Y[:a]  # the off-diagonal zeros become -0.0
    radicand = 0.25 - (side * _d(a - 1)) ** 2
    # positive for every a >= 2: (1 - 1/sqrt(2)) d_{a-1} < (1 - 1/sqrt(2))/sqrt(2) < 1/2
    X[2 * a, a - 1] = math.sqrt(radicand)
    ps = PointSet(a=a, b=a, lam=1.0, X=X, Y=Y, provenance=f"prop2(a={a})")
    return ConstructionResult(point_set=ps)


def _second_factor_rows(p: Parameters, Y: np.ndarray) -> None:
    """Write the per-block unit simplices of E^b into Y: alpha blocks of
    dim c-1 carrying c vertices each, then beta blocks of dim c carrying
    c+1, each block in its own rows and columns."""
    c = p.c
    row = col = 0
    for count, verts in ((p.alpha, c), (p.beta, c + 1)):
        simplex = regular_simplex(verts, 1.0, verts - 1) if count else None
        for _ in range(count):
            Y[row : row + verts, col : col + verts - 1] = simplex
            row += verts
            col += verts - 1


def _first_factor_points(p: Parameters) -> tuple[np.ndarray, np.ndarray, float | None]:
    """The w_i and z_j in E^a as the rows of two arrays; returns (ws, zs, zeta).

    beta = 1 takes the main case: its z-simplex is a single point, d_0^2 is
    0 and its term subtracts an exact 0.0.  beta = a puts zeta on the w side.
    """
    a, c, alpha, beta = p.a, p.c, p.alpha, p.beta
    if beta == 0:
        return regular_simplex(alpha, _f(c - 1), a), np.zeros((0, a)), None
    if beta == a:
        zs = regular_simplex(a, _f(c), a)
        zeta = math.sqrt(_g(c) ** 2 - float(circumradius_sq(a - 1)) * _f(c) ** 2)
        ws = np.zeros((1, a))
        ws[0, a - 1] = zeta
        return ws, zs, zeta
    # main case 1 <= beta <= a-1: E^a = E^{alpha-1} (+) E^{beta-1} (+) E^1
    ws = regular_simplex(alpha, _f(c - 1), a)
    radicand = (
        _g(c) ** 2
        - float(circumradius_sq(alpha - 1)) * _f(c - 1) ** 2
        - float(circumradius_sq(beta - 1)) * _f(c) ** 2
    )
    if radicand < 0:
        raise ValueError(f"zeta radicand negative ({radicand}) despite a holding verdict")
    zeta = math.sqrt(radicand)
    zs = np.zeros((beta, a))
    zs[:, alpha - 1 : a - 1] = regular_simplex(beta, _f(c), beta - 1)
    zs[:, a - 1] = zeta
    return ws, zs, zeta


def _build_theorem(a: int, b: int, verdict: FeasibilityVerdict) -> ConstructionResult:
    """The block construction for b > a >= 2 under the verdict of (a, b)."""
    if verdict.kind not in (VerdictKind.BETA_TRIVIAL, VerdictKind.INEQUALITY_HOLDS):
        raise InfeasibleConstructionError(verdict)
    p = verdict.params  # classify sets it for both verdicts

    ws, zs, zeta = _first_factor_points(p)
    X = np.concatenate([np.repeat(ws, p.c, axis=0), np.repeat(zs, p.c + 1, axis=0)])
    Y = np.zeros((a + b + 1, b))
    _second_factor_rows(p, Y)
    provenance = (
        f"theorem(a={a},b={b},c={p.c},alpha={p.alpha},beta={p.beta})"
    )
    ps = PointSet(a=a, b=b, lam=1.0, X=X, Y=Y, provenance=provenance)
    return ConstructionResult(point_set=ps, zeta=zeta, parameters=p)


def _swap(result: ConstructionResult) -> ConstructionResult:
    ps = result.point_set
    swapped = PointSet(
        a=ps.b,
        b=ps.a,
        lam=ps.lam,
        X=ps.Y,
        Y=ps.X,
        provenance=ps.provenance,
        swapped=not ps.swapped,
    )
    return ConstructionResult(point_set=swapped, zeta=result.zeta, parameters=result.parameters)


def construct(a: int, b: int) -> ConstructionResult:
    """Build an equilateral set of size a + b + 1 for any feasible pair.

    For a > b the set is built for (b, a) and the two components of every
    point are exchanged, with `swapped` set; otherwise it dispatches on the
    verdict of (a, b).
    """
    if a > b:
        return _swap(construct(b, a))
    verdict = classify(a, b)
    if verdict.kind is VerdictKind.PROP1:
        return construct_prop1(b)
    if verdict.kind is VerdictKind.PROP2:
        return construct_prop2(a)
    return _build_theorem(a, b, verdict)
