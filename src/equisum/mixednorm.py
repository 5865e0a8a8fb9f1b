"""The mixed-norm space E^a (+)_1 E^b and equilateral-set verification.

A point is a pair (x, y) in R^a x R^b and the norm of (x, y) is
||x||_2 + ||y||_2.  A PointSet stores its n points as two float64 arrays,
X (n x a) and Y (n x b), one row per point; constructions write them in
column blocks and verification and JSON read them whole.  MixedPoint is a
single point, for hand-built sets and `mixed_distance`.

Verification is tolerance-based in binary64: the constructions are
closed-form, so honest outputs deviate from the target distance by ~1e-15
while any logic error yields deviations many orders of magnitude larger.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MixedPoint:
    """A point (x, y) of E^a (+)_1 E^b."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.ndim != 1 or self.y.ndim != 1:
            raise ValueError("MixedPoint components must be 1-d vectors")


class PointSet:
    """A labelled finite set of n mixed points with a target distance lam.

    Point i is (X[i], Y[i]): X is an (n, a) and Y an (n, b) float64 array.
    `points=` builds the arrays from a list of MixedPoint instead, and the
    `points` property hands the rows back as MixedPoint views.  `swapped`
    records that the user's (a, b) were exchanged to reach the canonical
    orientation the construction works in.
    """

    def __init__(
        self,
        a: int,
        b: int,
        lam: float,
        X: np.ndarray | None = None,
        Y: np.ndarray | None = None,
        provenance: str = "",
        swapped: bool = False,
        *,
        points: Sequence[MixedPoint] | None = None,
    ) -> None:
        if a < 1 or b < 1:
            raise ValueError(f"PointSet: dimensions must be positive, got a={a} b={b}")
        if not 0 < lam < math.inf:
            raise ValueError(f"PointSet: lambda must be positive and finite, got {lam}")
        if points is not None:
            if X is not None or Y is not None:
                raise ValueError("PointSet: give either points or X and Y")
            X = _stack([p.x for p in points], a)
            Y = _stack([p.y for p in points], b)
        X = np.empty((0, a)) if X is None else np.asarray(X, dtype=float)
        Y = np.empty((0, b)) if Y is None else np.asarray(Y, dtype=float)
        if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != a or Y.shape != (len(X), b):
            raise ValueError(
                f"PointSet: coordinate arrays {X.shape}/{Y.shape} do not match (a={a}, b={b})"
            )
        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            raise ValueError("PointSet: coordinates must be finite")
        self.a, self.b, self.lam = a, b, lam
        self.X, self.Y = X, Y
        self.provenance, self.swapped = provenance, swapped

    def __len__(self) -> int:
        return len(self.X)

    @property
    def points(self) -> list[MixedPoint]:
        return [MixedPoint(x, y) for x, y in zip(self.X, self.Y)]

    def xs(self) -> np.ndarray:
        return self.X

    def ys(self) -> np.ndarray:
        return self.Y


def _stack(rows: list, dim: int) -> np.ndarray:
    """Rows of equal length as an (n, len) array; (0, dim) when there are none.
    Rows of unequal length raise ValueError."""
    return np.array(rows, dtype=float) if len(rows) else np.empty((0, dim))


@dataclass(frozen=True)
class VerificationReport:
    n_points: int
    n_pairs: int
    lam: float
    rel_tol: float
    max_abs_deviation: float
    worst_pair: tuple[int, int] | None
    passed: bool


def mixed_distance(p: MixedPoint, q: MixedPoint) -> float:
    """||p.x - q.x||_2 + ||p.y - q.y||_2."""
    if p.x.shape != q.x.shape or p.y.shape != q.y.shape:
        raise ValueError("mixed_distance: dimension mismatch")
    return float(np.linalg.norm(p.x - q.x) + np.linalg.norm(p.y - q.y))


# Rows of the distance matrix computed together hold at most about this many
# coordinate differences per factor: verify's memory is O(n * rows * (a+b)),
# not the n x n x (a+b) of all pairs at once.
_BLOCK_ELEMENTS = 1 << 20


def verify_equilateral(s: PointSet, rel_tol: float = DEFAULT_REL_TOL) -> VerificationReport:
    """Check every pairwise distance against the declared lam.

    Deviation is measured against the declared target, not the empirical
    mean.  The worst pair is the maximum deviation, ties broken by smallest
    (i, j); with fewer than two points the check passes vacuously.
    Distances are computed a block of rows at a time, each distance by the
    same numpy operations as over the whole n x n matrix, so they are the
    same bits whatever the block size.
    """
    if not rel_tol > 0:
        raise ValueError(f"verify_equilateral: rel_tol must be positive, got {rel_tol}")
    n = len(s)
    if n < 2:
        return VerificationReport(n, 0, s.lam, rel_tol, 0.0, None, True)

    X, Y = s.X, s.Y
    rows = max(1, _BLOCK_ELEMENTS // (n * max(s.a, s.b)))
    max_dev, worst_pair = -1.0, None
    for i0 in range(0, n - 1, rows):
        i1 = min(i0 + rows, n - 1)
        # entry (r, k) is the pair (i0 + r, i0 + 1 + k)
        dist = np.linalg.norm(X[i0:i1, None, :] - X[None, i0 + 1 :, :], axis=2)
        dist += np.linalg.norm(Y[i0:i1, None, :] - Y[None, i0 + 1 :, :], axis=2)
        dev = np.abs(dist - s.lam)
        dev[np.tril_indices(i1 - i0, -1, n - i0 - 1)] = -1.0  # j <= i: not a pair
        # argmax returns the first maximum in row-major, i.e. lexicographic
        # (i, j), order; across blocks only a strictly larger one replaces it
        r, k = divmod(int(np.argmax(dev)), dev.shape[1])
        if dev[r, k] > max_dev:
            max_dev, worst_pair = float(dev[r, k]), (i0 + r, i0 + 1 + k)
    return VerificationReport(
        n_points=n,
        n_pairs=n * (n - 1) // 2,
        lam=s.lam,
        rel_tol=rel_tol,
        max_abs_deviation=max_dev,
        worst_pair=worst_pair,
        passed=bool(max_dev <= rel_tol * s.lam),
    )


def _fmt(v: float) -> str:
    # 17 significant digits round-trip binary64 exactly.
    return "%.17g" % float(v)


def pointset_to_json(s: PointSet) -> str:
    """Serialize a PointSet; deterministic bytes for identical inputs."""
    head = (
        f'{{"a": {s.a}, "b": {s.b}, "lambda": {_fmt(s.lam)}, '
        f'"swapped": {json.dumps(s.swapped)}, "provenance": {json.dumps(s.provenance)}, "points": ['
    )
    # One "%.17g" per coordinate, one formatting call per point.  Each value
    # is formatted on its own, so -0.0 prints as -0: a lookup keyed on the
    # value would not tell it from 0.0.
    point = '{"x": [%s], "y": [%s]}' % (", ".join(["%.17g"] * s.a), ", ".join(["%.17g"] * s.b))
    body = ",\n  ".join([point % tuple(row) for row in np.hstack([s.X, s.Y]).tolist()])
    return head + "\n  " + body + "\n]}\n"


def _reject_constant(token: str) -> None:
    raise ValueError(f"non-finite number {token} in point set JSON")


def pointset_from_json(text: str) -> PointSet:
    """Parse the PointSet JSON format; raises ValueError on schema problems.

    Python's json module accepts the non-standard tokens NaN, Infinity and
    -Infinity; a point set never contains them, so they are rejected here.
    Every number is read as a float, so -0 keeps its sign and the set
    round-trips byte for byte.  A literal that overflows binary64, such as
    1e999, reads as infinity and is rejected by PointSet, as are rows of the
    wrong or unequal lengths.
    """
    try:
        obj = json.loads(text, parse_int=float, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("point set JSON must be an object")
    try:
        a = int(obj["a"])
        b = int(obj["b"])
        lam = float(obj["lambda"])
        swapped = bool(obj["swapped"])
        provenance = str(obj["provenance"])
        raw_points = obj["points"]
        X = _stack([p["x"] for p in raw_points], a)
        Y = _stack([p["y"] for p in raw_points], b)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed point set JSON: {exc}") from exc
    return PointSet(a=a, b=b, lam=lam, X=X, Y=Y, provenance=provenance, swapped=swapped)
