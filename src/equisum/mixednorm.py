"""The mixed-norm space E^a (+)_1 E^b and equilateral-set verification.

A point is a pair (x, y) in R^a x R^b and the norm of (x, y) is
||x||_2 + ||y||_2.  A PointSet stores its n points as two float64 arrays,
X (n x a) and Y (n x b), one row per point; constructions write them in
column blocks and verification and JSON read them whole.

Verification is tolerance-based in binary64: the constructions are
closed-form, so honest outputs deviate from the target distance by ~1e-15
while any logic error yields deviations many orders of magnitude larger.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_REL_TOL = 1e-9


class PointSet:
    """A labelled finite set of n mixed points with a target distance lam.

    Point i is (X[i], Y[i]): X is an (n, a) and Y an (n, b) float64 array.
    `swapped` records that the user's (a, b) were exchanged to reach the
    canonical orientation the construction works in.
    """

    def __init__(
        self,
        a: int,
        b: int,
        lam: float,
        X: np.ndarray,
        Y: np.ndarray,
        provenance: str = "",
        swapped: bool = False,
    ) -> None:
        if a < 1 or b < 1:
            raise ValueError(f"PointSet: dimensions must be positive, got a={a} b={b}")
        if not 0 < lam < math.inf:
            raise ValueError(f"PointSet: lambda must be positive and finite, got {lam}")
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
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


def _stack(rows: list, dim: int) -> np.ndarray:
    """JSON rows of equal length as an (n, len) float64 array; (0, dim) when
    there are none.  The dtype is the one numpy infers from the values, so a
    string, null or all-boolean row is rejected without a loop over the
    coordinates.  Rows of unequal length raise ValueError."""
    if not rows:
        return np.empty((0, dim))
    arr = np.array(rows)
    if arr.dtype != np.float64:
        raise ValueError("point set JSON: coordinates must be numbers")
    return arr


@dataclass(frozen=True)
class VerificationReport:
    n_points: int
    n_pairs: int
    lam: float
    rel_tol: float
    max_abs_deviation: float
    worst_pair: tuple[int, int] | None
    passed: bool


def mixed_distance(p: tuple[np.ndarray, np.ndarray], q: tuple[np.ndarray, np.ndarray]) -> float:
    """||px - qx||_2 + ||py - qy||_2 for points p = (px, py) and q = (qx, qy)
    given as pairs of 1-d vectors, such as (s.X[i], s.Y[i])."""
    px, py, qx, qy = (np.asarray(v, dtype=float) for v in (*p, *q))
    if px.ndim != 1 or py.ndim != 1 or px.shape != qx.shape or py.shape != qy.shape:
        raise ValueError("mixed_distance: dimension mismatch")
    return float(np.linalg.norm(px - qx) + np.linalg.norm(py - qy))


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
    if not 0 < rel_tol < math.inf:
        raise ValueError(f"verify_equilateral: rel_tol must be positive and finite, got {rel_tol}")
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


def pointset_to_json(s: PointSet) -> str:
    """Serialize a PointSet; deterministic bytes for identical inputs."""
    head = (
        f'{{"a": {s.a}, "b": {s.b}, "lambda": {"%.17g" % s.lam}, '
        f'"swapped": {json.dumps(s.swapped)}, "provenance": {json.dumps(s.provenance)}, "points": ['
    )
    # 17 significant digits round-trip binary64 exactly.  One "%.17g" per
    # coordinate, one formatting call per point.  Each value is formatted on
    # its own, so -0.0 prints as -0: a lookup keyed on the value would not
    # tell it from 0.0.
    point = '{"x": [%s], "y": [%s]}' % (", ".join(["%.17g"] * s.a), ", ".join(["%.17g"] * s.b))
    body = ",\n  ".join([point % tuple(row) for row in np.hstack([s.X, s.Y]).tolist()])
    return head + "\n  " + body + "\n]}\n"


def _reject_constant(token: str) -> None:
    raise ValueError(f"non-finite number {token} in point set JSON")


# every JSON number is read as a float
_FIELD_TYPES = {"a": float, "b": float, "lambda": float, "swapped": bool, "provenance": str}


def pointset_from_json(text: str) -> PointSet:
    """Parse the PointSet JSON format; raises ValueError on schema problems.

    Python's json module accepts the non-standard tokens NaN, Infinity and
    -Infinity; a point set never contains them, so they are rejected here.
    Every number is read as a float, so -0 keeps its sign and the set
    round-trips byte for byte.  a and b must be integral numbers >= 1,
    lambda a number, swapped a boolean and provenance a string.  A literal
    that overflows binary64, such as 1e999, reads as infinity and is
    rejected by PointSet, as are rows of the wrong or unequal lengths.
    """
    try:
        obj = json.loads(text, parse_int=float, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("point set JSON must be an object")
    try:
        for name, kind in _FIELD_TYPES.items():
            # type(), not isinstance: a JSON boolean is not a number
            if type(obj[name]) is not kind:
                raise ValueError(f"point set JSON: {name!r} must be a {kind.__name__}")
        a, b = obj["a"], obj["b"]
        if not (a.is_integer() and b.is_integer() and min(a, b) >= 1):
            raise ValueError("point set JSON: 'a' and 'b' must be integers >= 1")
        a, b = int(a), int(b)
        X = _stack([p["x"] for p in obj["points"]], a)
        Y = _stack([p["y"] for p in obj["points"]], b)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed point set JSON: {exc}") from exc
    return PointSet(a, b, obj["lambda"], X, Y, obj["provenance"], obj["swapped"])
