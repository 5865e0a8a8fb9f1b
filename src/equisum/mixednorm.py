"""The mixed-norm space E^a (+)_1 E^b and equilateral-set verification.

A point is a pair (x, y) in R^a x R^b and the norm of (x, y) is
||x||_2 + ||y||_2.  Verification is tolerance-based in binary64: the
constructions are closed-form, so honest outputs deviate from the target
distance by ~1e-15 while any logic error yields deviations many orders of
magnitude larger.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

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


@dataclass(eq=False)
class PointSet:
    """A labelled finite set of mixed points with a target distance lam.

    `swapped` records that the user's (a, b) were exchanged to reach the
    canonical orientation the construction works in.
    """

    a: int
    b: int
    lam: float
    points: list[MixedPoint] = field(default_factory=list)
    provenance: str = ""
    swapped: bool = False

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise ValueError(f"PointSet: dimensions must be positive, got a={self.a} b={self.b}")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"PointSet: lambda must be positive and finite, got {self.lam}")
        for p in self.points:
            if p.x.shape != (self.a,) or p.y.shape != (self.b,):
                raise ValueError(
                    f"PointSet: point dims {p.x.shape}/{p.y.shape} do not match (a={self.a}, b={self.b})"
                )

    def __len__(self) -> int:
        return len(self.points)

    def xs(self) -> np.ndarray:
        return np.array([p.x for p in self.points]).reshape(len(self.points), self.a)

    def ys(self) -> np.ndarray:
        return np.array([p.y for p in self.points]).reshape(len(self.points), self.b)


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


def verify_equilateral(s: PointSet, rel_tol: float = DEFAULT_REL_TOL) -> VerificationReport:
    """Check every pairwise distance against the declared lam.

    Deviation is measured against the declared target, not the empirical
    mean.  The worst pair is the maximum deviation, ties broken by smallest
    (i, j); with fewer than two points the check passes vacuously.
    """
    if not rel_tol > 0:
        raise ValueError(f"verify_equilateral: rel_tol must be positive, got {rel_tol}")
    n = len(s.points)
    if n < 2:
        return VerificationReport(n, 0, s.lam, rel_tol, 0.0, None, True)

    xs, ys = s.xs(), s.ys()
    dist = np.linalg.norm(xs[:, None, :] - xs[None, :, :], axis=2)
    dist += np.linalg.norm(ys[:, None, :] - ys[None, :, :], axis=2)
    iu, ju = np.triu_indices(n, k=1)
    dev = np.abs(dist[iu, ju] - s.lam)
    # argmax returns the first maximum; (iu, ju) is in lexicographic order.
    k = int(np.argmax(dev))
    max_dev = float(dev[k])
    return VerificationReport(
        n_points=n,
        n_pairs=len(dev),
        lam=s.lam,
        rel_tol=rel_tol,
        max_abs_deviation=max_dev,
        worst_pair=(int(iu[k]), int(ju[k])),
        passed=bool(max_dev <= rel_tol * s.lam),
    )


def _fmt(v: float) -> str:
    # 17 significant digits round-trip binary64 exactly.
    return "%.17g" % float(v)


def _fmt_vec(vec: Iterable[float]) -> str:
    return "[" + ", ".join(_fmt(v) for v in vec) + "]"


def pointset_to_json(s: PointSet) -> str:
    """Serialize a PointSet; deterministic bytes for identical inputs."""
    head = (
        f'{{"a": {s.a}, "b": {s.b}, "lambda": {_fmt(s.lam)}, '
        f'"swapped": {json.dumps(s.swapped)}, "provenance": {json.dumps(s.provenance)}, "points": ['
    )
    body = ",\n  ".join(
        f'{{"x": {_fmt_vec(p.x)}, "y": {_fmt_vec(p.y)}}}' for p in s.points
    )
    return head + "\n  " + body + "\n]}\n"


def _reject_constant(token: str) -> None:
    raise ValueError(f"non-finite number {token} in point set JSON")


def pointset_from_json(text: str) -> PointSet:
    """Parse the PointSet JSON format; raises ValueError on schema problems.

    Python's json module accepts the non-standard tokens NaN, Infinity and
    -Infinity; a point set never contains them, so they are rejected here.
    """
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
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
        points = [
            MixedPoint(np.array(p["x"], dtype=float), np.array(p["y"], dtype=float))
            for p in raw_points
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed point set JSON: {exc}") from exc
    return PointSet(a=a, b=b, lam=lam, points=points, provenance=provenance, swapped=swapped)
