"""The mixed-norm space E^a (+)_1 E^b and equilateral-set verification.

A point is a pair (x, y) in R^a x R^b and the norm of (x, y) is
||x||_2 + ||y||_2.  A PointSet stores its n points as two float64 arrays,
X (n x a) and Y (n x b), one row per point; constructions write them in
column blocks and verification and JSON read them whole.

Verification is tolerance-based in binary64: the constructions are
closed-form, so honest outputs deviate from the target distance by ~1e-15
while any logic error yields deviations many orders of magnitude larger.
It enumerates the pairs as a cyclic band, each pair once (twice at the
half offset of an even n), and reads both ends of a pair through a strided
view of each factor.  The band's rows go in chunks, one factor at a time,
each factor in blocks sized from its own width, and a row wider than a
block is cut along the offsets; so its memory is O(n * (a+b)) plus one
cache-sized block of differences and the distances of one chunk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

DEFAULT_REL_TOL = 1e-9
# The largest coordinate magnitude of a PointSet: a squared difference is at
# most 4e300, and a sum of the at most 2^24 of them in 32 MiB of JSON stays
# finite, so no distance overflows and a verify report holds no Infinity.
MAX_COORDINATE = 1e150
# The largest a or b a point set's JSON may declare: a number and its
# separator take at least 2 bytes, so no row in 32 MiB holds more numbers.
MAX_DIMENSION = 2**24


class PointSet:
    """A labelled finite set of n mixed points with a target distance lam.

    Point i is (X[i], Y[i]): X is an (n, a) and Y an (n, b) float64 array,
    every coordinate finite and at most MAX_COORDINATE in magnitude.
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
        # NaN fails both comparisons; initial=0.0 admits a set of no points
        if not all(-MAX_COORDINATE <= M.min(initial=0.0) and M.max(initial=0.0) <= MAX_COORDINATE for M in (X, Y)):
            raise ValueError("PointSet: coordinates must be finite and at most 1e150 in magnitude")
        self.a, self.b, self.lam = a, b, lam
        self.X, self.Y = X, Y
        self.provenance, self.swapped = provenance, swapped

    def __len__(self) -> int:
        return len(self.X)


def _stack(rows: list, dim: int) -> np.ndarray:
    """JSON rows of equal length as an (n, len) float64 array; (0, dim) when
    there are none.  The dtype is the one numpy infers from the values, so a
    string, null or all-boolean row is rejected without a loop over the
    coordinates.  Rows of unequal length, and a nested or a scalar row among
    lists, raise ValueError in those words, not numpy's."""
    if not rows:
        return np.empty((0, dim))
    try:
        arr = np.array(rows)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ValueError("point set JSON: coordinate rows must be lists of numbers of equal length") from None
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


# Each block holds at most about this many coordinate differences of one
# factor: 2^16 float64 is 0.5 MB, so a block stays in cache.  verify's memory
# is O(n * (a+b)) for the bands plus one such block and two arrays of one
# chunk's distances, an eighth of a block each, not the n x n x (a+b) of all
# pairs.
_BLOCK_ELEMENTS = 1 << 16


def _block_shape(h: int, m: int, rows: int) -> tuple[int, int]:
    """(rows, offsets) of a block of a factor of width m, out of a chunk of
    `rows` band rows of h offsets: the chunk's rows in the fewest even runs
    of whole rows that fit _BLOCK_ELEMENTS, or else one row cut into the
    fewest even spans of offsets that fit (one offset at the least).  Even
    runs keep the scratch, the largest block, no larger than it must be."""
    if h * m <= _BLOCK_ELEMENTS:
        blocks = -(-rows // (_BLOCK_ELEMENTS // (h * m)))
        return -(-rows // blocks), h
    spans = -(-h // max(1, _BLOCK_ELEMENTS // m))
    return 1, -(-h // spans)


def verify_equilateral(s: PointSet, rel_tol: float = DEFAULT_REL_TOL) -> VerificationReport:
    """Check every pairwise distance against the declared lam.

    Deviation is measured against the declared target, not the empirical
    mean.  The worst pair is the maximum deviation, ties broken by smallest
    (i, j); with fewer than two points the check passes vacuously.

    The pairs are enumerated as a cyclic band: every pair {i, j} is
    (i, (i + k) mod n) for one k in 1..n//2, so row i of the band holds the
    differences M[i] - M[(i + k) mod n] of each factor M, read through a
    strided view without gathers.  For even n the pairs at k = n/2 appear
    twice, once from each end, with the same bits.  A difference that wraps
    has its sign flipped, which squaring removes, and each norm is the
    contiguous last-axis reduction np.linalg.norm makes over the n x n
    tensor, so every distance has the same bits whatever the block size.

    The band's rows go a chunk at a time, one factor at a time: the first
    factor's norms are written into the chunk's distances and the second's
    added, nX + nY having the bits of (0 + nX) + nY.  Each factor goes in
    blocks sized from its own width (_block_shape); a row wider than a
    block is cut along k, which leaves each pair's reduction over the
    coordinates whole.  The deviation, its maximum and the tie key are then
    computed once per chunk.
    """
    if not 0 < rel_tol < math.inf:
        raise ValueError(f"verify_equilateral: rel_tol must be positive and finite, got {rel_tol}")
    n = len(s)
    if n < 2:
        return VerificationReport(n, 0, s.lam, rel_tol, 0.0, None, True)

    h = n // 2
    bands = []
    for M in (s.X, s.Y):
        # W[i, k - 1] = M2[i + k] = M[(i + k) mod n]: an (n, h, m) view of
        # overlapping rows of M2, which is M with its first h rows appended
        M2 = np.concatenate([M, M[:h]])
        step, item = M2.strides
        bands.append((M, np.ndarray((n, h, M.shape[1]), M2.dtype, M2, step, (step, step, item))))
    # each of a chunk's two arrays of distances is at most an eighth of a block
    rows = min(max(1, _BLOCK_ELEMENTS // (8 * h)), n)
    shapes = [_block_shape(h, m, rows) for m in (s.a, s.b)]
    buf = np.empty(2 * rows * h + max(r * k * m for (r, k), m in zip(shapes, (s.a, s.b))))
    dists, scratch = buf[: 2 * rows * h].reshape(2, rows, h), buf[2 * rows * h :]
    max_dev, worst = -1.0, 0
    for c0 in range(0, n, rows):
        c1 = min(c0 + rows, n)
        DN = dists[:, : c1 - c0]
        D, N = DN
        for out, (M, W), (block_rows, offsets) in zip(DN, bands, shapes):
            m = M.shape[1]
            for k0 in range(0, h, offsets):
                k1 = min(k0 + offsets, h)
                for r0 in range(c0, c1, block_rows):
                    r1 = min(r0 + block_rows, c1)
                    d = scratch[: (r1 - r0) * (k1 - k0) * m].reshape(r1 - r0, k1 - k0, m)
                    # M[i] - W[i, k] from a copy of M[i]: numpy runs a
                    # subtraction that broadcasts slower, through a buffer
                    np.copyto(d, M[r0:r1, None])
                    np.subtract(d, W[r0:r1, k0:k1], out=d)
                    np.multiply(d, d, out=d)
                    np.add.reduce(d, axis=2, out=out[r0 - c0 : r1 - c0, k0:k1])
        np.sqrt(DN, out=DN)
        np.add(D, N, out=D)
        np.subtract(D, s.lam, out=D)
        np.abs(D, out=D)
        top = D.max()
        if top >= max_dev:
            # the pairs {i, j} at this chunk's maximum, each keyed
            # min(i, j) * n + max(i, j); a larger key never replaces an
            # equal maximum
            r, k = np.nonzero(D == top)
            i, j = r + c0, (r + c0 + k + 1) % n
            key = int((np.minimum(i, j) * n + np.maximum(i, j)).min())
            if top > max_dev or key < worst:
                max_dev, worst = float(top), key
    return VerificationReport(
        n_points=n,
        n_pairs=n * (n - 1) // 2,
        lam=s.lam,
        rel_tol=rel_tol,
        max_abs_deviation=max_dev,
        worst_pair=divmod(worst, n),
        passed=bool(max_dev <= rel_tol * s.lam),
    )


def pointset_to_json(s: PointSet) -> str:
    """Serialize a PointSet; deterministic bytes for identical inputs."""
    head = (
        f'{{"a": {s.a}, "b": {s.b}, "lambda": {"%.17g" % s.lam}, '
        f'"swapped": {json.dumps(s.swapped)}, "provenance": {json.dumps(s.provenance)}, "points": ['
    )
    n, a, m = len(s), s.a, s.a + s.b
    if n == 0:
        return head + "\n  \n]}\n"
    # 17 significant digits round-trip binary64 exactly.  A point set holds
    # few distinct values, so each is formatted once, keyed on its bit
    # pattern, which keeps -0.0 (printed -0) apart from 0.0.  A sort and
    # searchsorted find them several times faster than np.unique does.
    bits = np.hstack([s.X, s.Y]).view(np.uint64)
    values = np.sort(bits, axis=None)
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    strings = ["%.17g" % v for v in values.view(np.float64).tolist()]
    # Each value is written with the separator after it, which depends only
    # on its column: the end of x, the end of the point, or else ", ".
    k = len(strings)
    table = np.array(
        [v + sep for sep in (", ", '], "y": [', ']},\n  {"x": [') for v in strings], dtype=object
    )
    index = np.searchsorted(values, bits)
    del bits  # freed once used: at a + b = 1000 each of these arrays is 8 MB
    index[:, a - 1] += k
    index[:, m - 1] += 2 * k
    tokens = table[index]
    # the first token carries the head and the last closes the document,
    # so one join makes the whole text
    tokens[0, 0] = head + '\n  {"x": [' + tokens[0, 0]
    tokens[-1, -1] = strings[index[-1, -1] - 2 * k] + "]}\n]}\n"
    del index
    return "".join(tokens.ravel().tolist())


def _reject_constant(token: str) -> None:
    raise ValueError(f"non-finite number {token} in point set JSON")


# A parse keeps at most this many distinct number tokens, each with its
# float: about 0.5 MB.  The sets construct emits repeat a handful of values
# (at most 14 distinct coordinates for every a + b <= 60, 5 at (1, 999)),
# so nearly every token is a hit.
_TOKEN_TABLE_SIZE = 4096


class _TokenFloats(dict):
    """Number token -> float for one parse.  A token seen before costs one
    dict lookup and shares the float made for it; a new one is converted by
    float() and kept while the table is below _TOKEN_TABLE_SIZE tokens."""

    def __missing__(self, token: str) -> float:
        value = float(token)
        if len(self) < _TOKEN_TABLE_SIZE:
            self[token] = value
        return value


# Both literals, true and false, end in "e", which a JSON number holds only
# in an exponent.  A text of at most this many "e"s has its literals found by
# str.find, which runs at memchr speed; text.count("true") takes ten times
# as long.  The sets construct emits hold at most seven.
_MAX_E = 16


def _more_than_one_literal(text: str) -> bool:
    """Whether the text may hold more than one true or false literal: True
    past _MAX_E "e"s."""
    found, i = 0, text.find("e")
    for _ in range(_MAX_E):
        if i < 0:
            return found > 1
        found += text.endswith("true", 0, i + 1) or text.endswith("false", 0, i + 1)
        i = text.find("e", i + 1)
    return True


# every JSON number is read as a float
_FIELD_TYPES = {"a": float, "b": float, "lambda": float, "swapped": bool, "provenance": str}


def pointset_from_json(text: str) -> PointSet:
    """Parse the PointSet JSON format; raises ValueError on schema problems.

    Python's json module accepts the non-standard tokens NaN, Infinity and
    -Infinity; a point set never contains them, so they are rejected here.
    Every number is read as a float, so -0 keeps its sign and the set
    round-trips byte for byte.  Each distinct number token is converted
    once per parse, through a table built for the call and bounded at
    _TOKEN_TABLE_SIZE tokens, and its repeats share that float; tokens
    past the bound are converted each time.  a and b must be integral
    numbers in [1, MAX_DIMENSION], checked before any array is built, lambda
    a number, swapped a boolean and provenance a string, and every
    coordinate a number, not a boolean.  JSON nested too
    deep to parse is a ValueError; PointSet rejects rows of the wrong or
    unequal lengths and a coordinate above MAX_COORDINATE in magnitude, such
    as 1e999, which reads as infinity.
    """
    try:
        floats = _TokenFloats().__getitem__
        obj = json.loads(text, parse_int=floats, parse_float=floats, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    except RecursionError:  # arrays or objects nested deeper than the stack
        raise ValueError("invalid JSON: nested too deeply") from None
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
        if max(a, b) > MAX_DIMENSION:
            raise ValueError(f"point set JSON: 'a' and 'b' must be at most {MAX_DIMENSION}")
        a, b = int(a), int(b)
        xs, ys = [p["x"] for p in obj["points"]], [p["y"] for p in obj["points"]]
        X, Y = _stack(xs, a), _stack(ys, b)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed point set JSON: {exc}") from exc
    s = PointSet(a, b, obj["lambda"], X, Y, obj["provenance"], obj["swapped"])
    # numpy reads a boolean among numbers as 0 or 1.  A boolean coordinate
    # needs a literal besides swapped's, so only then are the rows, each a
    # list of scalars once the set is built, read again
    if _more_than_one_literal(text) and bool in set(map(type, chain(*xs, *ys))):
        raise ValueError("point set JSON: coordinates must be numbers")
    return s
