"""Euclidean primitives: regular simplices, circumradii, block embeddings.

Coordinates are binary64 numpy arrays; exactness is not needed here because
every downstream consumer checks distances against tolerances, and the
feasibility decisions never read these coordinates.  The one exact quantity,
the squared circumradius, is defined with the certified arithmetic it feeds.
A block embedding takes its blocks as a plain tuple of their dimensions.
"""

from __future__ import annotations

import math

import numpy as np

from .feasibility import circumradius_sq  # noqa: F401  (re-exported)


def regular_simplex(m: int, side: float = 1.0, ambient_dim: int | None = None) -> np.ndarray:
    """Vertices of a regular (m-1)-simplex centred on the origin.

    Returns an (m, ambient_dim) float64 array whose rows are pairwise `side`
    apart, sum to the zero vector, and have norm side * d_{m-1} (the
    circumradius).  Only the first m-1 coordinates are used; the rest are
    exactly zero.  The construction is closed-form and deterministic: the
    standard basis of R^{m-1} plus the point ((1-sqrt(m))/(m-1)) * (1,..,1),
    centred and scaled from side sqrt(2) down to `side`.
    """
    if m < 1:
        raise ValueError(f"regular_simplex: m must be >= 1, got {m}")
    if side <= 0:
        raise ValueError(f"regular_simplex: side must be positive, got {side}")
    if ambient_dim is None:
        ambient_dim = m - 1
    if ambient_dim < m - 1:
        raise ValueError(
            f"regular_simplex: ambient_dim {ambient_dim} too small for {m} vertices"
        )
    if m == 1:
        return np.zeros((1, ambient_dim))

    d = m - 1
    verts = np.zeros((m, ambient_dim))
    verts[:d, :d] = np.eye(d)
    verts[d, :d] = (1.0 - math.sqrt(m)) / d
    centroid = verts[:, :d].sum(axis=0) / m
    verts[:, :d] -= centroid
    verts[:, :d] *= side / math.sqrt(2.0)
    return verts


# benchmarks/spans.py traces this name; nothing in the package calls it
def place_in_block(v: np.ndarray, block_dims: tuple[int, ...], block_index: int) -> np.ndarray:
    """Embed v into block `block_index` of R^sum(block_dims), the blocks in
    order, exactly zero everywhere else.

    Vectors placed in distinct blocks have inner product exactly 0.0 because
    their supports are disjoint.
    """
    v = np.asarray(v, dtype=float)
    if not 0 <= block_index < len(block_dims):
        raise IndexError(f"place_in_block: no block {block_index} in {block_dims}")
    dim = block_dims[block_index]
    if v.shape != (dim,):
        raise ValueError(f"place_in_block: vector shape {v.shape} does not match block dim {dim}")
    out = np.zeros(sum(block_dims))
    off = sum(block_dims[:block_index])
    out[off : off + dim] = v
    return out
