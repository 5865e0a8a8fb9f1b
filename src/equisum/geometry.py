"""Euclidean primitives: regular simplices, circumradii, block embeddings.

Coordinates are binary64 numpy arrays; exactness is not needed here because
every downstream consumer checks distances against tolerances, and the
feasibility decisions never read these coordinates.  The one exact quantity,
the squared circumradius, is defined with the certified arithmetic it feeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class BlockLayout:
    """Ordered decomposition of R^total_dim into orthogonal coordinate blocks."""

    block_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "block_dims", tuple(int(d) for d in self.block_dims))
        if not self.block_dims:
            raise ValueError("BlockLayout: at least one block required")
        if any(d < 1 for d in self.block_dims):
            raise ValueError(f"BlockLayout: blocks must be positive-dimensional, got {self.block_dims}")

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    def offset(self, block_index: int) -> int:
        if not 0 <= block_index < len(self.block_dims):
            raise IndexError(f"BlockLayout: no block {block_index} in {self.block_dims}")
        return sum(self.block_dims[:block_index])


# benchmarks/spans.py traces this name; nothing in the package calls it
def place_in_block(v: np.ndarray, layout: BlockLayout, block_index: int) -> np.ndarray:
    """Embed v into its block, exactly zero everywhere else.

    Vectors placed in distinct blocks have inner product exactly 0.0 because
    their supports are disjoint.
    """
    v = np.asarray(v, dtype=float)
    dim = layout.block_dims[block_index] if 0 <= block_index < len(layout.block_dims) else None
    if dim is None:
        raise IndexError(f"place_in_block: no block {block_index} in {layout.block_dims}")
    if v.shape != (dim,):
        raise ValueError(f"place_in_block: vector shape {v.shape} does not match block dim {dim}")
    out = np.zeros(layout.total_dim)
    off = layout.offset(block_index)
    out[off : off + dim] = v
    return out
