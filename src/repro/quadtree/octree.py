"""Octree partitioning and 3-D Morton codes — the volumetric APF extension.

UNETR (the paper's carrier model) is natively 3-D, and the paper's related
work cites octree transformers; extending Eq. 6 to volumes is the obvious
future-work direction. :func:`build_octree` is the 3-D name for the one
level-synchronous 2^d-tree builder, :func:`repro.quadtree.tree.build_tree_batch`,
which infers the dimension from the map and sums each cube in O(1) from a
summed-volume table sampled on the ``min_size`` grid. The leaf set is the
same :class:`~repro.quadtree.tree.Leaves` table with a third corner axis,
so reordering and the leaf statistics are shared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tree import Leaves, build_tree_batch

__all__ = ["morton3d_encode", "morton3d_decode", "OctreeLeaves",
           "build_octree"]

_MAX_BITS = 16


def _part1by2(v: np.ndarray) -> np.ndarray:
    """Insert two zero bits between each bit of ``v`` (16 → 48 bit spread)."""
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(32))) & np.uint64(0xFFFF00000000FFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x00FF0000FF0000FF)
    v = (v | (v << np.uint64(8))) & np.uint64(0xF00F00F00F00F00F)
    v = (v | (v << np.uint64(4))) & np.uint64(0x30C30C30C30C30C3)
    v = (v | (v << np.uint64(2))) & np.uint64(0x9249249249249249)
    return v


def _compact1by2(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64) & np.uint64(0x9249249249249249)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x30C30C30C30C30C3)
    v = (v | (v >> np.uint64(4))) & np.uint64(0xF00F00F00F00F00F)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x00FF0000FF0000FF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0xFFFF00000000FFFF)
    v = (v | (v >> np.uint64(32))) & np.uint64(0x000000000000FFFF)
    return v


def morton3d_encode(z, y, x) -> np.ndarray:
    """Interleave bits of (z, y, x): x in the lowest bit of each triple."""
    z = np.atleast_1d(np.asarray(z, dtype=np.uint64))
    y = np.atleast_1d(np.asarray(y, dtype=np.uint64))
    x = np.atleast_1d(np.asarray(x, dtype=np.uint64))
    for arr in (z, y, x):
        if (arr >= (1 << _MAX_BITS)).any():
            raise ValueError(f"coordinates exceed {_MAX_BITS}-bit range")
    return ((_part1by2(z) << np.uint64(2)) | (_part1by2(y) << np.uint64(1))
            | _part1by2(x))


def morton3d_decode(code):
    c = np.atleast_1d(np.asarray(code, dtype=np.uint64))
    x = _compact1by2(c)
    y = _compact1by2(c >> np.uint64(1))
    z = _compact1by2(c >> np.uint64(2))
    return z.astype(np.int64), y.astype(np.int64), x.astype(np.int64)


@dataclass
class OctreeLeaves(Leaves):
    """Leaf set of an octree partition of a ``size^3`` volume."""

    ROWS = ("zs", "ys", "xs", "sizes", "depths")
    AXES = ("zs", "ys", "xs")

    zs: np.ndarray
    ys: np.ndarray
    xs: np.ndarray
    sizes: np.ndarray
    depths: np.ndarray
    size: int
    nodes_visited: int = 0

    def morton_order(self) -> np.ndarray:
        return np.argsort(morton3d_encode(self.zs, self.ys, self.xs),
                          kind="stable")


def build_octree(detail: np.ndarray, split_value: float, max_depth: int,
                 min_size: int = 1) -> OctreeLeaves:
    """Eq. 6 generalized to volumes: split a cube while its detail mass
    exceeds ``split_value`` and depth/min-size limits allow."""
    detail = np.asarray(detail)
    if detail.ndim != 3:
        raise ValueError(f"detail map must be a cube, got {detail.shape}")
    return build_tree_batch([detail], split_value, max_depth, min_size)[0]
