"""Morton (z-order) space-filling curve codes.

Paper §III-A steps 4-5: after the quadtree is built, leaves are arranged
along a Morton Z-order curve, which keeps geometrically affine patches close
in the 1-D token sequence. Codes interleave the bits of (y, x) cell
coordinates; sorting leaves by ``(code at finest level)`` yields the z-order
traversal of the tree.
"""

from __future__ import annotations

import numpy as np

__all__ = ["morton_encode", "morton_decode", "morton_sort_order"]

_MAX_BITS = 24  # supports coordinates up to 16M — far beyond 64K images


def _part1by1(v: np.ndarray) -> np.ndarray:
    """Insert a zero bit between each bit of ``v`` (16→32 bit spread)."""
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def _compact1by1(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_part1by1`."""
    v = v.astype(np.uint64) & np.uint64(0x5555555555555555)
    v = (v | (v >> np.uint64(1))) & np.uint64(0x3333333333333333)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return v


def morton_encode(y, x) -> np.ndarray:
    """Interleave bits of coordinate arrays: code = x0 y0 x1 y1 ... (x in even bits).

    Accepts scalars or arrays; vectorized over inputs.
    """
    y = np.atleast_1d(np.asarray(y, dtype=np.uint64))
    x = np.atleast_1d(np.asarray(x, dtype=np.uint64))
    if (y >= (1 << _MAX_BITS)).any() or (x >= (1 << _MAX_BITS)).any():
        raise ValueError(f"coordinates exceed {_MAX_BITS}-bit Morton range")
    return (_part1by1(y) << np.uint64(1)) | _part1by1(x)


def morton_decode(code) -> tuple:
    """Inverse of :func:`morton_encode`: returns ``(y, x)`` arrays."""
    c = np.atleast_1d(np.asarray(code, dtype=np.uint64))
    x = _compact1by1(c)
    y = _compact1by1(c >> np.uint64(1))
    return y.astype(np.int64), x.astype(np.int64)


def morton_sort_order(ys, xs) -> np.ndarray:
    """Argsort indices arranging points (ys, xs) along the z-order curve.

    Ties are impossible for distinct points; ``np.argsort`` with stable kind
    keeps input order for identical coordinates.
    """
    codes = morton_encode(ys, xs)
    return np.argsort(codes, kind="stable")
