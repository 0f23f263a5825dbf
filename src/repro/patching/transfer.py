"""Leaf↔pixel transfer for quadtree and octree tokens, in any dimension.

Step 4' projects every leaf down to the model patch size Pm by area
averaging (patch extraction, label projection); serving paints each
token's prediction back over its leaf (stitch). A leaf of side ``s`` is
aligned to its own size, so in a ``(Z/s, s)``-per-axis block view of the
scene a size group is one fancy index, one array per corner column
(``corner // s``). Leaves never overlap, so the results equal the
per-leaf reference loops bit for bit (same elements, same reduction
order, float64 out). Each function takes a row table, leaf set or
sequence, with ``sizes`` and the corner columns named in ``AXES``; rows
a sequence marks not ``valid`` read as zeros and paint nothing.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gather", "patchify_labels", "stitch"]


def _groups(rows):
    """``(s, idx, key)`` per leaf size ``s`` among the transferable rows:
    ``idx`` indexes the rows, and ``key`` indexes a ``(Z/s, s)``-per-axis
    block view of the scene at those rows' blocks."""
    valid = getattr(rows, "valid", None)
    sizes = rows.sizes if valid is None else np.where(valid, rows.sizes, 0)
    corners = [getattr(rows, a) for a in rows.AXES]
    for s in np.unique(sizes[sizes > 0]):
        s = int(s)
        idx = np.flatnonzero(sizes == s)
        # Advanced indices separated by slices put the group axis first:
        # the view yields (g, s, ..., s) blocks in row order.
        key = sum(((c[idx] // s, slice(None)) for c in corners), ())
        yield s, idx, key


def gather(scene: np.ndarray, rows, pm: int) -> np.ndarray:
    """Each row's block of ``scene``, area-downscaled to Pm per axis.

    ``scene`` is ``(Z,)*d`` with any trailing channel axes. Returns
    ``(len(rows),) + channels + (pm,)*d`` float64: the channels move
    ahead of the spatial axes, the layout of a sequence's ``patches``.
    """
    a = np.asarray(scene, dtype=np.float64)
    d = len(rows.AXES)
    z, ch = a.shape[0], a.shape[d:]
    out = np.zeros((len(rows),) + ch + (pm,) * d, dtype=np.float64)
    # (g, pm..., ch...) -> (g, ch..., pm...)
    order = (0,) + tuple(range(d + 1, d + 1 + len(ch))) + tuple(range(1, d + 1))
    for s, idx, key in _groups(rows):
        if s < pm:
            raise ValueError(f"leaf of size {s} is smaller than the model "
                             f"patch size {pm}")
        g = z // s
        blocks = a.reshape((g, s) * d + ch)[key]     # (k, s..., ch...)
        if s > pm:
            f = s // pm
            blocks = blocks.reshape((len(idx),) + (pm, f) * d + ch).mean(
                axis=tuple(range(2, 2 * d + 1, 2)))
        out[idx] = blocks.transpose(order)
    return out


def patchify_labels(mask: np.ndarray, seq) -> np.ndarray:
    """Project a full-resolution label mask onto the token layout of ``seq``.

    Returns ``(L, 1) + (Pm,)*d`` soft targets: each leaf's mask region is
    area-downscaled to Pm, so supervision is aligned with the inputs
    (large homogeneous leaves yield fractional coverage). Padded rows are
    zeros. A 2-D mask may carry a trailing channel axis; channel 0 is used.
    """
    m = np.asarray(mask)
    d = len(seq.AXES)
    if d == 2 and m.ndim == 3:
        m = m[:, :, 0]
    if m.ndim != d:
        raise ValueError(f"expected a {d}-D mask, got shape {m.shape}")
    return gather(m, seq, seq.patch_size)[:, None]


def stitch(seq, values: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Paint per-token maps back over each token's leaf.

    ``values`` is ``(L, K) + (Pm,)*d``: each map is repeated up to its
    leaf's size (nearest) or, for a leaf smaller than Pm, averaged down.
    Returns ``(K,) + (Z,)*d`` in ``dtype``, 0 where no token lies
    (dropped leaves, padding). An integer ``dtype`` (labels) is painted
    by repetition only, so it takes no leaf smaller than Pm.
    """
    v = np.asarray(values)
    d = len(seq.AXES)
    pm = seq.patch_size
    if v.ndim != d + 2 or len(v) != len(seq) or v.shape[2:] != (pm,) * d:
        raise ValueError(f"values shape {v.shape} does not match a sequence "
                         f"of length {len(seq)} with {d}-D patches of {pm}")
    k = v.shape[1]
    z = seq.scene_size
    out = np.zeros((k,) + (z,) * d, dtype=dtype)
    for s, idx, key in _groups(seq):
        up = v[idx]                                   # (g, K, pm...)
        if s > pm:
            for axis in range(2, d + 2):
                up = np.repeat(up, s // pm, axis=axis)
        elif s < pm:
            if not np.issubdtype(out.dtype, np.inexact):
                raise ValueError(f"cannot average {out.dtype} below Pm")
            f = pm // s
            up = up.reshape((len(idx), k) + (s, f) * d).mean(
                axis=tuple(range(3, 2 * d + 2, 2)))
        out.reshape((k,) + (z // s, s) * d)[(slice(None),) + key] = up
    return out
