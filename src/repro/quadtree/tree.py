"""Quadtree construction over image detail maps (paper Eq. 6).

A node ``Q^h`` covering a square region is subdivided into its NW/NE/SW/SE
children when the detail mass inside it exceeds the split value ``v`` and the
node is above the maximum depth ``H``:

    Q^{h+1} = Q^h                          if sum_i D_i <= v or h = H
            = {Q^h_NW, Q^h_NE, Q^h_SW, Q^h_SE}  otherwise

The builder is *level-synchronous and fully vectorized*: all nodes of a depth
are processed as coordinate arrays, with region sums evaluated in O(1) each
via a summed-area table — the whole build is O(Z^2) for the integral image
plus O(#nodes) for the traversal, which is the "negligible overhead" the
paper claims (§IV-G.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..rows import Rows
from .morton import morton_sort_order

__all__ = ["Leaves", "QuadtreeLeaves", "build_quadtree", "build_tree_batch",
           "balance_2to1", "max_depth_for"]


def max_depth_for(resolution: int, min_patch: int) -> int:
    """Depth H at which leaves reach ``min_patch`` pixels: ``log2(Z/min_patch)``.

    Matches the paper's table — e.g. resolution 512 with H=8 reaches 2x2
    patches (512 / 2**8 = 2).
    """
    if resolution % min_patch:
        raise ValueError(f"min_patch {min_patch} must divide resolution {resolution}")
    ratio = resolution // min_patch
    if ratio & (ratio - 1):
        raise ValueError("resolution / min_patch must be a power of two")
    return int(ratio).bit_length() - 1


class Leaves(Rows):
    """A tree partition's leaf set (2-D quadtree or 3-D octree): one row
    per leaf, corners in the ``AXES`` fields, plus ``sizes`` (side length,
    a power of two) and ``depths`` (root = 0).
    Subclasses supply ``morton_order`` for their dimension."""

    @property
    def ndim(self) -> int:
        return len(self.AXES)

    @property
    def sequence_length(self) -> int:
        """Number of patches this partition produces (paper's N for APF)."""
        return len(self)

    @property
    def mean_patch_size(self) -> float:
        return float(self.sizes.mean()) if len(self) else 0.0

    def size_histogram(self) -> Dict[int, int]:
        """Map patch side length -> count (Fig. 3 top row)."""
        vals, counts = np.unique(self.sizes, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}

    def sorted_by_morton(self):
        return self.take(self.morton_order())

    def covers_exactly(self) -> bool:
        """True iff leaves tile the scene: disjoint and volume-complete."""
        total = int((self.sizes.astype(np.int64) ** self.ndim).sum())
        if total != self.size ** self.ndim:
            return False
        # Count coverage per cell: an overlap shows up as a 2 even when
        # the total matches because a gap elsewhere offsets it.
        grid = np.zeros((self.size,) * self.ndim, dtype=np.int32)
        corners = zip(*(getattr(self, a) for a in self.AXES))
        for corner, s in zip(corners, self.sizes):
            grid[tuple(slice(c, c + s) for c in corner)] += 1
        return bool((grid == 1).all())


@dataclass
class QuadtreeLeaves(Leaves):
    """The leaf set of a quadtree partition of a ``size`` x ``size`` image.

    Attributes
    ----------
    ys, xs:
        Top-left corners of each leaf, in pixels.
    sizes:
        Side length of each leaf (always a power of two).
    depths:
        Tree depth of each leaf (root = 0).
    size:
        Image side length the tree partitions.
    nodes_visited:
        Total nodes examined during the build (leaves + interior).
    """

    ROWS = ("ys", "xs", "sizes", "depths")
    AXES = ("ys", "xs")

    ys: np.ndarray
    xs: np.ndarray
    sizes: np.ndarray
    depths: np.ndarray
    size: int
    nodes_visited: int = 0

    def morton_order(self) -> np.ndarray:
        """Indices arranging leaves along the Morton z-curve (paper step 5)."""
        return morton_sort_order(self.ys, self.xs)

    def hilbert_order(self) -> np.ndarray:
        """Indices arranging leaves along the Hilbert curve (AMR-style
        ablation of the paper's Morton choice — strictly better locality)."""
        from .hilbert import hilbert_sort_order
        return hilbert_sort_order(self.ys, self.xs)

    def sorted_by_hilbert(self) -> "QuadtreeLeaves":
        return self.take(self.hilbert_order())


def _integral(detail: np.ndarray, step: int) -> np.ndarray:
    """Summed table of a square or cubic ``detail`` map, sampled on the
    ``step`` grid: entry ``[i, j, ...]`` is the sum of
    ``detail[:i*step, :j*step, ...]``.

    Each entry equals bit for bit the value the dense table (``cumsum``
    along every axis in turn, zero-padded) holds at ``[i*step, j*step,
    ...]``, for any float map: axis 0 accumulates in ``cumsum``'s order
    (``acc += d[y]``) keeping every ``step``-th running slice, and each
    later axis is summed in full before it is sampled. The builder queries
    region sums only at multiples of the smallest node size, so this costs
    O(Z^d/step) beyond the axis-0 pass instead of d dense O(Z^d) scans.
    A bool map (Canny edges) skips the row loop: its entries are counts
    of set pixels per cell, summed along each axis, exact in any order.
    """
    z, nd = detail.shape[0], detail.ndim
    n = z // step
    if n == 0:
        return np.zeros((1,) * nd, dtype=np.float64)
    if detail.dtype == bool:
        flat = np.flatnonzero(detail)
        cell = np.zeros_like(flat)
        for ax in range(nd):                      # last axis first
            flat, c = np.divmod(flat, z)
            cell += c // step * n ** ax
        t = np.bincount(cell, minlength=n ** nd).reshape((n,) * nd)
        for ax in range(nd):
            t = np.cumsum(t, axis=ax)
    else:
        t = np.empty((n,) + detail.shape[1:], dtype=np.float64)
        acc = detail[0].astype(np.float64)
        for y in range(1, z):
            if y % step == 0:
                t[y // step - 1] = acc
            acc += detail[y]
        t[n - 1] = acc
        for ax in range(1, nd):
            sample = (slice(None),) * ax + (slice(step - 1, None, step),)
            t = np.cumsum(t, axis=ax)[sample]
    ii = np.zeros((n + 1,) * nd, dtype=np.float64)
    ii[(slice(1, None),) * nd] = t
    return ii


def _region_sums(flat: np.ndarray, base: np.ndarray, strides: Sequence[int],
                 span: int) -> np.ndarray:
    """Sums over the nodes whose low corners sit at offsets ``base`` into
    the flattened stack of :func:`_integral` tables, ``span`` grid steps
    wide.

    Inclusion-exclusion over the 2^d corners: the all-high corner first,
    then the corners with k low axes for k = 1..d, in
    ``itertools.combinations`` order, accumulated left to right
    (``ii[y1, x1] - ii[y0, x1] - ii[y1, x0] + ii[y0, x0]`` in 2-D).
    """
    axes = range(len(strides))
    sums = flat[base + span * sum(strides)]
    for n_low in range(1, len(strides) + 1):
        for low in combinations(axes, n_low):
            term = flat[base + span * sum(strides[a] for a in axes
                                          if a not in low)]
            sums = sums - term if n_low % 2 else sums + term
    return sums


def build_quadtree(detail: np.ndarray, split_value: float, max_depth: int,
                   min_size: int = 1) -> QuadtreeLeaves:
    """Build the adaptive partition of Eq. 6 over a square detail map.

    Parameters
    ----------
    detail:
        (Z, Z) non-negative detail map — in APF this is the Canny edge mask
        (booleans count edge pixels), but any density works (ablation:
        local variance).
    split_value:
        The paper's ``v``: a region is split while its detail mass exceeds v.
    max_depth:
        The paper's ``H``: maximum subdivision depth (root = depth 0).
    min_size:
        Do not produce leaves smaller than this side length (the minimum
        patch size ``Pm``); overrides ``max_depth`` when reached first.

    Returns
    -------
    :class:`QuadtreeLeaves` in level-major build order (call
    ``sorted_by_morton()`` for the z-curve sequence).
    """
    detail = np.asarray(detail)
    if detail.ndim != 2:
        raise ValueError(f"detail map must be square 2-D, got {detail.shape}")
    return build_tree_batch([detail], split_value, max_depth, min_size)[0]


def build_tree_batch(details: Iterable[np.ndarray], split_value: float,
                     max_depth: int, min_size: int = 1) -> List[Leaves]:
    """Level-synchronous Eq. 6 build over a batch of square (quadtree) or
    cubic (octree) detail maps.

    All maps share one frontier: every depth issues a single region-sum
    lookup over the concatenated per-map nodes, so the per-level
    NumPy dispatch is paid once per batch, not once per map. A node is
    split into its 2^d children, emitted in
    ``itertools.product((0, half), repeat=d)`` order (NW, NE, SW, SE in
    2-D), so each returned leaf set — :class:`QuadtreeLeaves` for 2-D maps,
    :class:`~repro.quadtree.octree.OctreeLeaves` for 3-D — is the same,
    leaf for leaf and in the same level-major order, whatever else is in
    the batch.

    ``details`` may be any iterable, a generator included: each map is
    consumed into its summed table (:func:`_integral`) before the next is
    drawn, so a caller can hand over maps that live in one reused buffer.
    All maps must share one square or cubic power-of-two shape; the other
    parameters are those of :func:`build_quadtree`.
    """
    if min_size < 1 or (min_size & (min_size - 1)):
        raise ValueError(f"min_size must be a positive power of two, got {min_size}")
    if split_value < 0:
        raise ValueError("split_value must be non-negative")
    tables, shape = [], None
    for d in details:
        d = np.asarray(d)
        if shape is None:
            shape = d.shape
            z = shape[0] if d.ndim else 0
            if d.ndim not in (2, 3) or shape != (z,) * d.ndim:
                raise ValueError(
                    f"detail map must be square 2-D or a cube, got {shape}")
            if z & (z - 1):
                raise ValueError(f"image size must be a power of two, got {z}")
            step = max(min(min_size, z), 1)   # 1 only for an empty map
        elif d.shape != shape:
            raise ValueError("all detail maps must share one square 2-D or "
                             "cubic 3-D shape")
        tables.append(_integral(d, step))
    if not tables:
        return []
    if len(shape) == 2:
        cls = QuadtreeLeaves
    else:
        from .octree import OctreeLeaves as cls
    nd, b = len(shape), len(tables)
    flat = np.stack(tables).reshape(-1)
    side = tables[0].shape[0]
    strides = [side ** (nd - 1 - a) for a in range(nd)]

    # The frontier is each node's low-corner offset into ``flat``; a
    # child's offset is its parent's plus one constant per child block.
    nodes = np.arange(b, dtype=np.int64) * side ** nd
    found, size, depth = [], z, 0
    while True:
        sums = _region_sums(flat, nodes, strides, size // step)
        can_split = (depth < max_depth) and (size // 2 >= min_size) and size > 1
        split = (sums > split_value) if can_split else np.zeros(len(nodes), bool)
        keep = ~split
        found.append(nodes[keep])
        if not split.any():
            break
        half = size // 2 // step   # in table cells
        parents = nodes[split]
        nodes = np.concatenate([
            parents + sum(o * st for o, st in zip(offs, strides))
            for offs in product((0, half), repeat=nd)])
        size, depth = size // 2, depth + 1

    counts = [len(f) for f in found]   # leaves per depth
    offsets = np.concatenate(found)
    bs, *cells = np.unravel_index(offsets, (b,) + (side,) * nd)
    depths = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    sizes = z >> depths
    out = []
    for i in range(b):
        idx = np.flatnonzero(bs == i)  # preserves level-major build order
        # Every node visited became a leaf or split into 2^d children.
        visited = len(idx) + (len(idx) - 1) // (2 ** nd - 1)
        out.append(cls(*(c[idx] * step for c in cells), sizes[idx],
                       depths[idx], z, visited))
    return out


def balance_2to1(leaves: QuadtreeLeaves) -> QuadtreeLeaves:
    """Enforce the AMR 2:1 balance constraint (paper §II-A).

    Any leaf more than one refinement level coarser than an edge-adjacent
    neighbour is split until the constraint holds. Returns a new leaf set;
    ``nodes_visited`` is carried over plus the extra splits.
    """
    z = leaves.size
    ys = list(leaves.ys)
    xs = list(leaves.xs)
    sizes = list(leaves.sizes)
    depths = list(leaves.depths)
    extra = 0

    changed = True
    while changed:
        changed = False
        # Rasterize current leaf sizes onto the pixel grid.
        size_map = np.zeros((z, z), dtype=np.int64)
        for y, x, s in zip(ys, xs, sizes):
            size_map[y:y + s, x:x + s] = s
        new_ys, new_xs, new_sizes, new_depths = [], [], [], []
        for y, x, s, d in zip(ys, xs, sizes, depths):
            must_split = False
            if s > 1:
                # Check the four edge-adjacent strips for leaves < s/2.
                strips = []
                if y > 0:
                    strips.append(size_map[y - 1, x:x + s])
                if y + s < z:
                    strips.append(size_map[y + s, x:x + s])
                if x > 0:
                    strips.append(size_map[y:y + s, x - 1])
                if x + s < z:
                    strips.append(size_map[y:y + s, x + s])
                for strip in strips:
                    if strip.size and strip.min() < s // 2:
                        must_split = True
                        break
            if must_split:
                half = s // 2
                for dy in (0, half):
                    for dx in (0, half):
                        new_ys.append(y + dy)
                        new_xs.append(x + dx)
                        new_sizes.append(half)
                        new_depths.append(d + 1)
                extra += 4
                changed = True
            else:
                new_ys.append(y)
                new_xs.append(x)
                new_sizes.append(s)
                new_depths.append(d)
        ys, xs, sizes, depths = new_ys, new_xs, new_sizes, new_depths

    return QuadtreeLeaves(np.asarray(ys, dtype=np.int64), np.asarray(xs, dtype=np.int64),
                          np.asarray(sizes, dtype=np.int64), np.asarray(depths, dtype=np.int64),
                          z, leaves.nodes_visited + extra)
