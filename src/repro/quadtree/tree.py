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
from typing import Dict, List, Optional, Sequence

import numpy as np

from .morton import morton_sort_order

__all__ = ["QuadtreeLeaves", "build_quadtree", "build_quadtree_batch",
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


@dataclass
class QuadtreeLeaves:
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
    details:
        Per-leaf detail mass (the Eq. 6 region sum that decided *not* to
        split the leaf). Zero means the leaf is provably flat under the
        detail criterion — the signal the token-sparsity fast path keys
        on. ``None`` when the producer did not retain the sums (e.g.
        after :func:`balance_2to1`, which splits leaves without access
        to the detail map).
    """

    ys: np.ndarray
    xs: np.ndarray
    sizes: np.ndarray
    depths: np.ndarray
    size: int
    nodes_visited: int = 0
    details: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.ys)

    @property
    def sequence_length(self) -> int:
        """Number of patches this partition produces (paper's N for APF)."""
        return len(self.ys)

    @property
    def mean_patch_size(self) -> float:
        return float(self.sizes.mean()) if len(self) else 0.0

    def size_histogram(self) -> Dict[int, int]:
        """Map patch side length -> count (Fig. 3 top row)."""
        vals, counts = np.unique(self.sizes, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}

    def morton_order(self) -> np.ndarray:
        """Indices arranging leaves along the Morton z-curve (paper step 5)."""
        return morton_sort_order(self.ys, self.xs)

    def hilbert_order(self) -> np.ndarray:
        """Indices arranging leaves along the Hilbert curve (AMR-style
        ablation of the paper's Morton choice — strictly better locality)."""
        from .hilbert import hilbert_sort_order
        return hilbert_sort_order(self.ys, self.xs)

    def reordered(self, order: np.ndarray) -> "QuadtreeLeaves":
        return QuadtreeLeaves(self.ys[order], self.xs[order], self.sizes[order],
                              self.depths[order], self.size, self.nodes_visited,
                              None if self.details is None
                              else self.details[order])

    def sorted_by_morton(self) -> "QuadtreeLeaves":
        return self.reordered(self.morton_order())

    def sorted_by_hilbert(self) -> "QuadtreeLeaves":
        return self.reordered(self.hilbert_order())

    def covers_exactly(self) -> bool:
        """True iff leaves tile the image: disjoint and area-complete."""
        total = int((self.sizes.astype(np.int64) ** 2).sum())
        if total != self.size * self.size:
            return False
        # Paint each leaf id; overlap would overwrite and break the area check
        # only if areas also mismatched, so double-check with a counter grid.
        grid = np.zeros((self.size, self.size), dtype=np.int32)
        for y, x, s in zip(self.ys, self.xs, self.sizes):
            grid[y:y + s, x:x + s] += 1
        return bool((grid == 1).all())


def _integral(detail: np.ndarray, step: int) -> np.ndarray:
    """Summed-area table of ``detail`` sampled on the ``step`` grid.

    Entry ``[i, j]`` is the sum of ``detail[:i*step, :j*step]`` — exactly
    the value the dense table ``pad(cumsum(cumsum(d, 0), 1))`` holds at
    ``[i*step, j*step]``, for any float map: the rows accumulate in
    ``cumsum``'s order (``acc += d[y]``), only every ``step``-th running
    row is kept, and each kept row is summed along x in full before its
    columns are subsampled. The builders query region sums only at
    multiples of the smallest node size, so this costs O(Z²/step)
    beyond the row pass instead of two dense O(Z²) scans and a copy.
    """
    z = detail.shape[0]
    n = z // step
    if n == 0:
        return np.zeros((1, 1), dtype=np.float64)
    rows = np.empty((n, z), dtype=np.float64)
    acc = detail[0].astype(np.float64)
    for y in range(1, z):
        if y % step == 0:
            rows[y // step - 1] = acc
        acc += detail[y]
    rows[n - 1] = acc
    ii = np.zeros((n + 1, n + 1), dtype=np.float64)
    ii[1:, 1:] = np.cumsum(rows, axis=1)[:, step - 1::step]
    return ii


def _region_sums(ii: np.ndarray, ys: np.ndarray, xs: np.ndarray,
                 size: int, step: int) -> np.ndarray:
    """Sums over the ``size`` squares at pixel corners ``(ys, xs)``, all
    multiples of ``step``, from the :func:`_integral` grid table."""
    y0, x0 = ys // step, xs // step
    y1, x1 = y0 + size // step, x0 + size // step
    return ii[y1, x1] - ii[y0, x1] - ii[y1, x0] + ii[y0, x0]


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
    if detail.ndim != 2 or detail.shape[0] != detail.shape[1]:
        raise ValueError(f"detail map must be square 2-D, got {detail.shape}")
    z = detail.shape[0]
    if z & (z - 1):
        raise ValueError(f"image size must be a power of two, got {z}")
    if min_size < 1 or (min_size & (min_size - 1)):
        raise ValueError(f"min_size must be a positive power of two, got {min_size}")
    if split_value < 0:
        raise ValueError("split_value must be non-negative")

    step = max(min(min_size, z), 1)   # 1 only for an empty map
    ii = _integral(detail, step)
    leaf_ys, leaf_xs, leaf_sizes, leaf_depths, leaf_details = [], [], [], [], []
    ys = np.zeros(1, dtype=np.int64)
    xs = np.zeros(1, dtype=np.int64)
    size = z
    depth = 0
    visited = 0
    while len(ys):
        visited += len(ys)
        sums = _region_sums(ii, ys, xs, size, step)
        can_split = (depth < max_depth) and (size // 2 >= min_size) and size > 1
        split = (sums > split_value) if can_split else np.zeros(len(ys), dtype=bool)
        keep = ~split
        if keep.any():
            leaf_ys.append(ys[keep])
            leaf_xs.append(xs[keep])
            leaf_sizes.append(np.full(int(keep.sum()), size, dtype=np.int64))
            leaf_depths.append(np.full(int(keep.sum()), depth, dtype=np.int64))
            leaf_details.append(sums[keep])
        if split.any():
            sy, sx = ys[split], xs[split]
            half = size // 2
            # Child order NW, NE, SW, SE (paper Eq. 6).
            ys = np.concatenate([sy, sy, sy + half, sy + half])
            xs = np.concatenate([sx, sx + half, sx, sx + half])
            size = half
            depth += 1
        else:
            break

    if leaf_ys:
        out = QuadtreeLeaves(np.concatenate(leaf_ys), np.concatenate(leaf_xs),
                             np.concatenate(leaf_sizes), np.concatenate(leaf_depths),
                             z, visited, np.concatenate(leaf_details))
    else:  # pragma: no cover - unreachable: loop always emits leaves
        out = QuadtreeLeaves(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                             np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                             z, visited, np.zeros(0, dtype=np.float64))
    return out


def _region_sums_batch(ii: np.ndarray, bs: np.ndarray, ys: np.ndarray,
                       xs: np.ndarray, size: int, step: int) -> np.ndarray:
    """Batched :func:`_region_sums`: ``ii`` stacks one grid table per image."""
    y0, x0 = ys // step, xs // step
    y1, x1 = y0 + size // step, x0 + size // step
    return ii[bs, y1, x1] - ii[bs, y0, x1] - ii[bs, y1, x0] + ii[bs, y0, x0]


def build_quadtree_batch(details: Sequence[np.ndarray], split_value: float,
                         max_depth: int, min_size: int = 1) -> List[QuadtreeLeaves]:
    """Level-synchronous quadtree build over a whole batch of detail maps.

    All images of the batch share one frontier: every depth issues a *single*
    :func:`_region_sums_batch` call over the concatenated per-image node
    coordinates, so the per-level Python/NumPy dispatch overhead is amortized
    across the batch instead of paid per image. Each returned
    :class:`QuadtreeLeaves` is **identical** (same leaves, same build order,
    same ``nodes_visited``) to ``build_quadtree(details[b], ...)`` — the
    child-block concatenation ``[NW, NE, SW, SE]`` preserves every image's
    relative node order at each depth.

    Parameters match :func:`build_quadtree`; all detail maps must share one
    square power-of-two shape.
    """
    if len(details) == 0:
        return []
    maps = [np.asarray(d) for d in details]
    z = maps[0].shape[0]
    for d in maps:
        if d.ndim != 2 or d.shape != (z, z):
            raise ValueError("all detail maps must share one square 2-D shape")
    if z & (z - 1):
        raise ValueError(f"image size must be a power of two, got {z}")
    if min_size < 1 or (min_size & (min_size - 1)):
        raise ValueError(f"min_size must be a positive power of two, got {min_size}")
    if split_value < 0:
        raise ValueError("split_value must be non-negative")

    b = len(maps)
    # Per-image integral images (cache-friendly), stacked for batched lookup.
    step = max(min(min_size, z), 1)   # 1 only for an empty map
    n = z // step
    ii = np.empty((b, n + 1, n + 1), dtype=np.float64)
    for i, d in enumerate(maps):
        ii[i] = _integral(d, step)

    leaf_bs, leaf_ys, leaf_xs, leaf_sizes, leaf_depths, leaf_details = \
        [], [], [], [], [], []
    bs = np.arange(b, dtype=np.int64)
    ys = np.zeros(b, dtype=np.int64)
    xs = np.zeros(b, dtype=np.int64)
    size = z
    depth = 0
    visited = np.zeros(b, dtype=np.int64)
    while len(bs):
        visited += np.bincount(bs, minlength=b)
        sums = _region_sums_batch(ii, bs, ys, xs, size, step)
        can_split = (depth < max_depth) and (size // 2 >= min_size) and size > 1
        split = (sums > split_value) if can_split else np.zeros(len(bs), dtype=bool)
        keep = ~split
        if keep.any():
            leaf_bs.append(bs[keep])
            leaf_ys.append(ys[keep])
            leaf_xs.append(xs[keep])
            leaf_sizes.append(np.full(int(keep.sum()), size, dtype=np.int64))
            leaf_depths.append(np.full(int(keep.sum()), depth, dtype=np.int64))
            leaf_details.append(sums[keep])
        if split.any():
            sb, sy, sx = bs[split], ys[split], xs[split]
            half = size // 2
            # Child order NW, NE, SW, SE — same blocks as the single build.
            bs = np.concatenate([sb, sb, sb, sb])
            ys = np.concatenate([sy, sy, sy + half, sy + half])
            xs = np.concatenate([sx, sx + half, sx, sx + half])
            size = half
            depth += 1
        else:
            break

    all_bs = np.concatenate(leaf_bs)
    all_ys = np.concatenate(leaf_ys)
    all_xs = np.concatenate(leaf_xs)
    all_sizes = np.concatenate(leaf_sizes)
    all_depths = np.concatenate(leaf_depths)
    all_details = np.concatenate(leaf_details)
    out = []
    for i in range(b):
        idx = np.flatnonzero(all_bs == i)  # preserves level-major build order
        out.append(QuadtreeLeaves(all_ys[idx], all_xs[idx], all_sizes[idx],
                                  all_depths[idx], z, int(visited[i]),
                                  all_details[idx]))
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
