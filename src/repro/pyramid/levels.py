"""Multi-level tile pyramids — the map-style address space over a scene.

Interactive viewers do not read scenes the way batch jobs do: they ask for
a small window at whatever *resolution the screen needs*, then pan and
zoom. :class:`TilePyramid` turns any 2-D
:class:`~repro.stream.source.TiledSource` into that address space: a
power-of-two downsample ladder where level 0 is the native scene and each
level above halves both dimensions, cut into fixed-size tiles
(:class:`PyramidTile`). A viewer showing a 512² window of a 16K² slide at
level 3 touches four 256² tiles instead of a 4096² region.

Construction is recursive and lazy: a level-``k`` tile is the 2x2
mean-pool of its four level-``k-1`` children, synthesized on first touch
and held in a small LRU — no level is ever materialized whole, which keeps
the pyramid usable over virtual slides that never exist in memory.

Every tile carries a **content digest** (the same
:func:`~repro.pipeline.engine.content_key` hash every serving cache layer
keys on), memoized per tile address. Identical pixels — across levels,
across viewers, across sessions — therefore map to one digest, which is
what lets the tile service's shared cache, the engine's result cache and
the fleet router's affinity sharding all dedupe the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..cache import LRU
from ..pipeline.engine import content_key

__all__ = ["PyramidTile", "TilePyramid"]


@dataclass(frozen=True, order=True)
class PyramidTile:
    """One tile address: ``(level, ty, tx)`` on the level's tile grid."""

    level: int
    ty: int
    tx: int

    @property
    def name(self) -> str:
        return f"L{self.level}_y{self.ty:04d}_x{self.tx:04d}"


class TilePyramid:
    """Power-of-two downsample pyramid over a 2-D tiled source.

    Parameters
    ----------
    source:
        Any ``kind == "image"`` :class:`~repro.stream.source.TiledSource`;
        both spatial dims must be multiples of ``tile``.
    tile:
        Tile side at every level (power of two). Level ``k`` has a
        ``(H >> k) / tile`` x ``(W >> k) / tile`` grid.
    max_level:
        Cap on the ladder; default: every level down to a single-tile
        thumbnail (or until a dimension stops dividing evenly).
    cache_tiles:
        LRU capacity over synthesized tile pixels. Digests are memoized
        separately (a few bytes per tile), so repeat *digest* lookups
        never resynthesize evicted pixels.
    """

    def __init__(self, source, tile: int = 256, *,
                 max_level: Optional[int] = None, cache_tiles: int = 128):
        if getattr(source, "kind", None) != "image":
            raise ValueError("TilePyramid needs a 2-D image source")
        if tile < 32 or tile & (tile - 1):
            raise ValueError(f"tile must be a power of two >= 32, got {tile}")
        if cache_tiles < 4:
            # a level-k tile touches its 4 children during synthesis;
            # anything smaller thrashes pathologically
            raise ValueError("cache_tiles must be >= 4")
        h, w = int(source.shape[0]), int(source.shape[1])
        if h < tile or w < tile or h % tile or w % tile:
            raise ValueError(f"tile {tile} must divide scene dims {(h, w)}")
        self.source = source
        self.tile = tile
        self.base_shape = (h, w)
        levels = 0
        while ((h >> (levels + 1)) << (levels + 1) == h
               and (w >> (levels + 1)) << (levels + 1) == w
               and (h >> (levels + 1)) >= tile
               and (w >> (levels + 1)) >= tile
               and (h >> (levels + 1)) % tile == 0
               and (w >> (levels + 1)) % tile == 0):
            levels += 1
            if max_level is not None and levels >= max_level:
                break
        self.n_levels = levels + 1
        self._pixels = LRU(cache_tiles)   # frozen: shared by every later read
        self._digests: Dict[PyramidTile, Hashable] = {}
        self.synthesized = 0
        self.downsampled = 0

    @property
    def stats(self) -> dict:
        """Level-0 source reads, mean-pool builds, and pixel-cache hits."""
        return {"synthesized": self.synthesized,
                "downsampled": self.downsampled,
                "cache_hits": self._pixels.hits}

    # -- geometry ----------------------------------------------------------
    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.n_levels:
            raise ValueError(f"level {level} outside [0, {self.n_levels})")

    def level_shape(self, level: int) -> Tuple[int, int]:
        """Pixel dimensions ``(h, w)`` of one full level."""
        self._check_level(level)
        return (self.base_shape[0] >> level, self.base_shape[1] >> level)

    def grid(self, level: int) -> Tuple[int, int]:
        """Tile-grid dimensions ``(ny, nx)`` of one level."""
        h, w = self.level_shape(level)
        return (h // self.tile, w // self.tile)

    def parent(self, t: PyramidTile) -> Optional[PyramidTile]:
        """The tile one level up covering ``t`` (None at the top)."""
        if t.level + 1 >= self.n_levels:
            return None
        return PyramidTile(t.level + 1, t.ty // 2, t.tx // 2)

    def children(self, t: PyramidTile) -> List[PyramidTile]:
        """The four tiles one level down that ``t`` mean-pools (or [])."""
        if t.level == 0:
            return []
        return [PyramidTile(t.level - 1, 2 * t.ty + dy, 2 * t.tx + dx)
                for dy in (0, 1) for dx in (0, 1)]

    def viewport_tiles(self, level: int, origin: Tuple[int, int],
                       size: Tuple[int, int]) -> List[PyramidTile]:
        """Tiles covering a ``(h, w)`` window at ``origin`` (level pixels).

        The window is clamped to the level bounds — a viewer half off the
        slide edge still gets the visible tiles — and returned in row-major
        order (the service applies its own priority ordering).
        """
        self._check_level(level)
        lh, lw = self.level_shape(level)
        y0, x0 = int(origin[0]), int(origin[1])
        h, w = int(size[0]), int(size[1])
        if h < 1 or w < 1:
            raise ValueError(f"viewport size must be positive, got {size}")
        ya, yb = max(y0, 0), min(y0 + h, lh)
        xa, xb = max(x0, 0), min(x0 + w, lw)
        if ya >= yb or xa >= xb:
            return []
        t = self.tile
        return [PyramidTile(level, ty, tx)
                for ty in range(ya // t, (yb - 1) // t + 1)
                for tx in range(xa // t, (xb - 1) // t + 1)]

    # -- pixels ------------------------------------------------------------
    def tile_pixels(self, t: PyramidTile) -> np.ndarray:
        """Materialize one tile: source read at level 0, recursive 2x2
        mean-pool of its children above (deterministic pure NumPy)."""
        self._check_level(t.level)
        ny, nx = self.grid(t.level)
        if not (0 <= t.ty < ny and 0 <= t.tx < nx):
            raise ValueError(f"tile {t} outside grid {(ny, nx)}")
        hit = self._pixels.get(t)
        if hit is not None:
            return hit
        s = self.tile
        if t.level == 0:
            pixels = np.asarray(self.source.read_region(
                (t.ty * s, t.tx * s), (s, s)), dtype=np.float64).copy()
            self.synthesized += 1
            self._pixels.put(t, pixels)
            return pixels
        kids = [self.tile_pixels(c) for c in self.children(t)]
        block_shape = ((2 * s, 2 * s) if kids[0].ndim == 2
                       else (2 * s, 2 * s, kids[0].shape[2]))
        block = np.empty(block_shape)
        block[:s, :s] = kids[0]
        block[:s, s:] = kids[1]
        block[s:, :s] = kids[2]
        block[s:, s:] = kids[3]
        if block.ndim == 2:
            pixels = block.reshape(s, 2, s, 2).mean(axis=(1, 3))
        else:
            pixels = block.reshape(s, 2, s, 2, -1).mean(axis=(1, 3))
        self.downsampled += 1
        self._pixels.put(t, pixels)
        return pixels

    def digest(self, t: PyramidTile) -> Hashable:
        """Content digest of the tile's pixels (memoized per address).

        The same :func:`~repro.pipeline.engine.content_key` value the
        engine's result cache and the fleet router's rendezvous affinity
        compute for these pixels — one digest, every cache layer.
        """
        d = self._digests.get(t)
        if d is None:
            d = content_key(self.tile_pixels(t))
            self._digests[t] = d
        return d

    def describe(self) -> dict:
        """JSON-able summary for benchmark artifacts and logs."""
        return {
            "base_shape": list(self.base_shape),
            "tile": self.tile,
            "n_levels": self.n_levels,
            "grids": {level: list(self.grid(level))
                      for level in range(self.n_levels)},
            "total_tiles": sum(int(np.prod(self.grid(level)))
                               for level in range(self.n_levels)),
            "stats": self.stats,
        }
