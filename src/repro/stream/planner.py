"""Streaming schedule planner — macro-tiles, Z-slabs, working-set estimates.

Decomposes a scene into the units the bounded-memory runner streams:

* **Images** split into *quadtree-aligned* macro-tiles: the tile side is a
  power of two and every origin is a multiple of it, so each macro-tile is
  exactly one cell of the virtual global quadtree over the slide — the APF
  partition of a tile is the subtree that the whole-slide quadtree would
  grow below that cell. Tiles are scheduled along the Morton curve by
  default, matching the paper's token ordering at the macro level (and
  keeping successive tiles spatially adjacent, which is what makes a
  small synthesis/IO cache effective).
* **Volumes** split into Z-slabs of whole slices (the paper's BTCV slice
  protocol has no inter-slice coupling, so any slab depth is exact).

The plan also carries a per-tile **working-set estimate** — the bytes the
runner holds while one macro-tile is in flight (input pixels, edge-detection
planes, token buffers, probability/class maps). The streaming bench gates
its measured peak against a small multiple of this estimate, which is what
turns "bounded memory" from a slogan into an assertion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..quadtree.hilbert import hilbert_sort_order
from ..quadtree.morton import morton_sort_order

__all__ = ["MacroTile", "StreamPlan", "plan_scene", "plan_volume"]

#: Upper bound on float64 working planes Canny-based APF preprocessing holds
#: at once (gray, blurred, gx, gy, magnitude, angle, NMS, label map).
_PREPROC_PLANES = 8


@dataclass(frozen=True)
class MacroTile:
    """One schedulable unit: a 2-D macro-tile or a 1-D Z-slab.

    ``origin``/``size`` address the scene through
    :meth:`TiledSource.read_region`; ``index`` is the tile's position in
    the plan's schedule. ``name`` is *origin-derived* (not index-derived),
    so checkpoint artifacts stay valid if the schedule order changes.
    """

    index: int
    origin: Tuple[int, ...]
    size: Tuple[int, ...]

    @property
    def name(self) -> str:
        if len(self.origin) == 1:
            return f"slab_z{self.origin[0]:06d}_d{self.size[0]:04d}"
        return f"tile_y{self.origin[0]:06d}_x{self.origin[1]:06d}"

    @property
    def npixels(self) -> int:
        return int(np.prod(self.size))

    def slices(self) -> Tuple[slice, ...]:
        return tuple(slice(o, o + s) for o, s in zip(self.origin, self.size))


@dataclass
class StreamPlan:
    """A deterministic streaming schedule plus its memory model.

    ``working_set`` is a per-component byte estimate for one in-flight
    macro-tile; :meth:`working_set_bytes` is its total. ``scene_bytes`` is
    what materializing the whole scene as float64 would cost — the number
    streaming exists to avoid.
    """

    kind: str
    scene_shape: Tuple[int, ...]
    tile: int
    order: str
    tiles: List[MacroTile]
    channels: int = 1
    out_channels: int = 1
    working_set: Dict[str, int] = field(default_factory=dict)

    def working_set_bytes(self) -> int:
        """Estimated resident bytes while one macro-tile is in flight."""
        return int(sum(self.working_set.values()))

    @property
    def scene_bytes(self) -> int:
        """Bytes to materialize the full scene as float64 (the avoided cost)."""
        return int(np.prod(self.scene_shape)) * 8

    def describe(self) -> dict:
        """JSON-able summary for benchmark artifacts and logs."""
        return {
            "kind": self.kind,
            "scene_shape": list(self.scene_shape),
            "tile": self.tile,
            "order": self.order,
            "n_tiles": len(self.tiles),
            "channels": self.channels,
            "out_channels": self.out_channels,
            "working_set": dict(self.working_set),
            "working_set_bytes": self.working_set_bytes(),
            "scene_bytes": self.scene_bytes,
        }


def _image_working_set(tile: int, channels: int, out_channels: int,
                       max_len: Optional[int]) -> Dict[str, int]:
    px = tile * tile
    tokens = 0
    if max_len:
        # patches (L, C, Pm, Pm) plus flattened tokens/coords — Pm² ≤ 64
        # covers every model config in the repo; dwarfed by the planes.
        tokens = max_len * channels * 64 * 8 * 2
    return {
        "input": px * channels * 8,
        "preprocess": px * _PREPROC_PLANES * 8,
        "tokens": tokens,
        "probabilities": px * out_channels * 8,
        "class_map": px * 8,
    }


def plan_scene(shape: Tuple[int, ...], tile: int = 1024, *,
               order: str = "morton", out_channels: int = 1,
               max_len: Optional[int] = None) -> StreamPlan:
    """Plan a 2-D scene ``(H, W)`` or ``(H, W, C)`` into macro-tiles.

    ``tile`` must be a power of two dividing both H and W — the quadtree
    alignment that makes each macro-tile a cell of the virtual global
    quadtree. ``order`` is ``"morton"`` (default), ``"hilbert"`` (strictly
    better tile-to-tile locality — no diagonal quadrant jumps) or
    ``"rowmajor"``. ``max_len`` (the serving model's positional capacity)
    refines the token term of the working-set estimate.
    """
    if len(shape) not in (2, 3):
        raise ValueError(f"expected (H, W) or (H, W, C), got {shape}")
    h, w = int(shape[0]), int(shape[1])
    channels = int(shape[2]) if len(shape) == 3 else 1
    if tile < 1 or tile & (tile - 1):
        raise ValueError(f"tile must be a positive power of two, got {tile}")
    if h < 1 or w < 1 or h % tile or w % tile:
        raise ValueError(f"tile {tile} must divide scene dims {(h, w)} "
                         "(quadtree alignment)")
    if order not in ("morton", "hilbert", "rowmajor"):
        raise ValueError(f"unknown order {order!r}")
    ny, nx = h // tile, w // tile
    tys, txs = np.divmod(np.arange(ny * nx), nx)
    if order == "morton":
        perm = morton_sort_order(tys, txs)
        tys, txs = tys[perm], txs[perm]
    elif order == "hilbert":
        perm = hilbert_sort_order(tys, txs)
        tys, txs = tys[perm], txs[perm]
    tiles = [MacroTile(i, (int(ty) * tile, int(tx) * tile), (tile, tile))
             for i, (ty, tx) in enumerate(zip(tys, txs))]
    return StreamPlan(kind="image", scene_shape=tuple(int(s) for s in shape),
                      tile=tile, order=order, tiles=tiles, channels=channels,
                      out_channels=out_channels,
                      working_set=_image_working_set(tile, channels,
                                                     out_channels, max_len))


def plan_volume(shape: Tuple[int, int, int], slab: int = 8, *,
                out_channels: int = 1,
                max_len: Optional[int] = None) -> StreamPlan:
    """Plan a ``(S, Z, Z)`` volume into Z-slabs of ``slab`` slices.

    The last slab may be ragged — slices are independent under the BTCV
    protocol, so any slab decomposition reproduces the per-slice reference
    exactly. Slabs are scheduled in Z order.
    """
    if len(shape) != 3:
        raise ValueError(f"expected a (S, Z, Z) volume shape, got {shape}")
    s, z1, z2 = (int(d) for d in shape)
    if min(s, z1, z2) < 1:
        raise ValueError(f"volume dims must be positive, got {shape}")
    if not 1 <= slab <= s:
        raise ValueError(f"slab depth must be in [1, {s}], got {slab}")
    tiles = [MacroTile(i, (z0,), (min(slab, s - z0),))
             for i, z0 in enumerate(range(0, s, slab))]
    px = slab * z1 * z2
    tokens = max_len * 64 * 8 * 2 * slab if max_len else 0
    working_set = {
        "input": px * 8,
        "preprocess": z1 * z2 * _PREPROC_PLANES * 8,   # one slice at a time
        "tokens": tokens,
        "probabilities": px * out_channels * 8,
        "class_map": px * 8,
    }
    return StreamPlan(kind="volume", scene_shape=(s, z1, z2), tile=slab,
                      order="zorder", tiles=tiles, channels=1,
                      out_channels=out_channels, working_set=working_set)
