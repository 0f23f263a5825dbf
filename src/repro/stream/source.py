"""Tiled scene sources — address gigapixel scenes without materializing them.

Every inference path in the repo so far takes a fully-materialized ndarray;
a 64K² RGB slide is ~100 GB as float64, which no single host holds. A
:class:`TiledSource` decouples *addressing* a scene from *storing* it: the
streaming planner asks only for ``shape``/``kind``, and the runner reads one
macro-tile region at a time, so peak memory is set by the tile size, never
the scene size.

Two concrete sources:

* :class:`ArraySource` — adapter over an in-memory array (the degenerate
  case; lets every streaming test compare against the non-streamed paths
  on identical pixels).
* :class:`VirtualWSISource` — a *procedural* whole-slide image in the
  style of :mod:`repro.data.synthetic_paip`: each aligned tile is
  synthesized on demand from a per-tile seeded RNG, so a 16K²–64K² slide
  is fully addressable, deterministic down to the bit, and never exists
  in memory as a whole. Morphology scales (tissue blobs, per-organ lesion
  granularity, stripe orientation) follow the same per-organ ladder as
  ``generate_wsi``; smooth fields are synthesized on a coarse grid and
  bilinearly upsampled, so a tile costs milliseconds instead of the
  seconds full-resolution Gaussian filtering would take.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple

import numpy as np
from scipy import ndimage

from ..cache import LRU
from ..data.synthetic_paip import _ORGAN_PARAMS, NUM_ORGAN_CLASSES, PAIPSample

__all__ = ["TiledSource", "ArraySource", "VirtualWSISource"]


class TiledSource(Protocol):
    """What the streaming planner/runner need from a scene.

    ``kind`` is ``"image"`` (shape ``(H, W)`` or ``(H, W, C)``; regions are
    2-D ``(y, x)`` rectangles) or ``"volume"`` (shape ``(S, Z, Z)``;
    regions are 1-D ``(z,)`` slabs of whole slices).
    """

    shape: Tuple[int, ...]
    kind: str

    def read_region(self, origin: Tuple[int, ...],
                    size: Tuple[int, ...]) -> np.ndarray:
        """Materialize one region; the only way pixels leave the source."""
        ...  # pragma: no cover - protocol


def _check_region(shape: Tuple[int, ...], kind: str, origin, size) -> None:
    ndims = 1 if kind == "volume" else 2
    if len(origin) != ndims or len(size) != ndims:
        raise ValueError(f"{kind} regions take {ndims}-D origin/size, got "
                         f"origin={tuple(origin)} size={tuple(size)}")
    for d, (o, s) in enumerate(zip(origin, size)):
        if s < 1 or o < 0 or o + s > shape[d]:
            raise ValueError(f"region origin={tuple(origin)} size={tuple(size)} "
                             f"out of bounds for scene shape {shape}")


class ArraySource:
    """In-memory adapter: the whole scene is already an ndarray.

    Exists so every streaming path can be bit-compared against the
    non-streamed reference on identical pixels — and so moderate scenes
    can use the streaming API (bounded *output* assembly, resume) even
    when the input fits in RAM. Regions are views, not copies; treat them
    as read-only.
    """

    def __init__(self, array: np.ndarray, kind: Optional[str] = None):
        array = np.asarray(array)
        if array.ndim == 2:
            inferred = "image"
        elif array.ndim == 3:
            # (H, W, C) image planes are thin; (S, Z, Z) volumes are not.
            inferred = "image" if array.shape[2] in (1, 3, 4) else "volume"
        else:
            raise ValueError(f"expected a 2-D/3-D scene, got shape {array.shape}")
        self.kind = kind if kind is not None else inferred
        if self.kind not in ("image", "volume"):
            raise ValueError(f"unknown scene kind {self.kind!r}")
        if self.kind == "volume" and array.ndim != 3:
            raise ValueError(f"volume sources need (S, Z, Z), got {array.shape}")
        self.array = array
        self.shape = array.shape

    def read_region(self, origin, size) -> np.ndarray:
        _check_region(self.shape, self.kind, origin, size)
        if self.kind == "volume":
            return self.array[origin[0]:origin[0] + size[0]]
        return self.array[origin[0]:origin[0] + size[0],
                          origin[1]:origin[1] + size[1]]


#: Smooth fields are synthesized on a ``tile/GRID_FACTOR`` grid and
#: bilinearly upsampled — correlation lengths match full-resolution
#: filtering while costing (GRID_FACTOR²)x less.
_GRID_FACTOR = 8


def _smooth_field(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    """Gaussian-filtered white noise on the coarse grid (unnormalized)."""
    return ndimage.gaussian_filter(rng.standard_normal((n, n)), sigma,
                                   mode="reflect")


def _bilerp_up(field: np.ndarray, out: int) -> np.ndarray:
    """Bilinear upsample of a square coarse field to ``out``² (unit range).

    Samples the coarse field at fine-pixel centers with edge clamping —
    deterministic pure-NumPy, no scipy spline state.
    """
    n = field.shape[0]
    g = out // n
    pos = (np.arange(out) + 0.5) / g - 0.5
    lo = np.floor(pos).astype(np.int64)
    frac = pos - lo
    i0 = np.clip(lo, 0, n - 1)
    i1 = np.clip(lo + 1, 0, n - 1)
    f00 = field[np.ix_(i0, i0)]
    f01 = field[np.ix_(i0, i1)]
    f10 = field[np.ix_(i1, i0)]
    f11 = field[np.ix_(i1, i1)]
    wy = frac[:, None]
    wx = frac[None, :]
    up = (f00 * (1 - wy) * (1 - wx) + f01 * (1 - wy) * wx
          + f10 * wy * (1 - wx) + f11 * wy * wx)
    lo_v, hi_v = up.min(), up.max()
    return (up - lo_v) / (hi_v - lo_v + 1e-12)


class VirtualWSISource:
    """A procedural gigapixel WSI addressable tile by tile.

    Deterministic per ``(resolution, seed, organ, tile)``: tile ``(ty, tx)``
    is a pure function of those values, so any access order — streaming,
    resumed, or random — observes identical pixels. Stripe phase uses
    absolute slide coordinates, so the intralesional architecture is
    continuous across tile boundaries.

    Parameters
    ----------
    resolution:
        Slide side length; must be a multiple of ``tile``.
    tile:
        Synthesis granularity (power of two ≥ 32). Reads of any aligned or
        unaligned region are assembled from these tiles.
    organ:
        Class in ``[0, 6)`` controlling lesion morphology (None: drawn
        deterministically from the seed).
    cache_tiles:
        Small LRU over synthesized tiles, serving repeated/overlapping
        reads. Memory is bounded by ``cache_tiles`` tile payloads.
    """

    kind = "image"

    def __init__(self, resolution: int, *, seed: int = 0,
                 organ: Optional[int] = None, tile: int = 1024,
                 cache_tiles: int = 2):
        if tile < 32 or tile & (tile - 1):
            raise ValueError(f"tile must be a power of two >= 32, got {tile}")
        if resolution < tile or resolution % tile:
            raise ValueError(f"resolution {resolution} must be a positive "
                             f"multiple of tile {tile}")
        if organ is None:
            root = np.random.default_rng(
                np.random.SeedSequence([resolution, seed, 0xA1]))
            organ = int(root.integers(0, NUM_ORGAN_CLASSES))
        if not 0 <= organ < NUM_ORGAN_CLASSES:
            raise ValueError(f"organ must be in [0, {NUM_ORGAN_CLASSES}), "
                             f"got {organ}")
        self.resolution = resolution
        self.seed = seed
        self.organ = organ
        self.tile = tile
        self.shape = (resolution, resolution, 3)
        self._cache = LRU(cache_tiles)    # (ty, tx) -> frozen (image, mask)

    @property
    def grid(self) -> Tuple[int, int]:
        """Tile-grid shape ``(ny, nx)``."""
        return (self.resolution // self.tile, self.resolution // self.tile)

    # -- per-tile synthesis ------------------------------------------------
    def _synth(self, ty: int, tx: int) -> Tuple[np.ndarray, np.ndarray]:
        """Synthesize tile ``(ty, tx)`` → (image (T, T, 3), mask (T, T))."""
        ny, nx = self.grid
        if not (0 <= ty < ny and 0 <= tx < nx):
            raise ValueError(f"tile ({ty}, {tx}) outside grid {self.grid}")
        hit = self._cache.get((ty, tx))
        if hit is not None:
            return hit
        rng = np.random.default_rng(np.random.SeedSequence(
            [self.resolution, self.seed, self.organ, self.tile, ty, tx, 0xF1]))
        tint, lesion_div, prevalence = _ORGAN_PARAMS[self.organ]
        t = self.tile
        n = t // _GRID_FACTOR

        # Same construction as generate_wsi at z = tile, on the coarse grid:
        # tissue silhouette, class-irrelevant texture, organ-scaled lesions.
        tissue_field = _bilerp_up(_smooth_field(rng, n, n / 6.0), t)
        tissue = tissue_field > np.quantile(tissue_field, 0.45)
        tex = _bilerp_up(_smooth_field(rng, n, max(n / 16.0, 1.0)), t)
        lesion_field = _bilerp_up(
            _smooth_field(rng, n, max(n / lesion_div, 0.6)), t)
        if tissue.any():
            thr = np.quantile(lesion_field[tissue], 1.0 - 0.22 * prevalence)
        else:  # pragma: no cover - tissue quantile always keeps 55%
            thr = 1.1
        lesion = (lesion_field > thr) & tissue

        # Stripe phase in absolute slide coordinates: continuous across tiles.
        theta = self.organ * np.pi / NUM_ORGAN_CLASSES
        yy = (ty * t + np.arange(t))[:, None]
        xx = (tx * t + np.arange(t))[None, :]
        stripes = 0.5 + 0.5 * np.sin(
            2 * np.pi * (xx * np.cos(theta) + yy * np.sin(theta)) / 4.0)

        img = np.full((t, t, 3), 0.93)
        for c in range(3):
            channel = img[:, :, c]
            channel[tissue] = tint[c] * (0.55 + 0.45 * tex[tissue])
            channel[lesion] = tint[c] * (0.15 + 0.25 * tex[lesion]
                                         + 0.30 * stripes[lesion])
        img += 0.004 * rng.standard_normal((t, t, 3))
        img = np.clip(img, 0.0, 1.0)
        mask = lesion.astype(np.float64)
        # Cached tiles are shared across reads — freeze them.
        img.setflags(write=False)
        mask.setflags(write=False)
        self._cache.put((ty, tx), (img, mask))
        return img, mask

    def tile_sample(self, ty: int, tx: int) -> PAIPSample:
        """One synthesized tile as a :class:`~repro.data.synthetic_paip.PAIPSample`."""
        img, mask = self._synth(ty, tx)
        return PAIPSample(image=img, mask=mask, organ=self.organ)

    # -- region reads ------------------------------------------------------
    def _assemble(self, origin, size, plane: int) -> np.ndarray:
        """Gather region pixels from overlapping tiles (0: image, 1: mask)."""
        y0, x0 = origin
        h, w = size
        t = self.tile
        if (h, w) == (t, t) and y0 % t == 0 and x0 % t == 0:
            return self._synth(y0 // t, x0 // t)[plane]   # aligned fast path
        shape = (h, w, 3) if plane == 0 else (h, w)
        out = np.empty(shape)
        for ty in range(y0 // t, (y0 + h - 1) // t + 1):
            for tx in range(x0 // t, (x0 + w - 1) // t + 1):
                data = self._synth(ty, tx)[plane]
                ya, yb = max(y0, ty * t), min(y0 + h, (ty + 1) * t)
                xa, xb = max(x0, tx * t), min(x0 + w, (tx + 1) * t)
                out[ya - y0:yb - y0, xa - x0:xb - x0] = \
                    data[ya - ty * t:yb - ty * t, xa - tx * t:xb - tx * t]
        return out

    def read_region(self, origin, size) -> np.ndarray:
        """(h, w, 3) image pixels of the region (read-only when aligned)."""
        _check_region(self.shape, self.kind, origin, size)
        return self._assemble(origin, size, 0)

    def read_mask_region(self, origin, size) -> np.ndarray:
        """(h, w) ground-truth lesion mask of the region."""
        _check_region(self.shape, self.kind, origin, size)
        return self._assemble(origin, size, 1)
