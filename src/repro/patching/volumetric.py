"""Volumetric adaptive patching: APF for 3-D volumes via an octree.

The natural extension of the paper (its carrier UNETR is natively 3-D): the
same blur→detail→tree→Morton→downscale pipeline, with cubes instead of
squares. Detail is gradient-magnitude density (a 3-D Canny is ill-defined;
gradient energy is the standard surrogate). Tokens are ``Pm^3`` cubes
flattened to ``C*Pm^3`` vectors — consumable by the same ViT backbone.

The patcher shares its base :class:`~repro.patching.adaptive.TreePatcher`
with the 2-D :class:`~repro.patching.adaptive.AdaptivePatcher`: one fixed
sequence length (``target_length``) via random drop / zero-pad, so volumes
batch into the same ``(B, L, Pm^3)`` collated tensors the pipeline
produces for images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import ndimage

from ..quadtree.octree import OctreeLeaves, build_octree
from ..rows import Rows
from .adaptive import TreePatcher

__all__ = ["VolumeAPFConfig", "VolumetricAdaptivePatcher", "VolumeSequence"]


@dataclass
class VolumeSequence(Rows):
    """Model-ready sequence of same-size cubic patches + geometry.

    The volumetric :class:`~repro.patching.sequence.PatchSequence`, built on
    the same row algebra: padded slots (``valid == False``) carry zero
    patches and ``sizes == 0``.
    """

    ROWS = ("patches", "zs", "ys", "xs", "sizes", "valid")
    AXES = ("zs", "ys", "xs")

    patches: np.ndarray            #: (L, Pm, Pm, Pm)
    zs: np.ndarray
    ys: np.ndarray
    xs: np.ndarray
    sizes: np.ndarray
    volume_size: int
    patch_size: int
    valid: np.ndarray = field(default=None)  # type: ignore[assignment]
    n_real: int = -1
    n_dropped: int = 0

    def __post_init__(self) -> None:
        if self.valid is None:
            self.valid = np.ones(len(self.patches), dtype=bool)
        if self.n_real < 0:
            self.n_real = len(self.patches)
        super().__post_init__()

    @property
    def scene_size(self) -> int:
        """Side length of the source scene (here: ``volume_size``)."""
        return self.volume_size

    def tokens(self) -> np.ndarray:
        return self.patches.reshape(len(self), -1)

    def coords(self) -> np.ndarray:
        """(L, 4): normalized center (z, y, x) + log2 size; zeros at padding."""
        n = float(self.volume_size)
        out = np.zeros((len(self), 4), dtype=np.float64)
        v = self.valid
        out[v, 0] = (self.zs[v] + self.sizes[v] / 2) / n
        out[v, 1] = (self.ys[v] + self.sizes[v] / 2) / n
        out[v, 2] = (self.xs[v] + self.sizes[v] / 2) / n
        out[v, 3] = (np.log2(np.maximum(self.sizes[v], 1))
                     / max(np.log2(n), 1.0))
        return out

    def coverage_fraction(self) -> float:
        """Fraction of volume covered by retained (non-dropped) tokens."""
        vol = float((self.sizes[self.valid].astype(np.int64) ** 3).sum())
        return vol / float(self.volume_size) ** 3

    def scatter_to_volume(self, token_values: np.ndarray,
                          fill: float = 0.0) -> np.ndarray:
        """Broadcast per-token scalars (L,) or cubes (L, Pm, Pm, Pm) back
        onto the (Z, Z, Z) volume. Padded/dropped regions keep ``fill``."""
        tv = np.asarray(token_values)
        n = self.volume_size
        out = np.full((n, n, n), fill, dtype=np.float64)
        pm = self.patch_size
        for i in np.flatnonzero(self.valid):
            s = int(self.sizes[i])
            z, y, x = int(self.zs[i]), int(self.ys[i]), int(self.xs[i])
            if tv.ndim == 1:
                out[z:z + s, y:y + s, x:x + s] = tv[i]
            else:
                f = s // pm
                cube = tv[i]
                if f > 1:
                    cube = np.repeat(np.repeat(np.repeat(cube, f, 0), f, 1), f, 2)
                out[z:z + s, y:y + s, x:x + s] = cube
        return out


@dataclass
class VolumeAPFConfig:
    """Hyper-parameters of the volumetric patcher."""

    patch_size: int = 4
    split_value: float = 8.0
    max_depth: Optional[int] = None
    #: Gaussian pre-smoothing sigma for the gradient detail map.
    blur_sigma: float = 1.0
    #: Quantile of gradient magnitude counted as "detail" (edge surrogate).
    detail_quantile: float = 0.97
    #: Fixed sequence length L. None keeps the natural length (no pad/drop).
    target_length: Optional[int] = None
    #: Over-length policy: "random" drops uniformly; "coarsest-first" drops
    #: the largest (least detailed) cubes first.
    drop_strategy: str = "random"
    #: RNG seed for the random drop/pad step.
    seed: int = 0

    def __post_init__(self) -> None:
        p = self.patch_size
        if p < 1 or (p & (p - 1)):
            raise ValueError(f"patch_size must be a positive power of two, got {p}")
        if not 0.0 < self.detail_quantile < 1.0:
            raise ValueError("detail_quantile must be in (0, 1)")
        if self.drop_strategy not in ("random", "coarsest-first"):
            raise ValueError(f"unknown drop strategy {self.drop_strategy!r}")


class VolumetricAdaptivePatcher(TreePatcher):
    """Octree-based APF for (Z, Z, Z) volumes."""

    CONFIG = VolumeAPFConfig

    def detail_map(self, volume: np.ndarray) -> np.ndarray:
        """Gradient-magnitude detail mask (3-D edge surrogate)."""
        v = np.asarray(volume, dtype=np.float64)
        if v.ndim != 3:
            raise ValueError(f"expected a 3-D volume, got shape {v.shape}")
        smooth = ndimage.gaussian_filter(v, self.config.blur_sigma)
        gz, gy, gx = np.gradient(smooth)
        mag = np.sqrt(gz ** 2 + gy ** 2 + gx ** 2)
        thr = np.quantile(mag, self.config.detail_quantile)
        return (mag > thr).astype(np.float64)

    def build_tree(self, volume: np.ndarray) -> OctreeLeaves:
        detail = self.detail_map(volume)
        cfg = self.config
        return build_octree(detail, cfg.split_value,
                            self._tree_depth(detail.shape[0]),
                            min_size=cfg.patch_size)

    def extract(self, volume: np.ndarray,
                leaves: Optional[OctreeLeaves] = None,
                config: Optional[VolumeAPFConfig] = None) -> VolumeSequence:
        """Full pipeline: volume → model-ready :class:`VolumeSequence`.

        ``leaves`` may be supplied to reuse a tree (e.g. to patchify a label
        volume with the same partition). ``config`` overrides ``self.config``
        for this call only — the shared config is never mutated, so
        concurrent callers are safe.
        """
        v = np.asarray(volume, dtype=np.float64)
        if leaves is None:
            leaves = self.build_tree(v)
        cfg = config if config is not None else self.config
        leaves = leaves.sorted_by_morton()
        pm = cfg.patch_size
        seq = VolumeSequence(self._gather(v, leaves, pm), leaves.zs.copy(),
                             leaves.ys.copy(), leaves.xs.copy(),
                             leaves.sizes.copy(), v.shape[0], pm)
        if cfg.target_length is not None:
            seq = self.fit_length(seq, cfg.target_length)
        return seq

    def _gather(self, v: np.ndarray, leaves: OctreeLeaves,
                pm: int) -> np.ndarray:
        """Each leaf cube of ``v``, area-downscaled to (Pm, Pm, Pm)."""
        patches = np.zeros((len(leaves), pm, pm, pm), dtype=np.float64)
        for i, s in enumerate(leaves.sizes):
            s = int(s)
            z, y, x = int(leaves.zs[i]), int(leaves.ys[i]), int(leaves.xs[i])
            cube = v[z:z + s, y:y + s, x:x + s]
            if s > pm:
                f = s // pm
                cube = cube.reshape(pm, f, pm, f, pm, f).mean(axis=(1, 3, 5))
            patches[i] = cube
        return patches
