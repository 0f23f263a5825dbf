"""The Adaptive Patch Framework (APF) — the paper's core contribution.

Pipeline (paper Fig. 1 / Algorithm 1 lines 3-5):

1. Gaussian blur the image (kernel per resolution, §III-A).
2. Canny edge detection with thresholds ``(t_l, t_h) = (100, 200)``.
3. Quadtree partition of the edge map: split while edge mass > ``v`` and
   depth < ``H`` (Eq. 6).
4. Order leaves along the Morton z-curve.
5. Project every leaf patch down to the common minimum size ``Pm`` (area
   downscale) — step 4' in Fig. 1.
6. Randomly drop or zero-pad to the fixed sequence length ``L``.

The result is a :class:`~repro.patching.sequence.PatchSequence` identical in
interface to uniform patching, so any transformer model consumes it
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..imaging import canny_edges, gaussian_blur, to_grayscale
from ..imaging.filters import KSIZE_FOR_RESOLUTION
from ..quadtree import QuadtreeLeaves, balance_2to1, build_quadtree
from .sequence import PatchSequence
from .transfer import gather

__all__ = ["APFConfig", "AdaptivePatcher", "TreePatcher"]


def _variance_detail(gray: np.ndarray, window: int = 4) -> np.ndarray:
    """Ablation criterion: local variance in non-overlapping windows,
    spread back to pixel resolution."""
    z = gray.shape[0]
    w = window
    if z % w:
        raise ValueError(f"window {w} must divide image size {z}")
    blocks = gray.reshape(z // w, w, z // w, w)
    var = blocks.var(axis=(1, 3))
    return np.repeat(np.repeat(var, w, axis=0), w, axis=1)


@dataclass
class APFConfig:
    """Hyper-parameters of the adaptive patcher.

    Defaults follow the paper: thresholds (100, 200), kernel size chosen per
    resolution from §III-A's table, split driven by edge-pixel count.
    """

    #: Model patch size Pm every leaf is projected to.
    patch_size: int = 4
    #: Quadtree split value v (edge-pixel mass threshold).
    split_value: float = 8.0
    #: Maximum quadtree depth H; None derives it from patch_size (leaves stop
    #: at Pm so no leaf needs upscaling).
    max_depth: Optional[int] = None
    #: Fixed sequence length L. None keeps the natural length (no pad/drop).
    target_length: Optional[int] = None
    #: Gaussian kernel size; 0 picks from the paper's per-resolution table.
    blur_ksize: int = 0
    #: Canny hysteresis thresholds.
    canny_low: float = 100.0
    canny_high: float = 200.0
    #: Detail criterion: "canny" (paper) or "variance" (ablation).
    criterion: str = "canny"
    #: Token ordering: "morton" (paper), "hilbert" or "rowmajor" (ablations).
    order: str = "morton"
    #: Over-length policy: "random" (paper) drops uniformly; "coarsest-first"
    #: drops the largest (least detailed) leaves first — an extension that
    #: preserves the fine structure the quadtree refined for.
    drop_strategy: str = "random"
    #: Enforce the AMR 2:1 balance constraint (optional extension, §II-A).
    balance: bool = False
    #: RNG seed for the random drop/pad step.
    seed: int = 0

    def __post_init__(self) -> None:
        p = self.patch_size
        if p < 1 or (p & (p - 1)):
            raise ValueError(f"patch_size must be a positive power of two, got {p}")
        if self.criterion not in ("canny", "variance"):
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.order not in ("morton", "hilbert", "rowmajor"):
            raise ValueError(f"unknown order {self.order!r}")
        if self.drop_strategy not in ("random", "coarsest-first"):
            raise ValueError(f"unknown drop strategy {self.drop_strategy!r}")


class TreePatcher:
    """What the 2-D and 3-D APF patchers share around their tree stages.

    Config and drop-RNG setup, the natural (no pad/drop) extraction and
    stage 6's drop/pad to a fixed length. Subclasses name their config
    class in ``CONFIG`` and implement ``extract(x, leaves=None,
    config=None)`` — stages 1-5 for one scene, then :meth:`fit_length`
    when the config sets ``target_length``.
    """

    CONFIG: type

    def __init__(self, config=None, **overrides):
        if config is None:
            config = self.CONFIG(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides")
        self.config = config
        self._rng = np.random.default_rng(config.seed)

    def __call__(self, x: np.ndarray):
        return self.extract(x)

    def _tree_depth(self, z: int) -> int:
        """Maximum tree depth H for a scene of side ``z``: the config's, or
        by default the depth at which leaves reach Pm (none is upscaled)."""
        cfg = self.config
        if cfg.max_depth is not None:
            return cfg.max_depth
        return int(np.log2(z // cfg.patch_size))

    def extract_natural(self, x: np.ndarray):
        """Full pipeline *without* the pad/drop step (stage 6).

        Used at inference: a single scene needs no batching, so the natural
        sequence avoids the coverage holes random dropping would leave in the
        reconstructed mask.
        """
        cfg = self.config
        if cfg.target_length is None:
            return self.extract(x)
        # Per-call config copy: mutating the shared config in place would race
        # with concurrent extracts (the pipeline worker pool shares a patcher).
        return self.extract(x, config=replace(cfg, target_length=None))

    def fit_length(self, seq, length: int,
                   rng: Optional[np.random.Generator] = None):
        """Stage 6: randomly drop (too long) or zero-pad (too short) to ``length``.

        ``rng`` overrides the patcher's own stream — the pipeline uses
        per-scene generators so results are independent of worker count.
        """
        rng = rng if rng is not None else self._rng
        n = len(seq)
        if n == length:
            return seq
        if n < length:
            return seq.pad(length - n)
        if self.config.drop_strategy == "coarsest-first":
            # Drop the largest (lowest-detail) leaves first; ties broken
            # randomly so repeated epochs still vary.
            jitter = rng.random(n)
            priority = np.lexsort((jitter, -seq.sizes))  # big sizes first
            keep = np.sort(priority[n - length:])
        else:
            keep = np.sort(rng.choice(n, size=length, replace=False))
        return seq.take(keep, n_dropped=n - length)


class AdaptivePatcher(TreePatcher):
    """Callable implementing APF preprocessing for one image at a time.

    Examples
    --------
    >>> patcher = AdaptivePatcher(APFConfig(patch_size=4, split_value=8.0))
    >>> seq = patcher(image)              # image: (Z, Z) or (Z, Z, C) in [0,1]
    >>> tokens = seq.tokens()             # (L, C*Pm*Pm) for the embedding layer
    """

    CONFIG = APFConfig

    # -- pipeline stages (exposed individually for tests & benches) -------
    def detail_map(self, image: np.ndarray) -> np.ndarray:
        """Stages 1-2: blur + edge detection → detail density map."""
        gray = to_grayscale(np.asarray(image, dtype=np.float64))
        z = gray.shape[0]
        cfg = self.config
        k = cfg.blur_ksize or KSIZE_FOR_RESOLUTION.get(z, 3)
        blurred = gaussian_blur(gray, k)
        if cfg.criterion == "canny":
            return canny_edges(blurred, cfg.canny_low, cfg.canny_high).astype(np.float64)
        return _variance_detail(blurred, window=max(cfg.patch_size, 2)) * 16.0

    def build_tree(self, image: np.ndarray) -> QuadtreeLeaves:
        """Stage 3: quadtree over the detail map (Eq. 6)."""
        detail = self.detail_map(image)
        cfg = self.config
        leaves = build_quadtree(detail, cfg.split_value,
                                self._tree_depth(detail.shape[0]),
                                min_size=cfg.patch_size)
        if cfg.balance:
            leaves = balance_2to1(leaves)
        return leaves

    def extract(self, image: np.ndarray,
                leaves: Optional[QuadtreeLeaves] = None,
                config: Optional[APFConfig] = None) -> PatchSequence:
        """Full pipeline: image → model-ready :class:`PatchSequence`.

        ``leaves`` may be supplied to reuse a tree (e.g. to patchify the
        label mask with the same partition as the input image).
        ``config`` overrides ``self.config`` for this call only — the shared
        config object is never mutated, so concurrent callers are safe.
        """
        img = np.asarray(image, dtype=np.float64)
        if img.ndim == 2:
            img = img[:, :, None]
        h, w = img.shape[:2]
        if h != w:
            raise ValueError(f"expected square image, got {img.shape}")
        if leaves is None:
            leaves = self.build_tree(image)
        cfg = config if config is not None else self.config

        if cfg.order == "morton":
            leaves = leaves.sorted_by_morton()
        elif cfg.order == "hilbert":
            leaves = leaves.sorted_by_hilbert()

        pm = cfg.patch_size
        n = len(leaves)
        seq = PatchSequence(
            patches=gather(img, leaves, pm),
            ys=leaves.ys.copy(), xs=leaves.xs.copy(), sizes=leaves.sizes.copy(),
            valid=np.ones(n, dtype=bool),
            image_size=h, patch_size=pm, n_real=n,
        )
        if cfg.target_length is not None:
            seq = self.fit_length(seq, cfg.target_length)
        return seq
