"""Patch-sequence container shared by uniform and adaptive patching.

A :class:`PatchSequence` is what gets fed to any transformer model: a fixed
number ``L`` of ``Pm x Pm`` patches plus the geometry metadata needed to
scatter token predictions back onto the image plane. It is a
:class:`~repro.rows.Rows` table, so reordering, dropping and padding tokens
are the row operations it shares with the leaf sets and
:class:`~repro.patching.volumetric.VolumeSequence`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rows import Rows

__all__ = ["PatchSequence"]


@dataclass
class PatchSequence(Rows):
    """A model-ready sequence of same-size patches with geometry metadata.

    Attributes
    ----------
    patches:
        (L, C, Pm, Pm) float array; padded slots are all-zero.
    ys, xs, sizes:
        (L,) original leaf geometry in pixels. Padded slots have ``sizes == 0``.
    valid:
        (L,) bool; False marks padding.
    image_size:
        Side length Z of the source image.
    patch_size:
        Model patch size Pm (every patch was projected to this size).
    n_real:
        Number of real (non-padded) tokens *before* any random drop.
    n_dropped:
        Tokens dropped to reach length L (0 when padding was applied instead).
    """

    ROWS = ("patches", "ys", "xs", "sizes", "valid")
    AXES = ("ys", "xs")

    patches: np.ndarray
    ys: np.ndarray
    xs: np.ndarray
    sizes: np.ndarray
    valid: np.ndarray
    image_size: int
    patch_size: int
    n_real: int
    n_dropped: int = 0

    @property
    def scene_size(self) -> int:
        """Side length of the source scene (here: ``image_size``)."""
        return self.image_size

    @property
    def channels(self) -> int:
        return self.patches.shape[1]

    def tokens(self) -> np.ndarray:
        """Flatten to (L, C*Pm*Pm) — the linear-embedding input of a ViT."""
        length = len(self.patches)
        return self.patches.reshape(length, -1)

    def coords(self) -> np.ndarray:
        """Normalized geometry features (L, 3): center y/Z, center x/Z, log2 size.

        Padded slots are zeros. Used by the optional coordinate positional
        embedding (an extension over the paper's index embedding).
        """
        z = float(self.image_size)
        out = np.zeros((len(self), 3), dtype=np.float64)
        v = self.valid
        cy = self.ys[v] + self.sizes[v] / 2.0
        cx = self.xs[v] + self.sizes[v] / 2.0
        out[v, 0] = cy / z
        out[v, 1] = cx / z
        out[v, 2] = np.log2(self.sizes[v]) / max(np.log2(z), 1.0)
        return out

    def coverage_fraction(self) -> float:
        """Fraction of image area covered by retained (non-dropped) tokens."""
        area = float((self.sizes[self.valid].astype(np.int64) ** 2).sum())
        return area / float(self.image_size) ** 2

    def scatter_to_image(self, token_maps: np.ndarray,
                         fill: float = 0.0) -> np.ndarray:
        """Paint per-token spatial predictions back onto the image plane.

        Parameters
        ----------
        token_maps:
            (L, K, Pm, Pm) or (L, K) array. Spatial maps are upsampled
            (nearest) from Pm to each token's original leaf size; flat vectors
            are broadcast over the leaf footprint.
        fill:
            Value for pixels not covered by any retained token (dropped leaves).

        Returns
        -------
        (K, Z, Z) array.
        """
        tm = np.asarray(token_maps)
        if tm.ndim == 2:
            tm = np.broadcast_to(tm[:, :, None, None],
                                 tm.shape + (self.patch_size, self.patch_size))
        if tm.ndim != 4 or len(tm) != len(self):
            raise ValueError(f"token_maps shape {np.shape(token_maps)} does not "
                             f"match sequence of length {len(self)}")
        k = tm.shape[1]
        z = self.image_size
        out = np.full((k, z, z), fill, dtype=np.float64)
        pm = self.patch_size
        for i in np.flatnonzero(self.valid):
            s = int(self.sizes[i])
            y, x = int(self.ys[i]), int(self.xs[i])
            patch = tm[i]
            if s == pm:
                up = patch
            elif s > pm:
                factor = s // pm
                up = np.repeat(np.repeat(patch, factor, axis=1), factor, axis=2)
            else:  # leaf smaller than model patch: average-pool down
                factor = pm // s
                up = patch.reshape(k, s, factor, s, factor).mean(axis=(2, 4))
            out[:, y:y + s, x:x + s] = up
        return out
