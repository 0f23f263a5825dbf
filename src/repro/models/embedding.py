"""Token embedding for patch sequences (uniform or adaptive).

The embedding layer is the *only* place APF touches the model stack, and even
here nothing structural changes: tokens are linearly projected exactly as in
ViT. Positional information comes from a learned per-index table (paper
setting — Morton order makes indices spatially meaningful) optionally
augmented with a geometry embedding of each patch's (center, scale), which we
add as an extension and ablate.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import nn
from ..patching import PatchSequence

__all__ = ["PatchEmbedding", "collate_sequences", "pack_sequences"]


def collate_sequences(seqs: Sequence[PatchSequence]):
    """Stack per-image sequences into batch arrays.

    All sequences must share length, patch size, and channel count (use
    ``APFConfig.target_length`` to equalize adaptive lengths).

    Duck-typed over ``tokens()`` / ``coords()`` / ``valid``, so 2-D
    :class:`PatchSequence` and 3-D
    :class:`~repro.patching.volumetric.VolumeSequence` batches collate
    through the same call (their coordinate widths differ: 3 vs 4).

    Returns
    -------
    tokens: (B, L, C*Pm*Pm) float64 — or (B, L, Pm³) for volumes
    coords: (B, L, 3) float64 — or (B, L, 4) for volumes
    valid:  (B, L) bool
    """
    lengths = {len(s) for s in seqs}
    if len(lengths) != 1:
        raise ValueError(f"sequences have mixed lengths {sorted(lengths)}; "
                         "set APFConfig.target_length to batch adaptive sequences")
    tokens = np.stack([s.tokens() for s in seqs])
    coords = np.stack([s.coords() for s in seqs])
    valid = np.stack([s.valid for s in seqs])
    return tokens, coords, valid


def pack_sequences(seqs: Sequence, width: int, rows: int = 1):
    """Serving counterpart of :func:`collate_sequences`: no padding.

    The sequences run back to back through ``k = ceil(Σ len / width)``
    rows (one may straddle two), or ``rows`` if that is more; filler
    tokens (``valid`` False) fill the rest. Rows as wide as the bucket
    keep every matmul at the shape a sequence runs at alone. Returns
    ``tokens, coords, valid`` as ``collate_sequences`` does, shaped
    (k, width, ...), and ``segments``: one ``(start, length)`` int row per
    sequence, ``start`` in flattened tokens.
    """
    lengths = [len(s) for s in seqs]
    total = sum(lengths)
    rows = max(-(-total // width), rows)

    def cat(parts):
        fill = np.zeros((rows * width - total,) + parts[0].shape[1:],
                        parts[0].dtype)
        return np.concatenate(parts + [fill]).reshape(
            (rows, width) + parts[0].shape[1:])

    starts = np.cumsum([0] + lengths[:-1])
    return (cat([s.tokens() for s in seqs]), cat([s.coords() for s in seqs]),
            cat([s.valid for s in seqs]),
            np.stack([starts, lengths], axis=1).astype(np.int64))


class PatchEmbedding(nn.Module):
    """Linear patch projection + positional embeddings.

    Parameters
    ----------
    token_dim:
        Flattened patch length ``C * Pm * Pm``.
    dim:
        Model width.
    max_len:
        Size of the learned positional table (max sequence length).
    use_coords:
        Add a geometry embedding of (cy, cx, log2 size) — APF extension.
    coord_dim:
        Width of the geometry features: 3 for image sequences (default),
        4 for volumetric sequences (cz, cy, cx, log2 size).
    """

    def __init__(self, token_dim: int, dim: int, max_len: int,
                 use_coords: bool = True, coord_dim: int = 3,
                 rng: Optional[np.random.Generator] = None, dtype=np.float32):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.proj = nn.Linear(token_dim, dim, rng=rng, dtype=dtype)
        self.pos = nn.Parameter(
            (rng.normal(0, 0.02, size=(max_len, dim))).astype(dtype))
        self.use_coords = use_coords
        self.coord_proj = (nn.Linear(coord_dim, dim, rng=rng, dtype=dtype)
                           if use_coords else None)
        self.max_len = max_len
        self.dtype = dtype

    def forward(self, tokens, coords=None, valid=None,
                pos_ids=None) -> nn.Tensor:
        """Embed (B, L, T) tokens into a (B, L, D) tensor.

        Padding positions (``valid == False``) are zeroed after embedding so
        they contribute nothing to attention values.

        Accepts either raw numpy arrays (eager convenience: cast to the
        model dtype here, ``valid`` as a (B, L) bool mask) or pre-prepared
        :class:`~repro.nn.Tensor` graph inputs (the shape-stable form the
        compiled runtime traces: ``valid`` already a (B, L, 1) float mask).
        ``pos_ids`` (a (B, L) Tensor) indexes the positional table per token
        of a packed input; without it, token i takes position i.
        """
        b, length, _ = tokens.shape
        if pos_ids is None and length > self.max_len:
            raise ValueError(f"sequence length {length} exceeds positional "
                             f"table size {self.max_len}")
        if not isinstance(tokens, nn.Tensor):
            tokens = nn.Tensor(tokens.astype(self.dtype))
        x = self.proj(tokens)
        x = x + (self.pos[:length] if pos_ids is None
                 else nn.inference_op("gather", (), self.pos, pos_ids))
        if self.use_coords and coords is not None:
            if not isinstance(coords, nn.Tensor):
                coords = nn.Tensor(coords.astype(self.dtype))
            x = x + self.coord_proj(coords)
        if valid is not None:
            if not isinstance(valid, nn.Tensor):
                valid = nn.Tensor(valid.astype(self.dtype)[:, :, None])
            x = x * valid
        return x
