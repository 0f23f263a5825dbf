"""Vanilla ViT backbone plus segmentation / classification heads.

The backbone is the unmodified ViT of Dosovitskiy et al. — APF's contract is
that the attention mechanism and architecture stay intact, so this module
contains *zero* APF-specific branches: it consumes whatever
:func:`repro.models.embedding.collate_sequences` produces, or the packed
rows of :func:`~repro.models.embedding.pack_sequences` (serving), where
each image still attends only to itself.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import nn
from ..patching import PatchSequence, stitch
from .embedding import PatchEmbedding, collate_sequences

__all__ = ["ViTBackbone", "ViTSegmenter", "VolumeViTSegmenter",
           "ViTClassifier"]


class ViTBackbone(nn.Module):
    """Patch embedding + transformer encoder stack.

    The forward is split into two shape-stable halves so the compiled
    runtime (:mod:`repro.runtime`) can trace it once per input signature:

    * :meth:`prepare_inputs` — pure numpy preprocessing (dtype casts and
      the mask/bias features derived from ``valid``), shared verbatim by
      the eager forward and the compiled executor;
    * :meth:`forward_core` — pure Tensor-op graph over those prepared
      inputs, with no data-dependent branching.

    ``forward(tokens, coords, valid)`` is exactly
    ``forward_core(**prepare_inputs(...))``, which is what makes compiled
    outputs bit-identical to the eager ``no_grad`` forward.
    """

    def __init__(self, token_dim: int, dim: int = 64, depth: int = 4,
                 heads: int = 4, max_len: int = 1024, mlp_ratio: float = 2.0,
                 use_coords: bool = True, coord_dim: int = 3,
                 rng: Optional[np.random.Generator] = None, dtype=np.float32):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.embed = PatchEmbedding(token_dim, dim, max_len,
                                    use_coords=use_coords, coord_dim=coord_dim,
                                    rng=rng, dtype=dtype)
        self.encoder = nn.TransformerEncoder(dim, depth, heads, mlp_ratio,
                                             rng=rng, dtype=dtype)
        self.dim = dim
        self.depth = depth

    def prepare_inputs(self, tokens: np.ndarray, coords=None, valid=None,
                       segments=None) -> dict:
        """Numpy feeds for :meth:`forward_core`, keyed by argument name.

        ``segments`` (from :func:`~repro.models.embedding.pack_sequences`)
        marks packed rows and adds two float-coded feeds: ``pos_ids``,
        restarting the positional table per sequence, and ``segments``,
        zero-extended to B·L rows so feed shapes depend on (B, L) alone.
        """
        dtype = self.embed.dtype
        feeds = {"tokens": np.asarray(tokens).astype(dtype)}
        if self.embed.use_coords and coords is not None:
            feeds["coords"] = np.asarray(coords).astype(dtype)
        if valid is not None:
            valid = np.asarray(valid)
            feeds["validf"] = valid.astype(dtype)[:, :, None]
            feeds["attn_bias"] = nn.attention_bias(valid, dtype)
        if segments is not None:
            pos = np.zeros(feeds["tokens"].shape[:2], dtype)
            table = np.zeros((pos.size, 2), dtype)
            table[:len(segments)] = segments
            for start, n in segments:
                pos.reshape(-1)[start:start + n] = np.arange(n)
            feeds["pos_ids"], feeds["segments"] = pos, table
        return feeds

    def forward_core(self, tokens: nn.Tensor, coords: Optional[nn.Tensor] = None,
                     validf: Optional[nn.Tensor] = None,
                     attn_bias: Optional[nn.Tensor] = None,
                     pos_ids: Optional[nn.Tensor] = None,
                     segments: Optional[nn.Tensor] = None) -> nn.Tensor:
        """Pure Tensor-op forward over prepared inputs (traceable)."""
        x = self.embed(tokens, coords, validf, pos_ids)
        return self.encoder(x, attn_bias=attn_bias, segments=segments)

    def forward(self, tokens: np.ndarray, coords=None, valid=None,
                return_hidden: Sequence[int] = (), segments=None):
        if return_hidden:
            # Multi-output tap path (UNETR skips) — eager only.
            x = self.embed(tokens, coords, valid)
            return self.encoder(x, return_hidden=return_hidden, key_mask=valid)
        feeds = self.prepare_inputs(tokens, coords, valid, segments)
        return self.forward_core(
            **{name: nn.Tensor(arr) for name, arr in feeds.items()})


class ViTSegmenter(nn.Module):
    """ViT with a per-token segmentation head.

    Each token predicts a ``Pm x Pm`` logit map for its own patch footprint;
    training is supervised directly at token level (targets from
    :func:`repro.patching.patchify_labels`), and full-resolution masks are
    reconstructed by scattering token predictions back through the quadtree
    geometry.
    """

    def __init__(self, patch_size: int, channels: int = 1, dim: int = 64,
                 depth: int = 4, heads: int = 4, max_len: int = 1024,
                 out_channels: int = 1, use_coords: bool = True,
                 mlp_ratio: float = 2.0,
                 rng: Optional[np.random.Generator] = None, dtype=np.float32):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        token_dim = channels * patch_size * patch_size
        self.backbone = ViTBackbone(token_dim, dim, depth, heads, max_len,
                                    mlp_ratio=mlp_ratio,
                                    use_coords=use_coords, rng=rng, dtype=dtype)
        self.head = nn.Linear(dim, out_channels * patch_size * patch_size,
                              rng=rng, dtype=dtype)
        self.patch_size = patch_size
        self.out_channels = out_channels

    def prepare_inputs(self, *args, **packed) -> dict:
        return self.backbone.prepare_inputs(*args, **packed)

    def forward_core(self, tokens: nn.Tensor, coords=None, validf=None,
                     attn_bias=None, pos_ids=None, segments=None) -> nn.Tensor:
        return self.head(self.backbone.forward_core(
            tokens, coords, validf, attn_bias, pos_ids, segments))

    def forward(self, tokens: np.ndarray, coords=None, valid=None,
                segments=None) -> nn.Tensor:
        """Token logits of shape (B, L, out_channels * Pm * Pm)."""
        return self.head(self.backbone(tokens, coords, valid,
                                       segments=segments))

    def forward_sequences(self, seqs: Sequence[PatchSequence]) -> nn.Tensor:
        tokens, coords, valid = collate_sequences(seqs)
        return self.forward(tokens, coords, valid)

    def predict_mask(self, seq: PatchSequence) -> np.ndarray:
        """Inference: full-resolution (out_channels, Z, Z) probability map."""
        with nn.no_grad():
            logits = self.forward_sequences([seq])
        pm, k = self.patch_size, self.out_channels
        token_maps = logits.data[0].reshape(len(seq), k, pm, pm)
        return stitch(seq, 1.0 / (1.0 + np.exp(-token_maps)))


class VolumeViTSegmenter(nn.Module):
    """ViT with a per-token segmentation head over octree cube tokens.

    The volumetric counterpart of :class:`ViTSegmenter`: each token predicts
    a ``Pm³`` logit cube for its own footprint, supervised at token level
    (targets from :func:`repro.patching.patchify_labels`); full
    volumes are reconstructed by scattering token predictions back through
    the octree geometry. The backbone is the same unmodified ViT — only the
    token and coordinate widths change (``Pm³`` and 4).
    """

    def __init__(self, patch_size: int, dim: int = 64, depth: int = 4,
                 heads: int = 4, max_len: int = 1024, out_channels: int = 1,
                 use_coords: bool = True,
                 rng: Optional[np.random.Generator] = None, dtype=np.float32):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        token_dim = patch_size ** 3
        self.backbone = ViTBackbone(token_dim, dim, depth, heads, max_len,
                                    use_coords=use_coords, coord_dim=4,
                                    rng=rng, dtype=dtype)
        self.head = nn.Linear(dim, out_channels * token_dim, rng=rng,
                              dtype=dtype)
        self.patch_size = patch_size
        self.out_channels = out_channels

    def prepare_inputs(self, *args, **packed) -> dict:
        return self.backbone.prepare_inputs(*args, **packed)

    def forward_core(self, tokens: nn.Tensor, coords=None, validf=None,
                     attn_bias=None, pos_ids=None, segments=None) -> nn.Tensor:
        return self.head(self.backbone.forward_core(
            tokens, coords, validf, attn_bias, pos_ids, segments))

    def forward(self, tokens: np.ndarray, coords=None, valid=None,
                segments=None) -> nn.Tensor:
        """Token logits of shape (B, L, out_channels * Pm³)."""
        return self.head(self.backbone(tokens, coords, valid,
                                       segments=segments))

    def forward_sequences(self, seqs: Sequence) -> nn.Tensor:
        tokens, coords, valid = collate_sequences(seqs)
        return self.forward(tokens, coords, valid)

    def predict_volume_probs(self, seq) -> np.ndarray:
        """Inference: full-resolution (Z, Z, Z) probability volume (the
        first output channel, painted over the octree leaves)."""
        with nn.no_grad():
            logits = self.forward_sequences([seq])
        pm = self.patch_size
        token_maps = logits.data[0].reshape(len(seq), self.out_channels,
                                            pm, pm, pm)
        return stitch(seq, 1.0 / (1.0 + np.exp(-token_maps[:, :1])))[0]


class ViTClassifier(nn.Module):
    """ViT with masked mean pooling and a linear classification head
    (Table V: APF-ViT vs HIPT)."""

    def __init__(self, patch_size: int, channels: int = 3, dim: int = 64,
                 depth: int = 4, heads: int = 4, max_len: int = 1024,
                 num_classes: int = 6, use_coords: bool = True,
                 rng: Optional[np.random.Generator] = None, dtype=np.float32):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        token_dim = channels * patch_size * patch_size
        self.backbone = ViTBackbone(token_dim, dim, depth, heads, max_len,
                                    use_coords=use_coords, rng=rng, dtype=dtype)
        self.head = nn.Linear(dim, num_classes, rng=rng, dtype=dtype)
        self.num_classes = num_classes
        self.dtype = dtype

    def prepare_inputs(self, tokens: np.ndarray, coords=None, valid=None) -> dict:
        feeds = self.backbone.prepare_inputs(tokens, coords, valid)
        if valid is not None:
            w = np.asarray(valid).astype(self.dtype)
            denom = np.maximum(w.sum(axis=1, keepdims=True), 1.0)
            feeds["poolw"] = (w / denom)[:, :, None]
        return feeds

    def forward_core(self, tokens: nn.Tensor, coords=None, validf=None,
                     attn_bias=None, poolw=None) -> nn.Tensor:
        x = self.backbone.forward_core(tokens, coords, validf, attn_bias)
        # Masked mean pooling: padded tokens carry zero weight.
        pooled = x.mean(axis=1) if poolw is None else (x * poolw).sum(axis=1)
        return self.head(pooled)

    def forward(self, tokens: np.ndarray, coords=None,
                valid: Optional[np.ndarray] = None) -> nn.Tensor:
        """Class logits (B, num_classes)."""
        feeds = self.prepare_inputs(tokens, coords, valid)
        return self.forward_core(
            **{name: nn.Tensor(arr) for name, arr in feeds.items()})

    def forward_sequences(self, seqs: Sequence[PatchSequence]) -> nn.Tensor:
        tokens, coords, valid = collate_sequences(seqs)
        return self.forward(tokens, coords, valid)

    def predict(self, seq: PatchSequence) -> int:
        with nn.no_grad():
            logits = self.forward_sequences([seq])
        return int(np.argmax(logits.data[0]))
