"""The micro-batching inference front-end.

:class:`Predictor` is the serving counterpart of the training pipeline:
it pulls natural (pre-drop) sequences from a
:class:`~repro.pipeline.engine.PatchPipeline` (LRU-cached, worker-sharded)
and drains them through the shared
:class:`~repro.serve.scheduler.WorkGraphScheduler` — the single
implementation of length bucketing, micro-batch formation, per-signature
plan execution and stitch scatter that the async engine, the fleet
router and the streaming runner ride as well. The Predictor is the
*synchronous drain* adapter: build sequence nodes, drain the graph,
return results in request order.

Bucketing semantics
-------------------
A sequence of natural length ``n`` belongs to the bucket ``L``: the
smallest multiple of ``bucket`` ≥ ``n``, capped at the model's
positional-table size. Longer sequences are randomly dropped to the cap
with a deterministic per-(seed, length, bucket) RNG. Micro-batches hold
one bucket, and nothing is zero-padded: a batch's sequences pack back to
back into ``k = ceil(Σ n / L)`` rows of L tokens (a lone sequence: one
row, the padded shape it has always run at), each attending only within
itself at its padded length L. One compiled plan serves every pack with
the same ``(k, L)`` shape, so the plan cache is bounded by
``max_batch x |length buckets|``, and :meth:`Predictor.warmup` over
batch sizes 1..``max_batch`` covers every pack a bucket can form.

Numerics: with ``compiled=True`` (default) every forward is bit-identical
to the eager ``no_grad`` forward on the same packed batch — the
``compiled=False`` switch exists precisely so tests and benches can assert
that equality end-to-end.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence

import numpy as np

from ..train.volumetric import predict_volume_batched
from .scheduler import WorkGraphScheduler, class_map

__all__ = ["Predictor", "class_map"]


class Predictor:
    """Micro-batched (optionally compiled) inference over APF sequences.

    Parameters
    ----------
    model:
        A segmenter exposing the shape-stable split (``prepare_inputs`` /
        ``forward_core``) plus ``patch_size`` / ``out_channels`` —
        :class:`~repro.models.vit.ViTSegmenter` or
        :class:`~repro.models.vit.VolumeViTSegmenter`. Switched to
        ``eval()`` mode on construction.
    pipeline:
        The :class:`~repro.pipeline.engine.PatchPipeline` (batch kernels +
        LRU cache) that turns images into natural sequences.
    max_batch:
        Micro-batch ceiling per plan execution.
    bucket:
        Length-bucket granularity (padded lengths are multiples of this).
    compiled:
        ``False`` runs the same bucketing/batching through the eager
        tape — the baseline the compiled path is benchmarked and
        bit-compared against.

    Examples
    --------
    >>> pipe = PatchPipeline(patch_size=4, split_value=8.0)
    >>> server = Predictor(model, pipe, max_batch=8)
    >>> probs = server.predict_image(image)          # (K, Z, Z)
    >>> maps = server.predict_batch(images)          # list of (K, Z, Z)
    """

    def __init__(self, model, pipeline, *, max_batch: int = 8,
                 bucket: int = 32, compiled: bool = True, drop_seed: int = 0,
                 tracer=None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if bucket < 1:
            raise ValueError("bucket must be >= 1")
        # Tracing (repro.obs): the scheduler reads these off the predictor,
        # so every front-end's spans share one wiring point. An owning
        # engine overwrites both (tracer push-down + replica track label).
        self.tracer = tracer if (tracer is not None and tracer.enabled) \
            else None
        self.trace_label = "predictor"
        self.model = model.eval()
        self.pipeline = pipeline
        self.max_batch = max_batch
        self.bucket = bucket
        self.compiled = compiled
        self.drop_seed = drop_seed
        self.max_len = model.backbone.embed.max_len
        self.stats = {"images": 0, "batches": 0, "plans": 0,
                      "compile_seconds": 0.0, "padded_tokens": 0,
                      "real_tokens": 0}
        self.scheduler = WorkGraphScheduler(self)

    @property
    def _plans(self) -> dict:
        """The per-signature compiled-plan cache (owned by the scheduler)."""
        return self.scheduler._plans

    # -- sequence acquisition ---------------------------------------------
    def _naturals(self, images: Sequence[np.ndarray],
                  keys: Optional[Sequence[Hashable]]) -> List:
        return self.pipeline.process(images, keys)

    # -- bucketing (delegated: the scheduler is the single truth) ----------
    def bucket_length(self, n: int) -> int:
        """Smallest bucket multiple >= n, capped at the positional table."""
        return self.scheduler.bucket_length(n)

    def warmup(self, lengths: Optional[Sequence[int]] = None,
               batch_sizes: Optional[Sequence[int]] = None) -> dict:
        """Pre-compile plans for a ladder of (rows, length) pack shapes.

        Tracing+compiling a plan takes orders of magnitude longer than
        executing it, so without warmup the *first* request landing on
        each signature eats the whole compile. Serving front-ends (the
        :class:`~repro.serve.engine.InferenceEngine`) call this from
        ``start()`` with their configured bucket lengths so steady-state
        latency applies from request one.

        ``lengths`` are padded to the bucket grid and capped at the
        positional table, then compiled for each of ``batch_sizes`` rows
        (default: 1 and ``max_batch`` — the partial-flush and full-flush
        extremes). A batch of b sequences packs into k ≤ b rows and runs
        on the smallest compiled shape with at least k rows (filler rows
        are inert), so these two cover every pack of a bucket.
        Shapes already in the plan cache are skipped; the dummy inputs
        are zeros, one full sequence per row, which exercise the
        identical kernel graph as real traffic (packed layouts are run-time
        feeds). Returns compile accounting.
        """
        if not self.compiled:
            return {"plans": 0, "compiled": 0, "compile_seconds": 0.0}
        if lengths is None:
            lengths = (self.bucket,)
        if batch_sizes is None:
            batch_sizes = (1, self.max_batch)
        if any(n < 1 for n in lengths) or any(b < 1 for b in batch_sizes):
            raise ValueError("lengths and batch_sizes must be >= 1")
        embed = self.model.backbone.embed
        token_dim = embed.proj.in_features
        coord_dim = (embed.coord_proj.in_features
                     if embed.coord_proj is not None else 3)
        compiled = 0
        for length in sorted({self.bucket_length(n) for n in lengths}):
            for b in sorted(set(batch_sizes)):
                tokens = np.zeros((b, length, token_dim))
                if (tokens.shape, (b, length)) in self._plans:
                    continue
                coords = np.zeros((b, length, coord_dim))
                valid = np.ones((b, length), dtype=bool)
                segments = [(i * length, length) for i in range(b)]
                self.scheduler._forward(tokens, coords, valid, segments)
                compiled += 1
        return {"plans": len(self._plans), "compiled": compiled,
                "compile_seconds": self.stats["compile_seconds"]}

    # -- public API --------------------------------------------------------
    def predict_sequences(self, seqs: Sequence) -> List[np.ndarray]:
        """Probability maps for pre-extracted natural sequences, in order.

        A synchronous drain of the work graph: the scheduler forms the
        micro-batches (buckets ascending, FIFO chunks of ``max_batch``)
        and runs them to completion.
        """
        return self.scheduler.execute(seqs)

    def predict_batch(self, images: Sequence[np.ndarray],
                      keys: Optional[Sequence[Hashable]] = None
                      ) -> List[np.ndarray]:
        """Full-resolution probability maps for a batch of images/volumes."""
        return self.predict_sequences(self._naturals(images, keys))

    def predict_image(self, image: np.ndarray,
                      key: Optional[Hashable] = None) -> np.ndarray:
        """Single image/volume -> (K, Z, Z) (or (Z, Z, Z)) probabilities.

        Mirrors ``model.predict_mask`` / ``model.predict_volume_probs``
        through the serving stack.
        """
        return self.predict_batch([image],
                                  None if key is None else [key])[0]

    def predict_class_slices(self, slices: Sequence[np.ndarray]
                             ) -> List[np.ndarray]:
        """Per-slice class maps (argmax over channels; threshold at 0.5 for
        single-channel binary heads) — the callable
        :func:`~repro.train.volumetric.predict_volume_batched` expects."""
        return [class_map(probs) for probs in self.predict_batch(list(slices))]

    def predict_volume(self, volume: np.ndarray,
                       batch_size: Optional[int] = None) -> np.ndarray:
        """Slice a (S, Z, Z) volume through the 2-D model and restack —
        the paper's BTCV protocol, micro-batched end to end."""
        return predict_volume_batched(self.predict_class_slices, volume,
                                      batch_size or self.max_batch)

