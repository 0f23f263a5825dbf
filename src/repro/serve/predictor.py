"""The inference core: one object owns the model, the APF pipeline, the
compiled plans and the drain.

Every inference request, whichever front door it arrived through, reduces
to the same four-stage work graph, run by :class:`Predictor`:

    tiles ────────► sequences ───────► micro-batches ────► stitch
    (macro-tile     (natural APF       (one bucket, packed (vectorized
     regions, CT     sequences from     into (k, L) rows;   scatter back
     slabs, plain    the pipeline's     one plan execution  to maps +
     images)         LRU cache)         per batch)          tile reduce)

Stage 4 paints each node's token maps back over its leaves through
:func:`repro.patching.transfer.stitch`, the n-D block transfer that APF's
patch extraction and label projection also use, so images and volumes
share one stitch. It paints when a front end reads a node's result; the
tile reduce paints class labels per token instead, in the sink's dtype.
The nodes themselves live in :mod:`repro.serve.scheduler`.

The front ends call in at different stages:

* :meth:`Predictor.predict_batch` — a **synchronous drain**: build
  sequence nodes, :meth:`~Predictor.drain`, return results in request
  order.
* :class:`~repro.serve.engine.InferenceEngine` — a **pump**: admission
  control, fair lanes and the result cache decide *when* a flush happens;
  the flushed requests execute through :meth:`Predictor.predict_sequences`,
  so engine micro-batches carry exactly the signatures ``predict_batch``
  would produce and the per-signature plan cache is shared, never split.
* :class:`~repro.stream.runner.StreamingRunner` — a **bounded feed**:
  a worker thread runs :meth:`~Predictor.tile_sequences` (read + APF) for
  the next tile while the caller takes the current one through
  :meth:`~Predictor.sequence_nodes` and :meth:`~Predictor.reduce_tile`
  (drain, then class maps), in plan order.
* :class:`~repro.serve.router.FleetRouter` — **N pumps**: each replica's
  engine pumps its own Predictor over its own plan cache.

Bucketing semantics
-------------------
A sequence of natural length ``n`` belongs to the bucket ``L``: the
smallest multiple of ``bucket`` ≥ ``n``, capped at the model's
positional-table size. Longer sequences are randomly dropped to the cap
with a deterministic per-(length, bucket) RNG. :meth:`Predictor.plan`
groups nodes by bucket (buckets ascending, FIFO within a bucket) and
chunks each group at ``max_batch``, which the equivalence matrix in
``tests/serve/test_frontend_equivalence.py`` pins across all four front
ends.

Nothing is zero-padded: :meth:`Predictor.run` packs a micro-batch's
sequences back to back into ``k = ceil(Σ nᵢ / L)`` rows of L tokens
(:func:`~repro.models.embedding.pack_sequences`), raised with zero
filler rows to the smallest compiled plan of width L that has room, so
a server primed at 1 and ``max_batch`` rows (:meth:`Predictor.warmup`)
never compiles a partial pack in the request path. Linears, layer norms
and residual adds run on those rows, every matmul still at M = L, and
attention runs per sequence on its own zero-padded L×L block
(``sdpa_varlen``). A lone sequence thus runs its old padded batch bit for
bit, and with OpenBLAS a pack member gets the bits it gets alone. The
tested contract allows a BLAS to round a row by its offset in a block:
compiled packed output equals eager packed output bitwise, and a pack
member is within 1e-6 in probability of its single run, with equal class
maps. ``stats["padded_tokens"]`` counts executed tokens (rows·L per
batch, filler rows included).

Numerics: with ``compiled=True`` (default) every forward is bit-identical
to the eager ``no_grad`` forward on the same packed batch — the
``compiled=False`` switch exists precisely so tests and benches can assert
that equality end-to-end.
"""

from __future__ import annotations

import time
from typing import Hashable, List, Optional, Sequence

import numpy as np

from .. import nn
from ..models.embedding import pack_sequences
from ..nn import kernels as K
from ..patching.transfer import stitch
from ..runtime import compile_model
from ..train.volumetric import predict_volume_batched
# reduce_tile calls ``scheduler.class_map`` through the module, so a wrap
# of that attribute (the repository benchmark's ``stream.class_map``)
# sees every tile reduce
from . import scheduler
from .scheduler import MicroBatch, SequenceNode, TileNode, class_map

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
                 bucket: int = 32, compiled: bool = True, tracer=None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if bucket < 1:
            raise ValueError("bucket must be >= 1")
        # Tracing (repro.obs): None unless enabled. An owning engine
        # overwrites both (tracer push-down + replica track label), so
        # the sub-spans below land on its track and a fleet's
        # per-replica timelines stay separate.
        self.tracer = tracer if (tracer is not None and tracer.enabled) \
            else None
        self.trace_label = "predictor"
        self.model = model.eval()
        self.pipeline = pipeline
        self.max_batch = max_batch
        self.bucket = bucket
        self.compiled = compiled
        self.max_len = model.backbone.embed.max_len
        self.stats = {"images": 0, "batches": 0, "plans": 0,
                      "compile_seconds": 0.0, "padded_tokens": 0,
                      "real_tokens": 0}
        #: The per-signature compiled-plan cache.
        self._plans: dict = {}

    # -- stage 1 -> 2: bucketing (the single truth) ------------------------
    def bucket_length(self, n: int) -> int:
        """Smallest bucket multiple >= n, capped at the positional table."""
        b = -(-max(n, 1) // self.bucket) * self.bucket
        return min(b, self.max_len)

    def _fit_to(self, seq, length: int):
        """Drop an over-long sequence to ``length`` (deterministic RNG);
        shorter ones pack as they are, never padded."""
        if len(seq) <= length:
            return seq
        rng = np.random.default_rng((0, len(seq), length))
        return self.pipeline.patcher.fit_length(seq, length, rng=rng)

    # -- node construction -------------------------------------------------
    def sequence_nodes(self, seqs: Sequence) -> List[SequenceNode]:
        """Wrap natural sequences as graph nodes, each in its bucket."""
        return [SequenceNode(seq=s, bucket=self.bucket_length(len(s)))
                for s in seqs]

    def tile_sequences(self, region: np.ndarray, kind: str,
                       keys: Optional[Sequence] = None) -> List:
        """A macro-tile region's natural APF sequences, one per child
        (wrap them with :meth:`sequence_nodes` into a :class:`TileNode`).

        ``kind="volume"`` decomposes a ``(d, Z, Z)`` slab into per-slice
        sequences; ``kind="image"`` yields one. Preprocessing runs through
        the predictor's pipeline (LRU cache, batch kernels) — the identical
        acquisition path every other front-end uses. ``keys`` name the
        children for the pipeline cache, one per child; without them the
        pipeline content-hashes each child. Touches nothing but the
        (locked) pipeline, so it may run on another thread than the drain.
        """
        region = np.asarray(region)
        if kind == "volume":
            images = [region[i] for i in range(region.shape[0])]
        else:
            images = [region]
        return self.pipeline.process(images, keys)

    # -- stage 2 -> 3: micro-batch formation (the single truth) ------------
    def plan(self, nodes: Sequence[SequenceNode],
             max_batch: Optional[int] = None) -> List[MicroBatch]:
        """Form single-bucket micro-batches from sequence nodes.

        Buckets dispatch in ascending length order; within a bucket,
        nodes keep their relative order and chunk at ``max_batch``
        (default: the predictor's). This is the one implementation of the
        grouping rule — every front-end's batches, and therefore every
        pack, come from here.
        """
        mb = max_batch if max_batch is not None else self.max_batch
        groups: dict = {}
        for node in nodes:
            groups.setdefault(node.bucket, []).append(node)
        out: List[MicroBatch] = []
        for length, grp in sorted(groups.items()):
            for start in range(0, len(grp), mb):
                out.append(MicroBatch(length, grp[start:start + mb]))
        return out

    # -- stage 3: plan-cache execution -------------------------------------
    def _pack_rows(self, fitted, width: int) -> int:
        """Rows to pack ``fitted`` into: the fewest that hold them, raised
        to the smallest compiled plan of this width that has room. Filler
        rows are inert and every row runs its own matmuls, so the real
        tokens keep their bits, and a primed server never compiles."""
        need = max(-(-sum(len(s) for s in fitted) // width), 1)
        return min((t[0] for t, _ in list(self._plans)
                    if t[1] == width and t[0] >= need), default=need)

    def _forward(self, tokens, coords, valid, segments) -> np.ndarray:
        if not self.compiled:
            with nn.no_grad():
                return self.model.forward(tokens, coords, valid,
                                          segments=segments).data
        key = (tokens.shape, valid.shape)
        sig = [list(tokens.shape), list(valid.shape)]
        tr, trk = self.tracer, self.trace_label
        cm = self._plans.get(key)
        if cm is None:
            tc0 = tr.clock() if tr is not None else 0.0
            t0 = time.perf_counter()
            cm = compile_model(self.model, tokens, coords, valid,
                               segments=segments)
            self._plans[key] = cm
            self.stats["plans"] = len(self._plans)
            self.stats["compile_seconds"] += time.perf_counter() - t0
            if tr is not None:
                # args carry only shape-derived values: real compile seconds
                # would break byte-identical traces across same-seed DES
                # runs (they live in predictor.stats instead)
                tr.complete("plan.compile", trk, tc0, tr.clock(),
                            tid="engine",
                            args={"signature": sig,
                                  "steps": cm.plan.stats["steps"]})
        elif tr is not None:
            tr.instant("plan.hit", trk, tid="engine",
                       args={"signature": sig})
        if tr is not None and tr.kernels is not None \
                and cm.plan.profile_hook is None:
            cm.plan.profile_hook = tr.kernels.hook
        return cm(tokens, coords, valid, segments=segments)

    def run(self, micro: MicroBatch) -> MicroBatch:
        """Execute one micro-batch: fit, pack, forward, stitch.

        Over-long sequences drop to the bucket; the rest pack unpadded,
        back to back, into rows of the bucket length (a lone sequence:
        one row, the padded shape it always ran at). One plan execution
        runs the pack, and each node keeps a fresh array of its token
        probabilities, which :func:`~repro.patching.transfer.stitch`, the
        one stitch every front-end shares, paints when read.
        """
        stats = self.stats
        out_ch, pm = self.model.out_channels, self.model.patch_size
        tr, trk = self.tracer, self.trace_label
        t0 = tr.clock() if tr is not None else 0.0
        fitted = [self._fit_to(n.seq, micro.length) for n in micro.nodes]
        tokens, coords, valid, segments = pack_sequences(
            fitted, micro.length, self._pack_rows(fitted, micro.length))
        stats["real_tokens"] += sum(len(n.seq) for n in micro.nodes)
        stats["padded_tokens"] += valid.size
        t1 = 0.0
        if tr is not None:
            t1 = tr.clock()
            tr.complete("batch.form", trk, t0, t1, tid="engine",
                        args={"size": len(micro.nodes),
                              "length": micro.length})
        logits = self._forward(tokens, coords, valid, segments)
        logits = logits.reshape(-1, logits.shape[-1])
        if tr is not None:
            t2 = tr.clock()
            tr.complete("execute", trk, t1, t2, tid="engine",
                        args={"signature": [len(micro.nodes), micro.length]})
        for node, seq, (start, n) in zip(micro.nodes, fitted, segments):
            maps = logits[start:start + n].reshape(
                (len(seq), out_ch) + (pm,) * len(seq.AXES))
            node.tokens = (seq, K.forward("sigmoid", (), maps[:, :1] if
                                          len(seq.AXES) == 3 else maps))
        if tr is not None:
            tr.complete("stitch", trk, t2, tr.clock(), tid="engine",
                        args={"size": len(micro.nodes)})
        stats["batches"] += 1
        return micro

    # -- the drain ---------------------------------------------------------
    def drain(self, nodes: Sequence[SequenceNode]) -> None:
        """Run every micro-batch covering ``nodes``; each node's
        ``tokens`` is set when this returns."""
        for micro in self.plan(nodes):
            self.run(micro)
        self.stats["images"] += len(nodes)

    def reduce_tile(self, tile: TileNode, dtype=None) -> np.ndarray:
        """A tile's class map ((d, Z, Z) for a slab) in ``dtype`` (int64 if
        None or too narrow), first draining the children not yet run.

        Labels are taken per token pixel and painted by :func:`stitch`:
        exact, as gather rejects leaves below Pm (a stitched pixel is its
        token's), and an uncovered pixel (probability 0, class 0) stays 0.
        """
        todo = [c for c in tile.children if c.tokens is None]
        if todo:
            self.drain(todo)
        k = tile.children[0].tokens[1].shape[1]
        if dtype is None or not np.can_cast(
                np.min_scalar_type(max(k - 1, 1)), dtype):
            dtype = np.int64
        maps = []
        for c in tile.children:
            seq, probs = c.tokens
            labels = scheduler.class_map(
                np.moveaxis(probs, 1, 0)).astype(dtype)
            maps.append(stitch(seq, labels[:, None], dtype=dtype)[0])
        return np.stack(maps) if tile.kind == "volume" else maps[0]

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
                self._forward(tokens, coords, valid, segments)
                compiled += 1
        return {"plans": len(self._plans), "compiled": compiled,
                "compile_seconds": self.stats["compile_seconds"]}

    # -- public API --------------------------------------------------------
    def predict_sequences(self, seqs: Sequence) -> List[np.ndarray]:
        """Probability maps for pre-extracted natural sequences, in order.

        A synchronous drain of the work graph: :meth:`plan` forms the
        micro-batches (buckets ascending, FIFO chunks of ``max_batch``)
        and :meth:`drain` runs them to completion.
        """
        nodes = self.sequence_nodes(seqs)
        self.drain(nodes)
        return [n.result for n in nodes]

    def predict_batch(self, images: Sequence[np.ndarray],
                      keys: Optional[Sequence[Hashable]] = None
                      ) -> List[np.ndarray]:
        """Full-resolution probability maps for a batch of images/volumes."""
        return self.predict_sequences(self.pipeline.process(images, keys))

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

