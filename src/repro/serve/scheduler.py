"""The work-graph scheduler — one truth for inference orchestration.

Every inference request, whichever front door it arrived through, reduces
to the same four-stage work graph:

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

Before this module existed, three separately maintained front-ends —
``Predictor.predict_batch``, ``InferenceEngine.step`` and the streaming
runner — each re-implemented parts of length bucketing, micro-batch
formation and stitch scatter, and every change to one was a bit-identity
bug waiting to surface in the others. :class:`WorkGraphScheduler` now owns
all stage transitions, and the front-ends are thin adapters over it:

* :class:`~repro.serve.predictor.Predictor` — a **synchronous drain**:
  build sequence nodes, :meth:`drain`, return results in request order.
* :class:`~repro.serve.engine.InferenceEngine` — a **pump**: admission
  control, fair lanes and the result cache decide *when* a flush happens;
  the flushed requests execute through :meth:`execute`, so engine
  micro-batches carry exactly the signatures ``predict_batch`` would
  produce and the per-signature plan cache is shared, never split.
* :class:`~repro.stream.runner.StreamingRunner` — a **bounded feed**:
  macro-tile plans expand to :class:`TileNode`\\ s (one sequence per
  image tile, one per slice of a volume slab) with at most
  ``max_inflight`` tiles resident. A worker thread runs
  :meth:`tile_sequences` (read + APF) for the next tile while the caller
  takes the current one through :meth:`sequence_nodes` and
  :meth:`reduce_tile` (drain, then class maps), in plan order.
* :class:`~repro.serve.router.FleetRouter` — **N pumps**: each replica's
  engine pumps its own scheduler over its own plan cache.

Bit-identity contract
---------------------
:meth:`plan` groups nodes by padded bucket length (buckets ascending,
FIFO within a bucket) and chunks each group at ``predictor.max_batch`` —
byte for byte the grouping the pre-refactor ``predict_sequences``
produced, which the equivalence matrix in
``tests/serve/test_frontend_equivalence.py`` pins across all four
front-ends.

:meth:`run` then packs a micro-batch instead of padding it: its natural
sequences (over-long ones dropped to the bucket length L) run back to
back through ``k = ceil(Σ nᵢ / L)`` rows of L tokens
(:func:`~repro.models.embedding.pack_sequences`), raised with zero
filler rows to the smallest compiled plan of width L that has room, so
a server primed at 1 and ``max_batch`` rows never compiles a partial
pack in the request path. Linears, layer norms
and residual adds run on those rows, every matmul still at M = L, and
attention runs per sequence on its own zero-padded L×L block
(``sdpa_varlen``). A lone sequence thus runs its old padded batch bit for
bit, and with OpenBLAS a pack member gets the bits it gets alone. The
tested contract allows a BLAS to round a row by its offset in a block:
compiled packed output equals eager packed output bitwise, and a pack
member is within 1e-6 in probability of its single run, with equal class
maps. ``stats["padded_tokens"]`` counts executed tokens (rows·L per
batch, filler rows included).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..models.embedding import pack_sequences
from ..nn import kernels as K
from ..patching.transfer import stitch
from ..runtime import compile_model
from .. import nn

__all__ = ["WorkGraphScheduler", "SequenceNode", "MicroBatch", "TileNode",
           "class_map"]


def class_map(probs: np.ndarray) -> np.ndarray:
    """Probability map -> int64 class map (argmax over channels; 0.5
    threshold for single-channel binary heads). The single definition of
    serving-side post-processing — shared by the Predictor's class-map
    APIs, the engine's volume reassembly, and the streaming tile reduce."""
    if probs.shape[0] == 1:
        return (probs[0] >= 0.5).astype(np.int64)
    return probs.argmax(axis=0)


@dataclass
class SequenceNode:
    """One natural (pre-drop) APF sequence awaiting execution.

    ``bucket`` is the padded length the scheduler assigned; ``order`` is
    a monotonically increasing admission stamp used as the FIFO tiebreak
    inside a bucket. Once its micro-batch has run, ``tokens`` holds the
    node's own copy of its token probabilities (the plan reuses its
    output buffers), which :attr:`result` stitches on first read.
    """

    seq: object
    bucket: int
    order: int
    done: bool = False
    #: ``(sequence, (L, K) + (Pm,)*d probabilities)`` after execution.
    tokens: Optional[tuple] = None
    _result: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def result(self) -> Optional[np.ndarray]:
        """Probability map: (K, Z, Z), or channel-0 (Z, Z, Z) for a volume."""
        if self._result is None and self.tokens is not None:
            seq, probs = self.tokens
            out = stitch(seq, probs)
            self._result = out[0] if len(seq.AXES) == 3 else out
        return self._result


@dataclass
class MicroBatch:
    """A single-bucket unit of model execution.

    Every node shares ``length`` (the padded bucket);
    :meth:`WorkGraphScheduler.run` packs the nodes into rows of that
    length and executes the compiled plan of the packed shape.
    """

    length: int
    nodes: List[SequenceNode]

    @property
    def signature(self) -> Tuple[int, int]:
        """(batch, padded length): the grouping every front-end shares."""
        return (len(self.nodes), self.length)


@dataclass
class TileNode:
    """A macro-tile (image tile or volume slab) and its sequence children.

    An image tile expands to one child; a ``(d, Z, Z)`` volume slab to
    ``d`` children (one per slice — the BTCV per-slice protocol). The
    reduction back to the sink value lives in
    :meth:`WorkGraphScheduler.reduce_tile`.
    """

    kind: str                              #: "image" | "volume"
    children: List[SequenceNode] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return all(c.done for c in self.children)


class WorkGraphScheduler:
    """Stage transitions of the inference work graph, in one place.

    The scheduler owns *orchestration* — bucketing, micro-batch formation,
    plan-cache execution, stitching, tile reduction — while the owning
    :class:`~repro.serve.predictor.Predictor` supplies the numeric
    substrate (model, pipeline, compile switches) and keeps its public
    ``stats`` dict, which the scheduler updates exactly as the legacy
    inlined paths did.
    """

    def __init__(self, predictor):
        self.predictor = predictor
        self._order = itertools.count()
        self._plans: dict = {}

    def _trace(self):
        """(tracer, track) — the owning front-end's tracer, or (None, "").

        The scheduler has no tracer of its own: whoever pumps it (engine,
        predictor drain, streaming runner) parks one on the predictor, and
        sub-spans land on that owner's track so a fleet's per-replica
        timelines stay separate.
        """
        tr = self.predictor.tracer
        if tr is not None and tr.enabled:
            return tr, self.predictor.trace_label
        return None, ""

    # -- stage 1 -> 2: bucketing (the single truth) ------------------------
    def bucket_length(self, n: int) -> int:
        """Smallest bucket multiple >= n, capped at the positional table."""
        p = self.predictor
        b = -(-max(n, 1) // p.bucket) * p.bucket
        return min(b, p.max_len)

    def _fit_to(self, seq, length: int):
        """Drop an over-long sequence to ``length`` (deterministic RNG);
        shorter ones pack as they are, never padded."""
        if len(seq) <= length:
            return seq
        rng = np.random.default_rng((self.predictor.drop_seed, len(seq),
                                     length))
        return self.predictor.pipeline.patcher.fit_length(seq, length,
                                                          rng=rng)

    # -- node construction -------------------------------------------------
    def sequence_nodes(self, seqs: Sequence) -> List[SequenceNode]:
        """Wrap natural sequences as graph nodes (bucketed, order-stamped)."""
        return [SequenceNode(seq=s, bucket=self.bucket_length(len(s)),
                             order=next(self._order)) for s in seqs]

    def tile_sequences(self, region: np.ndarray, kind: str,
                       keys: Optional[Sequence] = None) -> List:
        """The pipeline half of :meth:`tile_node`: a macro-tile region's
        natural APF sequences, one per child.

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
        return self.predictor._naturals(images, keys)

    def tile_node(self, region: np.ndarray, kind: str,
                  keys: Optional[Sequence] = None) -> TileNode:
        """Expand a macro-tile region into its sequence children
        (:meth:`tile_sequences`, then :meth:`sequence_nodes`)."""
        return TileNode(kind=kind, children=self.sequence_nodes(
            self.tile_sequences(region, kind, keys)))

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
        mb = max_batch if max_batch is not None else self.predictor.max_batch
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
        p = self.predictor
        if not p.compiled:
            with nn.no_grad():
                return p.model.forward(tokens, coords, valid,
                                       segments=segments).data
        key = (tokens.shape, valid.shape)
        sig = [list(tokens.shape), list(valid.shape)]
        tr, trk = self._trace()
        cm = self._plans.get(key)
        if cm is None:
            tc0 = tr.clock() if tr is not None else 0.0
            t0 = time.perf_counter()
            cm = compile_model(p.model, tokens, coords, valid,
                               segments=segments)
            self._plans[key] = cm
            p.stats["plans"] = len(self._plans)
            p.stats["compile_seconds"] += time.perf_counter() - t0
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
        stats = self.predictor.stats
        out_ch, pm = (self.predictor.model.out_channels,
                      self.predictor.model.patch_size)
        tr, trk = self._trace()
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
            node.done = True
        if tr is not None:
            tr.complete("stitch", trk, t2, tr.clock(), tid="engine",
                        args={"size": len(micro.nodes)})
        stats["batches"] += 1
        return micro

    # -- drains ------------------------------------------------------------
    def _run_all(self, nodes: Sequence[SequenceNode]) -> None:
        for micro in self.plan(nodes):
            self.run(micro)
        self.predictor.stats["images"] += len(nodes)

    def drain(self, nodes: Sequence[SequenceNode]) -> List[np.ndarray]:
        """Run every micro-batch covering ``nodes``; results in node order."""
        self._run_all(nodes)
        return [n.result for n in nodes]

    def execute(self, seqs: Sequence) -> List[np.ndarray]:
        """Sequences -> probability maps (node build + drain in one call)."""
        return self.drain(self.sequence_nodes(seqs))

    def reduce_tile(self, tile: TileNode, dtype=None) -> np.ndarray:
        """A tile's class map ((d, Z, Z) for a slab) in ``dtype`` (int64 if
        None or too narrow), first running the children not yet drained.

        Labels are taken per token pixel and painted by :func:`stitch`:
        exact, as gather rejects leaves below Pm (a stitched pixel is its
        token's), and an uncovered pixel (probability 0, class 0) stays 0.
        """
        todo = [c for c in tile.children if not c.done]
        if todo:
            self._run_all(todo)
        k = tile.children[0].tokens[1].shape[1]
        if dtype is None or not np.can_cast(
                np.min_scalar_type(max(k - 1, 1)), dtype):
            dtype = np.int64
        maps = []
        for c in tile.children:
            seq, probs = c.tokens
            labels = class_map(np.moveaxis(probs, 1, 0)).astype(dtype)
            maps.append(stitch(seq, labels[:, None], dtype=dtype)[0])
        return np.stack(maps) if tile.kind == "volume" else maps[0]
