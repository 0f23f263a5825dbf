"""The work-graph scheduler — one truth for inference orchestration.

Every inference request, whichever front door it arrived through, reduces
to the same four-stage work graph:

    tiles ────────► sequences ───────► micro-batches ────► stitch
    (macro-tile     (natural APF       (single-signature   (vectorized
     regions, CT     sequences from     (B, L) plan         scatter back
     slabs, plain    the pipeline's     executions over      to maps +
     images)         LRU cache)         the plan cache)      tile reduce)

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
  ``max_inflight`` tiles resident.
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
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..models.embedding import collate_sequences
from ..nn import kernels as K
from ..runtime import compile_model
from .. import nn
from .stitch import stitch_image, stitch_volume

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
    inside a bucket. ``result`` holds the stitched probability map once
    the node's micro-batch has run.
    """

    seq: object
    bucket: int
    order: int
    result: Optional[np.ndarray] = None
    done: bool = False
    #: Sparse execution plan (``repro.sparse.SparsePlan``) when the
    #: sparsity runtime reduced this node — ``seq`` is then the *reduced*
    #: sequence and the plan holds the full one plus the row map back.
    sparse: Optional[object] = None
    #: Exact-byte sequence digest for memo population (sparsity only).
    memo_key: Optional[str] = None


@dataclass
class MicroBatch:
    """A single-signature unit of model execution.

    Every node shares ``length`` (the padded bucket), so the batch maps to
    exactly one compiled-plan signature ``(len(nodes), length)``.
    """

    length: int
    nodes: List[SequenceNode]

    @property
    def signature(self) -> Tuple[int, int]:
        """The (batch, padded length) plan-cache key this batch executes."""
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
        fit = (predictor.pipeline.patcher.fit_length
               if hasattr(predictor.pipeline, "patcher")
               else predictor.pipeline.fit_length)
        self._fit = fit

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
        if len(seq) == length:
            return seq
        if len(seq) < length:
            return self._fit(seq, length)            # pure zero-pad, no RNG
        rng = np.random.default_rng((self.predictor.drop_seed, len(seq),
                                     length))
        return self._fit(seq, length, rng=rng)       # deterministic drop

    # -- node construction -------------------------------------------------
    def sequence_nodes(self, seqs: Sequence) -> List[SequenceNode]:
        """Wrap natural sequences as graph nodes (bucketed, order-stamped).

        With a sparsity runtime attached, each node is offered to it
        first: a memo replay completes the node outright, and a sparse
        plan swaps in the reduced sequence — so the bucket (and with it
        the micro-batch signature) reflects what actually runs.
        """
        rt = self.predictor.sparsity
        nodes = []
        for s in seqs:
            node = SequenceNode(seq=s, bucket=0, order=next(self._order))
            if rt is not None:
                rt.prepare(node)
            if not node.done:
                node.bucket = self.bucket_length(len(node.seq))
            nodes.append(node)
        return nodes

    def tile_node(self, region: np.ndarray, kind: str,
                  keys: Optional[Sequence] = None) -> TileNode:
        """Expand a macro-tile region into its sequence children.

        ``kind="volume"`` decomposes a ``(d, Z, Z)`` slab into per-slice
        children; ``kind="image"`` yields a single child. Preprocessing
        runs through the predictor's pipeline (LRU cache, batch kernels),
        with content-hash keys when the caller has none — the identical
        acquisition path every other front-end uses.
        """
        region = np.asarray(region)
        if kind == "volume":
            images = [region[i] for i in range(region.shape[0])]
        else:
            images = [region]
        seqs = self.predictor._naturals(images, keys)
        return TileNode(kind=kind, children=self.sequence_nodes(seqs))

    # -- stage 2 -> 3: micro-batch formation (the single truth) ------------
    def plan(self, nodes: Sequence[SequenceNode],
             max_batch: Optional[int] = None) -> List[MicroBatch]:
        """Form single-signature micro-batches from sequence nodes.

        Buckets dispatch in ascending length order; within a bucket,
        nodes keep their relative order and chunk at ``max_batch``
        (default: the predictor's). This is the one implementation of the
        grouping rule — every front-end's batches, and therefore every
        plan-cache signature, come from here.
        """
        mb = max_batch if max_batch is not None else self.predictor.max_batch
        groups: dict = {}
        for node in nodes:
            if node.done:                    # memo-replayed: nothing to run
                continue
            groups.setdefault(node.bucket, []).append(node)
        out: List[MicroBatch] = []
        for length, grp in sorted(groups.items()):
            for start in range(0, len(grp), mb):
                out.append(MicroBatch(length, grp[start:start + mb]))
        return out

    # -- stage 3: plan-cache execution -------------------------------------
    def _forward(self, tokens, coords, valid) -> np.ndarray:
        p = self.predictor
        if not p.compiled:
            with nn.no_grad():
                return p.model.forward(tokens, coords, valid).data
        key = (tokens.shape, valid.shape)
        sig = [list(tokens.shape), list(valid.shape)]
        tr, trk = self._trace()
        cm = self._plans.get(key)
        if cm is None:
            tc0 = tr.clock() if tr is not None else 0.0
            t0 = time.perf_counter()
            cm = compile_model(p.model, tokens, coords, valid)
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
        return cm(tokens, coords, valid)

    # -- stage 4: stitch ---------------------------------------------------
    def _stitch(self, seq, logits_row: np.ndarray) -> np.ndarray:
        p = self.predictor
        pm = p.model.patch_size
        k = p.model.out_channels
        if hasattr(seq, "scatter_to_volume"):
            maps = logits_row.reshape(len(seq), k, pm, pm, pm)
            return stitch_volume(seq, K.forward("sigmoid", (), maps[:, 0]))
        maps = logits_row.reshape(len(seq), k, pm, pm)
        return stitch_image(seq, K.forward("sigmoid", (), maps))

    def run(self, micro: MicroBatch) -> MicroBatch:
        """Execute one micro-batch: fit, collate, forward, stitch.

        The exact legacy ``predict_sequences`` inner loop — fit each node
        to the shared bucket length (zero-pad or deterministic drop),
        collate, one plan execution, then a stitch node per row — so the
        results are bit-identical to the pre-refactor paths.
        """
        stats = self.predictor.stats
        rt = self.predictor.sparsity
        tr, trk = self._trace()
        t0 = tr.clock() if tr is not None else 0.0
        fitted = [self._fit_to(n.seq, micro.length) for n in micro.nodes]
        stats["real_tokens"] += sum(len(n.seq) for n in micro.nodes)
        stats["padded_tokens"] += len(micro.nodes) * micro.length
        tokens, coords, valid = collate_sequences(fitted)
        t1 = 0.0
        if tr is not None:
            t1 = tr.clock()
            tr.complete("batch.form", trk, t0, t1, tid="engine",
                        args={"size": len(micro.nodes),
                              "length": micro.length})
        logits = self._forward(tokens, coords, valid)
        if tr is not None:
            t2 = tr.clock()
            tr.complete("execute", trk, t1, t2, tid="engine",
                        args={"signature": [len(micro.nodes), micro.length]})
        for j, node in enumerate(micro.nodes):
            if node.sparse is not None:
                maps = rt.reconstruct(node, logits[j])
                node.result = self._stitch(node.sparse.full_seq, maps)
            else:
                node.result = self._stitch(fitted[j], logits[j])
                if rt is not None:
                    rt.seed_dense(node, logits[j])
            if rt is not None:
                rt.finish(node, node.result)
            node.done = True
        if tr is not None:
            tr.complete("stitch", trk, t2, tr.clock(), tid="engine",
                        args={"size": len(micro.nodes)})
        stats["batches"] += 1
        return micro

    # -- drains ------------------------------------------------------------
    def drain(self, nodes: Sequence[SequenceNode]) -> List[np.ndarray]:
        """Run every micro-batch covering ``nodes``; results in node order."""
        for micro in self.plan(nodes):
            self.run(micro)
        self.predictor.stats["images"] += len(nodes)
        return [n.result for n in nodes]

    def execute(self, seqs: Sequence) -> List[np.ndarray]:
        """Sequences -> probability maps (node build + drain in one call)."""
        return self.drain(self.sequence_nodes(seqs))

    def reduce_tile(self, tile: TileNode) -> np.ndarray:
        """Reduce a drained tile to its sink value (int64 class maps)."""
        if tile.kind == "volume":
            return np.stack([class_map(c.result) for c in tile.children])
        return class_map(tile.children[0].result)
