"""The sparsity runtime: wires chooser, tables and plans into the scheduler.

One :class:`SparseRuntime` hangs off a
:class:`~repro.serve.predictor.Predictor` (``sparsity=SparsityConfig(...)``)
and the shared :class:`~repro.serve.scheduler.WorkGraphScheduler` consults
it at two points:

* :meth:`prepare` — when a natural sequence becomes a graph node: replay
  it from the memo if its exact bytes were served before, otherwise ask
  the cost-model chooser for a plan and, for sparse plans, swap the
  node's sequence for the reduced one (the bucket, the micro-batch and
  the compiled signature all shrink with it).
* :meth:`reconstruct` — when the reduced forward returns: expand the
  logits back to the full token layout (kept rows from the model, merged
  rows from their representative, short-circuited rows from the table
  copies taken at plan time), then seed the table with the in-context
  rows of first-seen background digests, so the stitch sees a
  full-length sequence and outputs stay shape-identical.

The table is warmed **by serving, never by extra forwards**: a probe
forward per distinct digest would cost about as much per token-row as
just running the token (the forward is MLP-dominated, linear in rows),
so cold content stays in the sequence as its digest group's
representative and only *repeat* sightings are skipped. Dense-plan
sequences seed the table too — warm-up does not depend on the chooser's
verdict.

All decisions and cache traffic are counted in :attr:`stats`, which the
Predictor exposes as ``stats["sparsity"]`` — visible through
``engine.stats()`` in every front-end.
"""

from __future__ import annotations

import numpy as np

from .chooser import PlanChooser
from .config import SparsityConfig
from .digest import sequence_digest, token_digests
from .plans import background_mask, merge_plan, shortcircuit_plan
from .table import BackgroundTable, SequenceMemo

__all__ = ["SparseRuntime"]


class SparseRuntime:
    """Per-predictor sparsity state: chooser, background table, memo."""

    def __init__(self, predictor, config: SparsityConfig):
        self.predictor = predictor
        self.config = config
        self.chooser = PlanChooser(predictor.model, config)
        self.table = BackgroundTable(config.table_items)
        self.memo = SequenceMemo(config.memo_items)
        self.stats = {
            "mode": config.mode,
            "plans": {"dense": 0, "shortcircuit": 0, "merge": 0},
            "memo_hits": 0, "memo_misses": 0,
            "table_hits": 0, "table_misses": 0, "table_seeds": 0,
            "tokens_total": 0, "tokens_skipped": 0, "tokens_merged": 0,
            "last_decision": None,
        }

    # -- node preparation --------------------------------------------------
    def prepare(self, node) -> None:
        """Memo-replay or plan one sequence node (possibly reducing it)."""
        seq = node.seq
        key = sequence_digest(seq)
        hit = self.memo.get(key)
        self.stats["memo_hits"] = self.memo.hits
        self.stats["memo_misses"] = self.memo.misses
        if hit is not None:
            node.result = hit.copy()    # the caller owns a writable result
            node.done = True
            return
        node.memo_key = key

        choice, plan, seeds = self._plan(seq)
        self.stats["plans"][choice.plan] += 1
        self.stats["tokens_total"] += choice.n_tokens
        self.stats["last_decision"] = {
            "plan": choice.plan, "n_tokens": choice.n_tokens,
            "n_background": choice.n_background, "n_merged": choice.n_merged,
            "est_seconds": dict(choice.est_seconds),
            "deltas": dict(choice.deltas),
        }
        if plan is not None:
            self.stats["tokens_skipped"] += plan.n_skipped
            self.stats["tokens_merged"] += plan.n_merged
            node.sparse = plan
            node.seq = plan.reduced_seq
        elif seeds:
            # Dense verdict, but the sequence still carries first-seen
            # background digests — their forward rows warm the table.
            node.seed_keys = seeds

    def _plan(self, seq):
        """Rank candidates for one sequence.

        Returns ``(choice, plan-or-None, seed-keys-or-None)`` — the seed
        keys only when the dense plan won but background digests should
        still be harvested from its forward.
        """
        cfg = self.config
        sched = self.predictor.scheduler
        n = len(seq)
        dense = (lambda c, seeds=None: (c, None, seeds))

        # Sparse plans need the full natural layout: every row real, and
        # detail metadata present so background claims are grounded.
        if n == 0 or not bool(seq.valid.all()):
            return dense(self.chooser.choose(n, 0, 0.0, 0.0, 0,
                                             sched.bucket_length))
        digests = token_digests(seq.tokens(), cfg.quantize)
        bg = background_mask(seq, cfg.detail_threshold)
        splan, seeds = None, None
        n_sc, sc_mass, total_mass = 0, 0.0, 0.0
        if bg is not None and int(bg.sum()) >= cfg.min_background:
            if bg.all():
                # An all-background sequence still anchors one token in the
                # model path so the reduced forward is never empty.
                bg[0] = False
            scene = getattr(seq, "image_size", None) or seq.volume_size
            cached: dict = {}
            known = np.zeros(n, dtype=bool)
            for i in np.flatnonzero(bg):
                row = self.table.get(BackgroundTable.key(
                    digests[i], seq.sizes[i], scene))
                if row is not None:
                    cached[int(i)] = row
                    known[i] = True
            self.stats["table_hits"] = self.table.hits
            self.stats["table_misses"] = self.table.misses
            splan = shortcircuit_plan(seq, digests, bg, known)
            splan.cached = cached
            seeds = [(BackgroundTable.key(digests[i], seq.sizes[i], scene),
                      int(i)) for i in splan.seeds]
            # Cost side: tokens the plan actually removes from the forward
            # (table-known skips + duplicates of a first-seen digest).
            # Quality side: the removed tokens' share of the detail mass —
            # representatives stay in-context, so their mass is exact.
            n_sc = n - len(splan.reduced_seq)
            total_mass = float(seq.details.sum())
            sc_mass = (float(seq.details[bg].sum())
                       - float(seq.details[splan.seeds].sum()))

        mplan = None
        if cfg.mode == "merge" or (cfg.mode == "auto" and cfg.epsilon > 0):
            mplan = merge_plan(seq, digests, seq.sizes, cfg.min_run)
        n_merged = 0 if mplan is None else mplan.n_merged

        choice = self.chooser.choose(n, n_sc, sc_mass, total_mass, n_merged,
                                     sched.bucket_length)
        if choice.plan == "shortcircuit":
            plan = splan
        elif choice.plan == "merge":
            plan = mplan
        else:
            return dense(choice, seeds)
        # A reduced sequence that would still overflow the positional table
        # gets randomly dropped by the fitter, destroying the row map — run
        # those (rare, maximally detailed) sequences dense instead.
        if sched.bucket_length(len(plan.reduced_seq)) < len(plan.reduced_seq):
            choice.plan = "dense"
            return dense(choice, seeds)
        return choice, plan, None

    # -- post-forward reconstruction ---------------------------------------
    def reconstruct(self, node, logits: np.ndarray) -> np.ndarray:
        """Expand reduced logits (padded length, D) to the full layout.

        Short-circuited rows come from the table copies taken at plan
        time (eviction-proof), then the representatives' in-context rows
        seed the table for future sequences.
        """
        plan = node.sparse
        full = plan.full_seq
        out = np.empty((len(full), logits.shape[-1]), dtype=logits.dtype)
        kept = plan.rows >= 0
        out[kept] = logits[plan.rows[kept]]
        if plan.cached:
            for i, row in plan.cached.items():
                out[i] = row
        if plan.seeds is not None and len(plan.seeds):
            scene = getattr(full, "image_size", None)
            if scene is None:
                scene = full.volume_size
            for i in plan.seeds:
                self.table.put(BackgroundTable.key(
                    plan.digests[i], full.sizes[i], scene), out[i].copy())
            self.stats["table_seeds"] += len(plan.seeds)
        return out

    def seed_dense(self, node, logits_row: np.ndarray) -> None:
        """Harvest background rows from a dense-plan forward.

        ``logits_row`` is the node's (padded length, D) slice of the
        micro-batch output; row ``i`` is token ``i`` because padding only
        appends. A sequence the fitter had to *drop-fit* is skipped — its
        row map is unreliable (and `_plan` never forms sparse plans for
        those either).
        """
        keys = getattr(node, "seed_keys", None)
        if not keys or logits_row.shape[0] < len(node.seq):
            return
        for key, i in keys:
            self.table.put(key, logits_row[i].copy())
        self.stats["table_seeds"] += len(keys)

    # -- memo population ---------------------------------------------------
    def finish(self, node, result: np.ndarray) -> None:
        """Store a freshly stitched result under the node's memo key."""
        if getattr(node, "memo_key", None) is not None:
            self.memo.put(node.memo_key, result.copy())
