"""The sparsity runtime: the background short-circuit inside the scheduler.

One :class:`SparseRuntime` hangs off a
:class:`~repro.serve.predictor.Predictor` (``sparsity=SparsityConfig()``)
and the shared :class:`~repro.serve.scheduler.WorkGraphScheduler` consults
it at two points:

* :meth:`prepare` — when a natural sequence becomes a graph node: form
  its short-circuit plan and apply the one rule. The sequence
  short-circuits exactly when the tokens the plan takes out of the
  forward move it to a strictly smaller length bucket; then the node's
  sequence is swapped for the reduced one (the bucket, the micro-batch
  and the compiled signature all shrink with it). A strictly smaller
  bucket is below the positional table, so the reduced sequence always
  fits it and is never drop-fitted.
* :meth:`reconstruct` — when the reduced forward returns: expand the
  logits back to the full token layout (kept rows from the model,
  duplicates from their representative, short-circuited rows from the
  table copies taken at plan time), so the stitch sees a full-length
  sequence and outputs stay shape-identical.

After either plan's forward, :meth:`seed` puts the in-context rows of
first-seen background digests into the table. The table is warmed **by
serving, never by extra forwards**: a probe forward per distinct digest
would cost about as much per token-row as just running the token (the
forward is MLP-dominated, linear in rows), so cold content stays in the
sequence as its digest group's representative and only *repeat*
sightings are skipped.

The short-circuit is lossy. A skipped token reads a row computed for
another token at another position, in another sequence's attention
context; only the routed-around tokens' own content (zero Eq. 6 mass,
equal quantized digest) is matched.

All decisions and cache traffic are counted in :attr:`stats`, which the
Predictor exposes as ``stats["sparsity"]`` — visible through
``engine.stats()`` in every front-end.
"""

from __future__ import annotations

import numpy as np

from .config import (DETAIL_THRESHOLD, MIN_BACKGROUND, QUANTIZE,
                     TABLE_ITEMS, SparsityConfig)
from .digest import token_digests
from .plans import background_mask, shortcircuit_plan
from .table import BackgroundTable

__all__ = ["SparseRuntime"]


class SparseRuntime:
    """Per-predictor sparsity state: the background table and counters."""

    def __init__(self, predictor, config: SparsityConfig):
        self.predictor = predictor
        self.config = config
        self.table = BackgroundTable(TABLE_ITEMS)
        self.stats = {
            "mode": config.mode,
            "plans": {"dense": 0, "shortcircuit": 0},
            "table_hits": 0, "table_misses": 0, "table_seeds": 0,
            "tokens_total": 0, "tokens_skipped": 0, "tokens_merged": 0,
            "last_decision": None,
        }

    # -- node preparation --------------------------------------------------
    def prepare(self, node) -> None:
        """Plan one sequence node, reducing it when it short-circuits."""
        n = len(node.seq)
        plan, node.seed_keys = self._plan(node.seq)
        verdict = "dense" if plan is None else "shortcircuit"
        self.stats["plans"][verdict] += 1
        self.stats["tokens_total"] += n
        self.stats["last_decision"] = {
            "plan": verdict, "n_tokens": n,
            "n_removed": 0 if plan is None else n - len(plan.reduced_seq)}
        if plan is not None:
            self.stats["tokens_skipped"] += plan.n_skipped
            self.stats["tokens_merged"] += plan.n_merged
            node.sparse = plan
            node.seq = plan.reduced_seq

    def _plan(self, seq):
        """``(plan or None, seed keys or None)`` for one natural sequence.

        The seed keys name the first-seen background digests whose
        forward rows :meth:`seed` puts into the table, whichever plan runs.
        """
        n = len(seq)
        # A short-circuit needs the full natural layout: every row real,
        # and detail metadata present so background claims are grounded.
        if not seq.valid.all():
            return None, None
        bg = background_mask(seq, DETAIL_THRESHOLD)
        if bg is None or int(bg.sum()) < MIN_BACKGROUND:
            return None, None
        if bg.all():
            # An all-background sequence still anchors one token in the
            # model path so the reduced forward is never empty.
            bg[0] = False
        digests = token_digests(seq.tokens(), QUANTIZE)
        scene = seq.scene_size
        keys = {int(i): BackgroundTable.key(digests[i], seq.sizes[i], scene)
                for i in np.flatnonzero(bg)}
        cached: dict = {}
        for i, key in keys.items():
            row = self.table.get(key)
            if row is not None:
                cached[i] = row
        self.stats["table_hits"] = self.table.hits
        self.stats["table_misses"] = self.table.misses
        known = np.zeros(n, dtype=bool)
        known[list(cached)] = True
        plan = shortcircuit_plan(seq, digests, bg, known)
        seeds = [(keys[int(i)], int(i)) for i in plan.seeds]
        bucket = self.predictor.scheduler.bucket_length
        if self.config.mode == "auto" \
                and bucket(len(plan.reduced_seq)) < bucket(n):
            plan.cached = cached
            return plan, seeds
        return None, seeds

    # -- post-forward ------------------------------------------------------
    def reconstruct(self, node, logits: np.ndarray) -> np.ndarray:
        """Expand reduced logits (one row per token, D) to the full layout.

        Short-circuited rows come from the table copies taken at plan
        time, so an eviction in between cannot lose them.
        """
        plan = node.sparse
        out = np.empty((len(plan.full_seq), logits.shape[-1]),
                       dtype=logits.dtype)
        kept = plan.rows >= 0
        out[kept] = logits[plan.rows[kept]]
        for i, row in plan.cached.items():
            out[i] = row
        return out

    def seed(self, node, rows: np.ndarray) -> None:
        """Put the node's first-seen background rows into the table.

        ``rows`` is the node's full-layout (tokens, D) logits: its own
        slice of the packed output, or :meth:`reconstruct`'s expansion.
        A dense sequence the fitter had to *drop-fit* has fewer rows than
        tokens and an unreliable row map, so it seeds nothing.
        """
        keys = node.seed_keys
        if not keys or rows.shape[0] < len(node.seq):
            return
        for key, i in keys:
            self.table.put(key, rows[i].copy())
        self.stats["table_seeds"] += len(keys)
