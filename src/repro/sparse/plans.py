"""The short-circuit plan: which tokens run, which ride the table.

A :class:`SparsePlan` pairs the original natural sequence with a reduced
one and a row map reconnecting them:

* ``rows[i] >= 0`` — full-sequence token ``i`` reads its logits from row
  ``rows[i]`` of the reduced forward's output (its own row for kept
  tokens, its digest group's representative's row for duplicates).
* ``rows[i] == -1`` — token ``i`` was short-circuited around the model
  entirely; its logits were copied out of the background table when the
  plan was formed (``cached``).

The table is warmed *by serving*, never by extra forwards: background
tokens whose digest the table hasn't seen stay in the reduced sequence —
one representative per distinct digest (``seeds``) — and their in-context
logits rows are inserted into the table after the forward, so the same
content short-circuits from the next sequence on.

Outputs therefore stay shape-identical to the dense path: the runtime
expands the reduced logits back to the full length before the one stitch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["SparsePlan", "background_mask", "take_tokens",
           "shortcircuit_plan"]


@dataclass
class SparsePlan:
    """The short-circuit execution of one natural sequence."""

    full_seq: object                 #: the original natural sequence
    reduced_seq: object              #: what actually runs through the model
    rows: np.ndarray                 #: (L_full,) -> reduced row, or -1
    n_skipped: int                   #: tokens routed to the table
    n_merged: int                    #: duplicates read a representative's row
    seeds: np.ndarray                #: full idx of first-seen bg digests
    cached: Optional[dict] = None    #: full idx -> logits row (table copies)


def background_mask(seq, threshold: float) -> Optional[np.ndarray]:
    """(L,) bool — tokens whose Eq. 6 detail mass is ``<= threshold``.

    ``None`` when the sequence carries no detail metadata (a producer
    outside the quadtree path, or post-``balance_2to1``) — no sparsity
    claims can be made without the scores.
    """
    details = getattr(seq, "details", None)
    if details is None:
        return None
    return (details <= threshold) & seq.valid


def take_tokens(seq, idx: np.ndarray):
    """Row-subset a :class:`PatchSequence`/:class:`VolumeSequence`.

    Geometry, validity and detail metadata all follow the same index, so
    the result is a well-formed natural sequence of the kept tokens.
    """
    return seq.take(idx, n_real=int(seq.valid[idx].sum()), n_dropped=0)


def shortcircuit_plan(seq, digests: np.ndarray, bg: np.ndarray,
                      known: np.ndarray) -> SparsePlan:
    """Route ``bg & known`` tokens around the model; dedup the rest.

    ``known`` marks background tokens whose digest the table already
    holds — those leave the forward entirely. Unknown-digest background
    tokens collapse onto one in-sequence representative per distinct
    (digest, leaf size): the first occurrence stays (listed in ``seeds``,
    its in-context row later seeds the table), later occurrences read the
    representative's row.
    """
    n = len(seq)
    skip = bg & known
    keep_mask = ~skip
    rep = np.arange(n)
    first: dict = {}
    seeds = []
    for i in np.flatnonzero(bg & ~known):
        gk = (digests[i].tobytes(), int(seq.sizes[i]))
        j = first.setdefault(gk, int(i))
        if j == i:
            seeds.append(int(i))
        else:
            keep_mask[i] = False
            rep[i] = j
    kept_pos = np.cumsum(keep_mask) - 1       # reduced row of each kept token
    rows = np.where(skip, -1, kept_pos[rep])
    n_skipped = int(skip.sum())
    return SparsePlan(full_seq=seq,
                      reduced_seq=take_tokens(seq, np.flatnonzero(keep_mask)),
                      rows=rows, n_skipped=n_skipped,
                      n_merged=int(n - keep_mask.sum()) - n_skipped,
                      seeds=np.asarray(seeds, dtype=np.int64))

