"""Nodes of the inference work graph and serving-side post-processing.

:class:`~repro.serve.predictor.Predictor` runs the graph — tiles →
sequences → micro-batches → stitch — for every front end; this module
holds the nodes it passes between stages and :func:`class_map`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..patching.transfer import stitch

__all__ = ["SequenceNode", "MicroBatch", "TileNode", "class_map"]


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

    ``bucket`` is the padded length the predictor assigned. Once its
    micro-batch has run, ``tokens`` holds the node's own copy of its
    token probabilities (the plan reuses its output buffers), which
    :attr:`result` stitches on first read.
    """

    seq: object
    bucket: int
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
    :meth:`~repro.serve.predictor.Predictor.run` packs the nodes into rows
    of that length and executes the compiled plan of the packed shape.
    """

    length: int
    nodes: List[SequenceNode]


@dataclass
class TileNode:
    """A macro-tile (image tile or volume slab) and its sequence children.

    An image tile expands to one child; a ``(d, Z, Z)`` volume slab to
    ``d`` children (one per slice — the BTCV per-slice protocol). The
    reduction back to the sink value lives in
    :meth:`~repro.serve.predictor.Predictor.reduce_tile`.
    """

    kind: str                              #: "image" | "volume"
    children: List[SequenceNode] = field(default_factory=list)
