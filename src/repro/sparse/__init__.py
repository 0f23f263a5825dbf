"""``repro.sparse`` — the background short-circuit at inference time.

The quadtree already measured every patch's detail (the Eq. 6 region mass
that decided not to split it); this package stops throwing that signal
away at predict time. Provably flat tokens whose quantized content was
served before route around the transformer to a digest-keyed table of
logits rows; first sightings stay in the sequence, one per digest, and
seed the table. A sequence takes the short-circuit only when that moves
it to a smaller length bucket. It runs inside the shared
:class:`~repro.serve.scheduler.WorkGraphScheduler`, so every front-end
(Predictor, InferenceEngine, FleetRouter, StreamingRunner) gets it.
"""

from .config import SparsityConfig
from .digest import quantize_tokens, token_digests
from .plans import SparsePlan, background_mask, shortcircuit_plan, take_tokens
from .runtime import SparseRuntime
from .table import BackgroundTable

__all__ = [
    "SparsityConfig", "SparseRuntime",
    "SparsePlan", "background_mask", "shortcircuit_plan", "take_tokens",
    "BackgroundTable", "quantize_tokens", "token_digests",
]
