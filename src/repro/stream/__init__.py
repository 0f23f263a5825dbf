"""``repro.stream`` — out-of-core streaming inference.

Segments scenes far larger than memory (gigapixel WSIs, long CT volumes)
under a hard memory bound, with outputs matching the non-streamed serving
paths bit for bit:

* :mod:`.source` — :class:`TiledSource` scene addressing
  (:class:`ArraySource`, procedural :class:`VirtualWSISource`);
* :mod:`.planner` — quadtree-aligned macro-tiles / Z-slabs with
  working-set estimates (:func:`plan_scene`, :func:`plan_volume`);
* :mod:`.runner` — the bounded-memory loop over a
  :class:`~repro.serve.predictor.Predictor` (read-ahead, bit-exact);
* :mod:`.sink` — tile-addressable outputs with atomic checkpoint/resume
  (:class:`MemorySink`, :class:`NpyDirectorySink`).
"""

from .planner import MacroTile, StreamPlan, plan_scene, plan_volume
from .runner import StreamingRunner, StreamReport
from .sink import MemorySink, NpyDirectorySink
from .source import ArraySource, TiledSource, VirtualWSISource

__all__ = [
    "TiledSource", "ArraySource", "VirtualWSISource",
    "MacroTile", "StreamPlan", "plan_scene", "plan_volume",
    "StreamingRunner", "StreamReport",
    "MemorySink", "NpyDirectorySink",
]
