"""Interactive slide-viewer subsystem: tile pyramids served on demand.

The viewer-shaped workload layer over the serving stack (ROADMAP item 4):
:mod:`~repro.pyramid.levels` turns any tiled source into a power-of-two
downsample pyramid with content-addressed tiles,
:mod:`~repro.pyramid.service` serves viewports over an engine or fleet
with viewport-distance priority, a cross-session shared tile cache,
speculative prefetch and stale-viewport cancellation, and
:mod:`~repro.pyramid.trace` generates seeded pan/zoom session traces and
replays them under the deterministic virtual clock.
"""

from .levels import PyramidTile, TilePyramid
from .service import PyramidService, TileTask, ViewportReport
from .trace import ViewportEvent, run_viewer_load, viewer_trace

__all__ = [
    "PyramidTile", "TilePyramid",
    "PyramidService", "TileTask", "ViewportReport",
    "ViewportEvent", "viewer_trace", "run_viewer_load",
]
