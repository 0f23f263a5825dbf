"""Interactive tile service — viewports in, prioritized tile plans out.

:class:`PyramidService` is the viewer-facing front end over the serving
stack. A viewport request ``(level, origin, size)`` becomes a set of
:class:`~repro.pyramid.levels.PyramidTile` fetches, resolved in layers:

1. **Shared tile cache** (a :class:`~repro.cache.LRU` keyed by content
   digest): finished tile results, shared by every session. A tile any
   viewer has already seen costs nothing and skips submission entirely —
   the million-user case is many viewers converging on the same hot
   regions, and identical pixels anywhere on the slide share one entry.
2. **In-flight join**: a tile some session is already waiting on is
   *joined*, not resubmitted — the new session rides the same future.
   (The engine would collapse the duplicate anyway; joining here avoids
   even the submission and keeps one task per digest to account against.)
3. **Submission**: remaining tiles go to the backend
   (:class:`~repro.serve.engine.InferenceEngine` or
   :class:`~repro.serve.router.FleetRouter`) on the **interactive** lane,
   ordered center-out from the viewport middle — under ``policy =
   "priority"`` the tiles the user is looking at dispatch first. The
   ``"fifo"`` policy submits in row-major scan order and never cancels:
   the control arm every viewer benchmark compares against.

Around the visible set the service runs **speculative prefetch** into the
bulk lane: pan-direction extrapolation when the session's previous
viewport shows a drift, zoom-adjacent (parent/child) tiles otherwise,
ordered along a space-filling curve (Hilbert by default — see
``prefetch_order``) so speculative work lands cache-coherently. Prefetch
is best-effort: admission rejections are counted, never raised.

When a viewport supersedes one it overlaps, still-queued tiles from the
old viewport are **cancelled** through the backend's ``cancel()`` path
(waiting work only — dispatched or twin-carrying requests stay). The
freed queue slots are what lets priority beat FIFO under backlog rather
than merely reordering the same queue.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..cache import LRU
from ..quadtree.hilbert import hilbert_sort_order
from ..quadtree.morton import morton_sort_order
from ..serve.metrics import MetricsRegistry
from ..serve.queueing import EngineOverloaded
from .levels import PyramidTile, TilePyramid

__all__ = ["TileTask", "ViewportReport", "PyramidService"]


@dataclass
class TileTask:
    """One unit of tile work and every session riding on it."""

    tile: PyramidTile
    digest: Hashable
    lane: str
    submit_t: float
    future: object = None             #: backend Future (None: cached/rejected)
    sessions: Set[str] = field(default_factory=set)
    prefetch: bool = False
    cached: bool = False              #: served from the shared cache
    joined: bool = False              #: rode an already-in-flight task
    rejected: bool = False            #: admission control said no
    cancelled: bool = False           #: retired by stale-viewport cleanup
    done_t: Optional[float] = None    #: completion stamp (set by the driver)

    @property
    def live(self) -> bool:
        """Still owed a completion (submitted, not yet resolved/retired)."""
        return (self.future is not None and not self.cancelled
                and self.done_t is None and not self.future.done())


@dataclass
class ViewportReport:
    """What one ``request_viewport`` call did, for drivers and benches."""

    session: str
    time: float
    level: int
    origin: Tuple[int, int]
    size: Tuple[int, int]
    tasks: List[TileTask] = field(default_factory=list)      #: visible tiles
    prefetched: List[TileTask] = field(default_factory=list)
    cache_hits: int = 0
    joined: int = 0
    submitted: int = 0
    rejected: int = 0
    cancelled_stale: int = 0
    prefetch_submitted: int = 0
    prefetch_rejected: int = 0

    def time_to_first_tile(self) -> Optional[float]:
        """Seconds from the viewport event until any visible tile is
        available (0.0 on a shared-cache hit; None if nothing landed)."""
        if any(t.cached for t in self.tasks):
            return 0.0
        done = [t.done_t - self.time for t in self.tasks
                if t.done_t is not None]
        return min(done) if done else None


class PyramidService:
    """Viewport-priority tile serving over an engine or fleet backend.

    Parameters
    ----------
    pyramid:
        The :class:`~repro.pyramid.levels.TilePyramid` to serve.
    backend:
        Anything with ``submit(image, lane=...) -> Future`` — an
        :class:`~repro.serve.engine.InferenceEngine` or a
        :class:`~repro.serve.router.FleetRouter`. Cancellation uses the
        backend's ``cancel(future)`` when present.
    policy:
        ``"priority"`` (center-out dispatch + stale cancellation) or
        ``"fifo"`` (row-major, never cancels — the benchmark control).
    prefetch_tiles:
        Speculative-tile budget per viewport event (0 disables prefetch).
    prefetch_order:
        ``"hilbert"`` or ``"morton"`` — the space-filling curve ordering
        of the speculative set (the viewer bench records the locality
        delta between the two).
    clock:
        Callable returning the current time; pass the DES
        :class:`~repro.serve.loadgen.SimClock` so submit stamps live in
        virtual time. Defaults to the backend engine clock semantics via
        explicit ``now=`` arguments.
    """

    def __init__(self, pyramid: TilePyramid, backend, *,
                 policy: str = "priority", prefetch_tiles: int = 4,
                 prefetch_order: str = "hilbert",
                 cache_items: int = 512,
                 lane: str = "interactive", prefetch_lane: str = "bulk",
                 clock=None, tracer=None):
        if policy not in ("priority", "fifo"):
            raise ValueError(f"unknown policy {policy!r}")
        if prefetch_order not in ("hilbert", "morton"):
            raise ValueError(f"unknown prefetch order {prefetch_order!r}")
        if prefetch_tiles < 0:
            raise ValueError("prefetch_tiles must be >= 0")
        self.pyramid = pyramid
        self.backend = backend
        self.policy = policy
        self.prefetch_tiles = prefetch_tiles
        self.prefetch_order = prefetch_order
        self.lane = lane
        self.prefetch_lane = prefetch_lane
        self.clock = clock
        self.cache = LRU(cache_items)
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        #: digest -> in-flight TileTask (cross-session join point)
        self._outstanding: Dict[Hashable, TileTask] = {}
        #: session -> {tile: task} of its live (cancellable) work
        self._session_tasks: Dict[str, Dict[PyramidTile, TileTask]] = {}
        self._last_viewport: Dict[str, Tuple[int, int, int]] = {}
        # Tracing (repro.obs): cache/join/submit/cancel decisions land on
        # the "viewer" track; inherits the backend's tracer by default so
        # one Tracer covers viewer -> router -> replicas end to end.
        if tracer is None:
            tracer = getattr(backend, "tracer", None)
        self.tracer = tracer if (tracer is not None and tracer.enabled) \
            else None

    # -- ordering ----------------------------------------------------------
    def _visible_order(self, tiles: Sequence[PyramidTile],
                       origin: Tuple[int, int],
                       size: Tuple[int, int]) -> List[PyramidTile]:
        """Dispatch order for visible tiles: the scheduling policy itself.

        Priority mode sorts by squared distance from the viewport center
        (what the user is looking *at* renders first); FIFO keeps the
        row-major scan order as a plain reading-order control.
        """
        if self.policy == "fifo":
            return sorted(tiles, key=lambda t: (t.ty, t.tx))
        s = self.pyramid.tile
        cy = origin[0] + size[0] / 2.0
        cx = origin[1] + size[1] / 2.0
        return sorted(tiles, key=lambda t: (
            ((t.ty + 0.5) * s - cy) ** 2 + ((t.tx + 0.5) * s - cx) ** 2,
            t.ty, t.tx))

    def _curve_order(self, tiles: Sequence[PyramidTile]) -> List[PyramidTile]:
        """Space-filling-curve order (prefetch locality, not priority)."""
        if len(tiles) < 2:
            return list(tiles)
        ys = np.array([t.ty for t in tiles])
        xs = np.array([t.tx for t in tiles])
        sort = (hilbert_sort_order if self.prefetch_order == "hilbert"
                else morton_sort_order)
        return [tiles[i] for i in sort(ys, xs)]

    # -- prefetch target selection ----------------------------------------
    def _prefetch_candidates(self, session: str, level: int,
                             origin: Tuple[int, int], size: Tuple[int, int],
                             visible: Set[PyramidTile]) -> List[PyramidTile]:
        """Speculate where the viewer goes next.

        A session panning (same level, drifting origin) most likely keeps
        panning: extrapolate the last motion vector one step and take the
        newly exposed tiles. A session that just zoomed, jumped, or sat
        still gets zoom-adjacent speculation instead: the parents (zoom
        out is always one click away) and the center tile's children.
        """
        py = self.pyramid
        candidates: List[PyramidTile] = []
        last = self._last_viewport.get(session)
        if last is not None and last[0] == level:
            dy, dx = origin[0] - last[1], origin[1] - last[2]
            if dy or dx:
                shifted = py.viewport_tiles(
                    level, (origin[0] + dy, origin[1] + dx), size)
                candidates.extend(t for t in shifted if t not in visible)
        if not candidates:
            seen: Set[PyramidTile] = set(visible)
            for t in self._visible_order(visible, origin, size):
                parent = py.parent(t)
                if parent is not None and parent not in seen:
                    candidates.append(parent)
                    seen.add(parent)
            center = min(visible, key=lambda t: (
                abs((t.ty + 0.5) * py.tile - origin[0] - size[0] / 2)
                + abs((t.tx + 0.5) * py.tile - origin[1] - size[1] / 2),
                t.ty, t.tx), default=None)
            if center is not None:
                candidates.extend(c for c in py.children(center)
                                  if c not in seen)
        return self._curve_order(candidates)[:self.prefetch_tiles]

    # -- stale-viewport cancellation --------------------------------------
    def _cancel_stale(self, session: str, keep: Set[PyramidTile],
                      now: float = 0.0) -> int:
        """Retire this session's queued tiles that the new viewport obsoleted.

        A tile is only *cancelled at the backend* when no session still
        wants it and the backend confirms it was still waiting (dispatched
        or twin-carrying work completes normally and fills the shared
        cache — never wasted, never orphaned).
        """
        cancel = getattr(self.backend, "cancel", None)
        if cancel is None:
            return 0
        cancelled = 0
        mine = self._session_tasks.get(session, {})
        for tile in [t for t in mine if t not in keep]:
            task = mine.pop(tile)
            task.sessions.discard(session)
            if task.sessions or not task.live:
                continue
            if cancel(task.future):
                task.cancelled = True
                cancelled += 1
                with self._lock:
                    if self._outstanding.get(task.digest) is task:
                        del self._outstanding[task.digest]
                self.metrics.inc("stale_cancelled")
                if self.tracer is not None:
                    self.tracer.instant(
                        "tile.cancel", "viewer", now,
                        args={"session": session,
                              "digest": str(task.digest)[:12]})
        return cancelled

    # -- completion --------------------------------------------------------
    def _on_done(self, task: TileTask, fut) -> None:
        if fut.cancelled():
            return
        exc = fut.exception()
        with self._lock:
            if self._outstanding.get(task.digest) is task:
                del self._outstanding[task.digest]
            if exc is not None:
                self.metrics.inc("failed")
                return
            # private copy: the cache freezes what it holds, and the
            # future's array belongs to whoever else waits on it
            self.cache.put(task.digest, np.array(fut.result()))
            self.metrics.inc("completed")

    # -- the front door ----------------------------------------------------
    def request_viewport(self, session: str, level: int,
                         origin: Tuple[int, int], size: Tuple[int, int],
                         now: Optional[float] = None) -> ViewportReport:
        """Resolve one viewport: cache, join, submit, prefetch, cancel.

        Returns a :class:`ViewportReport` carrying one
        :class:`TileTask` per visible tile (cache hits included) plus the
        speculative tasks — the DES driver stamps their completion times.
        """
        if now is None:
            now = self.clock() if self.clock is not None else 0.0
        py = self.pyramid
        report = ViewportReport(session=session, time=now, level=level,
                                origin=tuple(origin), size=tuple(size))
        visible = py.viewport_tiles(level, origin, size)
        visible_set = set(visible)
        prefetch = (self._prefetch_candidates(session, level, origin, size,
                                              visible_set)
                    if self.prefetch_tiles and visible else [])
        if self.tracer is not None:
            self.tracer.instant(
                "viewport", "viewer", now,
                args={"session": session, "level": level,
                      "origin": [int(origin[0]), int(origin[1])],
                      "size": [int(size[0]), int(size[1])],
                      "tiles": len(visible)})
        if self.policy == "priority":
            report.cancelled_stale = self._cancel_stale(
                session, visible_set | set(prefetch), now)
        mine = self._session_tasks.setdefault(session, {})
        for tile in self._visible_order(visible, origin, size):
            task = self._resolve_tile(session, tile, now, report,
                                      prefetch=False)
            report.tasks.append(task)
            if task.live:
                mine[tile] = task
        for tile in prefetch:
            if tile in mine:        # already live for this session
                continue
            task = self._resolve_tile(session, tile, now, report,
                                      prefetch=True)
            if task is not None:
                report.prefetched.append(task)
                if task.live:
                    mine[tile] = task
        self._last_viewport[session] = (level, int(origin[0]),
                                        int(origin[1]))
        self.metrics.inc("viewports")
        return report

    def _resolve_tile(self, session: str, tile: PyramidTile, now: float,
                      report: ViewportReport,
                      prefetch: bool) -> Optional[TileTask]:
        """One tile through the cache / join / submit ladder."""
        digest = self.pyramid.digest(tile)
        lane = self.prefetch_lane if prefetch else self.lane
        tracer = self.tracer
        targs = ({"session": session, "digest": str(digest)[:12],
                  "prefetch": prefetch}
                 if tracer is not None else None)
        with self._lock:
            value = self.cache.get(digest)
            joined = self._outstanding.get(digest) if value is None else None
        if value is not None:
            if prefetch:            # speculating on a cached tile is free
                return None
            report.cache_hits += 1
            self.metrics.inc("tile_cache_hits")
            if tracer is not None:
                tracer.instant("tile.cache_hit", "viewer", now, args=targs)
            return TileTask(tile=tile, digest=digest, lane=lane,
                            submit_t=now, sessions={session},
                            cached=True, done_t=now)
        if joined is not None:
            joined.sessions.add(session)
            joined.joined = True
            if prefetch:
                return None
            report.joined += 1
            self.metrics.inc("tile_joined")
            if tracer is not None:
                tracer.instant("tile.join", "viewer", now, args=targs)
            return joined
        task = TileTask(tile=tile, digest=digest, lane=lane, submit_t=now,
                        sessions={session}, prefetch=prefetch)
        try:
            task.future = self.backend.submit(self.pyramid.tile_pixels(tile),
                                              lane=lane)
        except EngineOverloaded:
            # Visible tiles surface the rejection (the viewer re-requests
            # on its next event); speculative ones just evaporate.
            task.rejected = True
            if tracer is not None:
                tracer.instant("tile.reject", "viewer", now, args=targs)
            if prefetch:
                report.prefetch_rejected += 1
                self.metrics.inc("prefetch_rejected")
                return None
            report.rejected += 1
            self.metrics.inc("tile_rejected")
            return task
        with self._lock:
            self._outstanding[digest] = task
        if tracer is not None:
            tracer.instant("tile.submit", "viewer", now,
                           args=dict(targs, lane=lane))
        task.future.add_done_callback(
            lambda fut, task=task: self._on_done(task, fut))
        if prefetch:
            report.prefetch_submitted += 1
            self.metrics.inc("prefetch_submitted")
        else:
            report.submitted += 1
            self.metrics.inc("tile_submitted")
        return task

    # -- results & introspection ------------------------------------------
    def tile_result(self, task: TileTask) -> np.ndarray:
        """The finished result for a task (cache first, then its future)."""
        value = self.cache.peek(task.digest)
        if value is not None:
            return value
        if task.future is None:
            raise LookupError(f"tile {task.tile} has no pending result")
        return task.future.result()

    @property
    def outstanding(self) -> int:
        """In-flight tile count (0 after a drain = nothing leaked)."""
        return len(self._outstanding)

    def stats(self) -> dict:
        snap = self.metrics.snapshot()
        return {"service": snap, "tile_cache": self.cache.stats(),
                "outstanding": self.outstanding,
                "policy": self.policy,
                "prefetch_order": self.prefetch_order}
