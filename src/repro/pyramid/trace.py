"""Seeded viewer-session traces and the viewer DES driver.

Interactive slide traffic has structure batch traces don't: sessions
**pan** (runs of small correlated viewport shifts), **zoom** (level
changes re-centered on the same world point), **dwell**, and **converge**
— many users end up on the same few hot regions of a slide.
:func:`viewer_trace` generates that shape deterministically from a seed:
every session walks a hotspot-seeded pan/zoom state machine with
exponential think times, so the same call always yields the same event
list on any host.

:func:`run_viewer_load` replays a trace against a
:class:`~repro.pyramid.service.PyramidService` through the one
discrete-event loop of :mod:`repro.serve.loadgen` — the engine executes
the real model on every batch, only the timeline is simulated. The
driver supplies only what is viewer-specific: each trace event submits a
``request_viewport``, and a hook after every batch stamps **per-tile
completion times** so time-to-first-tile is measurable per viewport
event. The backend is a single
:class:`~repro.serve.engine.InferenceEngine` or a whole
:class:`~repro.serve.router.FleetRouter` (with
:class:`~repro.serve.loadgen.ReplicaKill` / ``ReplicaDrain`` fault
injection), which is what the kill-mid-pan cleanliness gate in
``BENCH_viewer.json`` runs on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..serve.loadgen import SimClock, _simulate
from .service import PyramidService, TileTask, ViewportReport

__all__ = ["ViewportEvent", "viewer_trace", "run_viewer_load"]


@dataclass(frozen=True)
class ViewportEvent:
    """One viewer action: at ``time``, ``session`` looks at a window."""

    time: float
    session: str
    level: int
    origin: Tuple[int, int]        #: (y0, x0) in level-``level`` pixels
    size: Tuple[int, int]          #: (h, w) in level-``level`` pixels


def _clamp_origin(center: Tuple[float, float], level: int,
                  level_shape: Tuple[int, int],
                  size: Tuple[int, int]) -> Tuple[int, int]:
    """Viewport origin centered on a level-0 world point, kept on-slide."""
    h, w = size
    y0 = int(round(center[0] / (1 << level) - h / 2))
    x0 = int(round(center[1] / (1 << level) - w / 2))
    return (max(0, min(y0, level_shape[0] - h)),
            max(0, min(x0, level_shape[1] - w)))


def viewer_trace(shape: Tuple[int, int], n_levels: int, *,
                 sessions: int = 8, events_per_session: int = 12,
                 viewport: Tuple[int, int] = (512, 512), tile: int = 256,
                 seed: int = 0, start: float = 0.0,
                 think_mean: float = 0.08, hotspots: int = 3,
                 start_level: Optional[int] = None) -> List[ViewportEvent]:
    """Seeded multi-session pan/zoom traces over a ``shape`` scene.

    Each session starts at one of ``hotspots`` shared landmarks (drawn
    once from ``seed``, so sessions overlap there — the shared-cache
    traffic shape) and then walks a state machine per event: continue the
    current pan (55%), zoom a level in or out re-centered on the same
    world point (25%), jump to another hotspot (10%), or dwell (10%).
    Pan steps move half a tile in one of the 8 compass directions, so
    consecutive viewports overlap heavily — the regime prefetch and the
    shared cache are supposed to win in. Think times are exponential
    with mean ``think_mean`` virtual seconds.
    """
    if sessions < 1 or events_per_session < 1:
        raise ValueError("need at least one session and one event")
    if n_levels < 1:
        raise ValueError("need at least one pyramid level")
    h0, w0 = int(shape[0]), int(shape[1])
    if start_level is None:
        start_level = min(2, n_levels - 1)
    if not 0 <= start_level < n_levels:
        raise ValueError(f"start_level {start_level} outside [0, {n_levels})")
    hot_rng = np.random.default_rng([seed, 0xB00])
    hot = [(float(hot_rng.uniform(0.25, 0.75) * h0),
            float(hot_rng.uniform(0.25, 0.75) * w0))
           for _ in range(max(1, hotspots))]
    compass = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
               if (dy, dx) != (0, 0)]
    events: List[ViewportEvent] = []
    for s in range(sessions):
        rng = np.random.default_rng([seed, s + 1])
        level = start_level
        center = hot[int(rng.integers(len(hot)))]
        step = tile / 2.0
        dy, dx = compass[int(rng.integers(len(compass)))]
        t = start
        for k in range(events_per_session):
            t += float(rng.exponential(think_mean))
            if k > 0:
                action = rng.random()
                if action < 0.55:              # keep panning
                    scale = float(1 << level)
                    center = (center[0] + dy * step * scale,
                              center[1] + dx * step * scale)
                elif action < 0.80:            # zoom burst, same world point
                    if level == 0:
                        level += 1
                    elif level == n_levels - 1:
                        level -= 1
                    else:
                        level += -1 if rng.random() < 0.6 else 1
                    dy, dx = compass[int(rng.integers(len(compass)))]
                elif action < 0.90:            # jump to another hotspot
                    center = hot[int(rng.integers(len(hot)))]
                    dy, dx = compass[int(rng.integers(len(compass)))]
                # else: dwell (re-request the same viewport)
            center = (min(max(center[0], 0.0), float(h0)),
                      min(max(center[1], 0.0), float(w0)))
            lshape = (h0 >> level, w0 >> level)
            origin = _clamp_origin(center, level, lshape, viewport)
            events.append(ViewportEvent(t, f"s{s:02d}", level, origin,
                                        tuple(viewport)))
    events.sort(key=lambda e: (e.time, e.session))
    return events


def run_viewer_load(service: PyramidService, trace: Sequence[ViewportEvent],
                    clock: SimClock,
                    events: Sequence = ()) -> Dict[str, object]:
    """Replay a viewer trace through a tile service under the virtual clock.

    The service's backend must be a DES-configured
    :class:`~repro.serve.engine.InferenceEngine` or
    :class:`~repro.serve.router.FleetRouter` (constructed with
    ``clock=clock.now`` and a ``service_model``; never ``start()``\\ ed —
    the discrete-event loop owns dispatch via ``engine.step``).
    ``events`` interleaves :class:`~repro.serve.loadgen.ReplicaKill` /
    :class:`~repro.serve.loadgen.ReplicaDrain` on the virtual timeline
    (fleet backends only).

    Beyond :func:`~repro.serve.loadgen.run_load` semantics, the driver
    stamps every tile task's ``done_t`` with the *virtual completion
    time* of the batch that resolved it (``start + cost``, not the
    dispatch instant), which is what makes per-viewport
    time-to-first-tile well defined inside the simulation.
    """
    backend = service.backend
    live: List[TileTask] = []
    live_ids = set()
    reports: List[ViewportReport] = []

    def adopt(tasks: Sequence[TileTask]) -> None:
        for task in tasks:
            if task.future is None or id(task) in live_ids:
                continue
            if task.future.done() and not task.cancelled:
                # engine-result-cache hit at submit time: ready immediately
                task.done_t = task.submit_t
                continue
            live.append(task)
            live_ids.add(id(task))

    def stamp(done_at: float) -> None:
        for task in live:
            if (task.done_t is None and not task.cancelled
                    and task.future.done() and not task.future.cancelled()):
                task.done_t = done_at
        live[:] = [t for t in live
                   if t.done_t is None and not t.cancelled
                   and not t.future.cancelled()]
        live_ids.clear()
        live_ids.update(id(t) for t in live)

    def submit(ev: ViewportEvent, at: float) -> None:
        report = service.request_viewport(ev.session, ev.level, ev.origin,
                                          ev.size, now=at)
        adopt(report.tasks)
        adopt(report.prefetched)
        reports.append(report)

    _simulate(backend, clock, trace, submit, events, on_done=stamp)

    # -- integrity: nothing leaked, nothing failed -------------------------
    seen: Dict[int, TileTask] = {}
    for report in reports:
        for task in list(report.tasks) + list(report.prefetched):
            seen[id(task)] = task
    leaked = failed = cancelled = 0
    for task in seen.values():
        if task.future is None:
            continue
        if task.cancelled or task.future.cancelled():
            cancelled += 1
            continue
        if not task.future.done():
            leaked += 1
        elif task.future.exception() is not None:
            failed += 1

    ttfts = [report.time_to_first_tile() for report in reports]
    landed = np.asarray([t for t in ttfts if t is not None])
    makespan = max(clock.now() - trace[0].time, 1e-12)

    def total(attr: str) -> int:
        return sum(getattr(report, attr) for report in reports)

    return {
        "viewports": len(reports),
        "sessions": len({report.session for report in reports}),
        "tiles_visible": sum(len(report.tasks) for report in reports),
        "cache_hits": total("cache_hits"),
        "joined": total("joined"),
        "submitted": total("submitted"),
        "rejected": total("rejected"),
        "cancelled_stale": total("cancelled_stale"),
        "prefetch_submitted": total("prefetch_submitted"),
        "prefetch_rejected": total("prefetch_rejected"),
        "starved_viewports": int(sum(1 for t in ttfts if t is None)),
        "ttft": {
            "count": int(landed.size),
            "p50": float(np.percentile(landed, 50)) if landed.size else None,
            "p95": float(np.percentile(landed, 95)) if landed.size else None,
            "p99": float(np.percentile(landed, 99)) if landed.size else None,
            "mean": float(landed.mean()) if landed.size else None,
        },
        "failed": failed,
        "leaked": leaked,
        "cancelled_tasks": cancelled,
        "outstanding": service.outstanding,
        "makespan": makespan,
        "service": service.stats(),
        "backend": backend.stats(),
        "reports": reports,
    }
