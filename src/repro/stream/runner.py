"""Bounded-memory streaming loop over the existing inference stack.

:class:`StreamingRunner` walks a :class:`~repro.stream.planner.StreamPlan`
and keeps at most ``max_inflight`` macro-tiles resident at any instant: a
tile is read from the source, driven through the serving stack, reduced to
its class map, handed to the sink, and dropped — peak memory is set by the
tile size and ``max_inflight``, never by the scene.

Two drive modes over unchanged numerics:

* **Predictor mode** (``StreamingRunner(predictor)``) — strictly serial:
  each macro-tile expands to a
  :class:`~repro.serve.scheduler.TileNode` and drains through the shared
  :class:`~repro.serve.scheduler.WorkGraphScheduler` (the same plan
  cache, bucketing, and vectorized stitch every other front-end uses),
  so streamed class maps are **bit-identical** to the non-streamed
  per-tile reference. Each tile is read once, so it is never
  content-hashed for the pipeline cache. This is the mode the bench gate
  pins.
* **Engine mode** (``StreamingRunner(engine=engine)``) — overlapped:
  up to ``max_inflight`` tiles are submitted to the
  :class:`~repro.serve.engine.InferenceEngine` (continuous batcher, plan
  cache, result cache) before the oldest is awaited. Submission is
  backpressure-aware: :class:`EngineOverloaded` rejections first retire
  in-flight work, then honor the engine's ``retry_after`` hint — the
  runner never spins against a full queue and never grows its own. With
  a started engine, batch composition follows arrival timing (the usual
  serving caveat); with an unstarted engine the runner drives
  :meth:`InferenceEngine.step` itself, which keeps tests deterministic.

Checkpoint/resume is delegated to the sink: tiles already durable are
skipped (``resume=True``), so a killed run continues where it stopped and
— because per-tile outputs are pure functions of the tile — produces
byte-identical artifacts to an uninterrupted run.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from ..perf.memory import TracedMemory
from ..serve.predictor import class_map
from ..serve.queueing import EngineOverloaded
from .planner import StreamPlan
from .source import TiledSource

__all__ = ["StreamingRunner", "StreamReport"]


@dataclass
class StreamReport:
    """What one :meth:`StreamingRunner.run` did (JSON-able via ``asdict``)."""

    tiles_total: int
    tiles_run: int
    tiles_skipped: int
    seconds: float
    peak_inflight: int
    backpressure_waits: int
    bytes_read: int
    working_set_bytes: int       #: planner's per-tile estimate
    scene_bytes: int             #: full-scene float64 cost (avoided)
    peak_traced_bytes: Optional[int] = None   #: measured (track_memory=True)
    #: Sparsity fast-path counters accrued by *this run* (plan counts,
    #: tokens skipped/merged, cache traffic) — ``None`` when the serving
    #: predictor has no sparsity runtime attached.
    sparsity: Optional[dict] = None

    def to_dict(self) -> dict:
        return asdict(self)


class StreamingRunner:
    """Stream a plan through a Predictor (serial) or InferenceEngine.

    Parameters
    ----------
    predictor:
        Serial bit-exact mode; mutually exclusive with ``engine``.
    engine:
        Overlapped mode with backpressure-aware submission.
    max_inflight:
        Macro-tiles resident at once (engine mode; predictor mode is 1).
    lane:
        Engine lane for streamed tiles. Defaults to ``"bulk"`` so a
        background slide job cannot starve interactive traffic.
    track_memory:
        Measure the run's peak traced allocation
        (:class:`~repro.perf.memory.TracedMemory`) into the report.
    tracer:
        Optional :class:`~repro.obs.Tracer`; the run emits ``tile.read``
        spans and ``tile.submit`` / ``tile.retire`` / ``tile.skip``
        instants on the ``stream`` track. Defaults to the engine's (or
        predictor's) tracer so one shared timeline covers both layers.
    """

    def __init__(self, predictor=None, *, engine=None, max_inflight: int = 2,
                 lane: str = "bulk", track_memory: bool = False, tracer=None):
        if (predictor is None) == (engine is None):
            raise ValueError("pass exactly one of predictor= or engine=")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.predictor = predictor
        self.engine = engine
        self.max_inflight = max_inflight if engine is not None else 1
        self.lane = lane
        self.track_memory = track_memory
        if tracer is None:
            owner = engine if engine is not None else predictor
            tracer = owner.tracer
        self.tracer = tracer if (tracer is not None and tracer.enabled) \
            else None

    # -- sparsity accounting ----------------------------------------------
    def _sparsity_counters(self) -> Optional[dict]:
        """Flat numeric snapshot of the serving predictor's sparsity stats."""
        owner = self.predictor if self.predictor is not None \
            else self.engine.predictor
        rt = owner.sparsity
        if rt is None:
            return None
        flat = {k: v for k, v in rt.stats.items() if isinstance(v, int)}
        flat.update({f"plans_{k}": v for k, v in rt.stats["plans"].items()})
        return flat

    # -- engine-mode plumbing ---------------------------------------------
    def _resolve(self, fut: Future):
        """Block until ``fut`` is done, driving an unstarted engine ourselves.

        Waits on a started engine in short polls, re-checking
        :attr:`InferenceEngine.is_running` each round: if the batcher
        thread dies mid-wait, the loop falls through to self-driving
        :meth:`InferenceEngine.step` (or raises) instead of blocking on a
        future a dead thread will never resolve.
        """
        while True:
            if self.engine.is_running:
                try:
                    return fut.result(timeout=0.1)
                except FutureTimeout:
                    continue
            if fut.done():
                return fut.result()
            if self.engine.step(force=True) is None and not fut.done():
                raise RuntimeError(
                    "engine queue drained but a streamed future is still "
                    "pending — was the engine stopped (or its batcher "
                    "killed) mid-run?")

    def _retire_oldest(self, inflight: deque, sink) -> None:
        tile, fut, to_class = inflight.popleft()
        value = self._resolve(fut)
        sink.write(tile, class_map(value) if to_class else value)
        if self.tracer is not None:
            self.tracer.instant("tile.retire", "stream", self.tracer.clock(),
                                args={"index": tile.index})

    def _submit(self, region: np.ndarray, kind: str, inflight: deque,
                sink) -> tuple:
        """Backpressure-aware submit → ``(future, needs_class_map, waits)``."""
        needed = region.shape[0] if kind == "volume" else 1
        if needed > self.engine.config.max_queue:
            # never admittable, even against an empty queue — raising here
            # beats retrying forever (volume admission is all-or-nothing)
            raise EngineOverloaded(
                f"a {needed}-slice macro-tile can never fit the engine queue "
                f"(max_queue={self.engine.config.max_queue}); deepen the "
                "queue or shrink the slab")
        waits = 0
        while True:
            try:
                if kind == "volume":
                    return self.engine.submit_volume(region, lane=self.lane), \
                        False, waits
                return self.engine.submit(region, lane=self.lane), True, waits
            except EngineOverloaded as exc:
                waits += 1
                if inflight:
                    self._retire_oldest(inflight, sink)   # free queue slots
                elif self.engine.is_running:
                    time.sleep(min(max(exc.retry_after, 1e-3), 0.05))
                elif self.engine.step(force=True) is None:
                    # empty queue yet still rejected despite the capacity
                    # pre-check — cannot make progress, surface it
                    raise

    # -- the streaming loop -----------------------------------------------
    def run(self, source: TiledSource, plan: StreamPlan, sink, *,
            resume: bool = True) -> StreamReport:
        """Stream every tile of ``plan`` from ``source`` into ``sink``.

        ``resume=True`` skips tiles the sink already holds (checkpoint
        semantics); ``resume=False`` discards prior artifacts first when
        the sink supports it.
        """
        if source.kind != plan.kind:
            raise ValueError(f"source kind {source.kind!r} does not match "
                             f"plan kind {plan.kind!r}")
        # volumes must match in every dim (slabs carry the in-plane shape
        # into the sink's artifact validation); images in the two spatial
        # dims (the channel count is the source's business)
        matched = (tuple(source.shape) == plan.scene_shape
                   if plan.kind == "volume"
                   else tuple(source.shape[:2]) == plan.scene_shape[:2])
        if not matched:
            raise ValueError(f"source shape {source.shape} does not match "
                             f"planned scene {plan.scene_shape}")
        if not resume and hasattr(sink, "discard"):
            sink.discard()
        done = sink.completed(plan) if resume and hasattr(sink, "completed") \
            else set()

        report = StreamReport(
            tiles_total=len(plan.tiles), tiles_run=0,
            tiles_skipped=len(done), seconds=0.0, peak_inflight=0,
            backpressure_waits=0, bytes_read=0,
            working_set_bytes=plan.working_set_bytes(),
            scene_bytes=plan.scene_bytes)
        inflight: deque = deque()
        sparse_before = self._sparsity_counters()
        tracer = TracedMemory() if self.track_memory else None
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.__enter__()
        try:
            tr = self.tracer
            for tile in plan.tiles:
                if tile.index in done:
                    if tr is not None:
                        tr.instant("tile.skip", "stream", tr.clock(),
                                   args={"index": tile.index})
                    continue
                r0 = tr.clock() if tr is not None else 0.0
                region = source.read_region(tile.origin, tile.size)
                if tr is not None:
                    tr.complete("tile.read", "stream", r0, tr.clock(),
                                args={"index": tile.index,
                                      "bytes": int(region.nbytes)})
                report.bytes_read += region.nbytes
                if self.engine is not None:
                    fut, to_class, waits = self._submit(region, plan.kind,
                                                        inflight, sink)
                    report.backpressure_waits += waits
                    if tr is not None:
                        tr.instant("tile.submit", "stream", tr.clock(),
                                   args={"index": tile.index, "waits": waits,
                                         "lane": self.lane})
                    inflight.append((tile, fut, to_class))
                    report.peak_inflight = max(report.peak_inflight,
                                               len(inflight))
                    while len(inflight) >= self.max_inflight:
                        self._retire_oldest(inflight, sink)
                else:
                    report.peak_inflight = max(report.peak_inflight, 1)
                    sink.write(tile, self._predict_tile(region, plan.kind))
                    if tr is not None:
                        tr.instant("tile.retire", "stream", tr.clock(),
                                   args={"index": tile.index})
                report.tiles_run += 1
                del region
                if tracer is not None:
                    tracer.update()
            while inflight:
                self._retire_oldest(inflight, sink)
        except EngineOverloaded:
            # A mid-run rejection (e.g. a slab that can never fit the
            # queue) must not orphan tiles the engine already accepted:
            # their futures hold queue slots and their results would be
            # lost to the sink, breaking resume. Retire everything
            # in flight — those tiles become durable checkpoints — and
            # only then surface the overload.
            while inflight:
                self._retire_oldest(inflight, sink)
            raise
        finally:
            if tracer is not None:
                tracer.__exit__(None, None, None)
                report.peak_traced_bytes = tracer.peak_bytes
        report.seconds = time.perf_counter() - t0
        sparse_after = self._sparsity_counters()
        if sparse_after is not None:
            before = sparse_before or {}
            report.sparsity = {k: v - before.get(k, 0)
                               for k, v in sparse_after.items()}
        if hasattr(sink, "finalize"):
            sink.finalize(plan, report.to_dict())
        return report

    def _predict_tile(self, region: np.ndarray, kind: str) -> np.ndarray:
        """Predictor mode: macro-tile -> TileNode -> drain -> reduce.

        The tile expands through the shared work-graph scheduler — per
        slice for a ``(d, Z, Z)`` slab, a single child for an image tile
        — so the streamed path rides the exact bucketing, plan cache and
        stitch every other front-end uses. A streamed tile is read once
        and never recurs, so its children get fresh keys that match no
        cache entry: the pipeline never hashes their pixels.
        """
        sched = self.predictor.scheduler
        n = region.shape[0] if kind == "volume" else 1
        node = sched.tile_node(region, kind,
                               keys=[object() for _ in range(n)])
        sched.drain(node.children)
        return sched.reduce_tile(node)
