"""Bounded-memory streaming loop over the existing inference stack.

:class:`StreamingRunner` walks a :class:`~repro.stream.planner.StreamPlan`
and keeps at most ``max_inflight`` macro-tiles resident at any instant: a
tile is read from the source, driven through the serving stack, reduced to
its class map, handed to the sink, and dropped — peak memory is set by the
tile size and ``max_inflight``, never by the scene.

Two drive modes over unchanged numerics, one bounded loop:

* **Predictor mode** (``StreamingRunner(predictor)``) — read-ahead: a
  worker thread reads tile i+1 and runs its APF preprocessing
  (:meth:`~repro.serve.scheduler.WorkGraphScheduler.tile_sequences`)
  while the calling thread takes tile i through node building, the shared
  :class:`~repro.serve.scheduler.WorkGraphScheduler` drain, the tile
  reduce and the sink, in plan order. NumPy, SciPy and file writes
  release the GIL, so the halves overlap on two cores. Node building,
  and with it any sparsity decision (which reads the table earlier
  tiles seeded), stays on the calling thread, so streamed class maps are
  **bit-identical** to the non-streamed per-tile reference at every
  ``max_inflight``; 1 runs the same loop with no read-ahead. Each tile is
  read once, so it is never content-hashed for the pipeline cache.
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
  Reads and submits stay on the calling thread: a backpressured submit
  retires tiles into the sink, which must happen in plan order.

Checkpoint/resume is delegated to the sink: tiles already durable are
skipped (``resume=True``), so a killed run continues where it stopped and
— because per-tile outputs are pure functions of the tile — produces
byte-identical artifacts to an uninterrupted run. An error from a read
or a preprocess surfaces from :meth:`StreamingRunner.run` when its tile
comes up in plan order, after every earlier tile is durable, and the
worker thread is joined before ``run`` returns or raises.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from ..perf.memory import TracedMemory
from ..serve.predictor import class_map
from ..serve.queueing import EngineOverloaded
from ..serve.scheduler import TileNode
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
    """Stream a plan through a Predictor (read-ahead) or InferenceEngine.

    Parameters
    ----------
    predictor:
        Bit-exact read-ahead mode; mutually exclusive with ``engine``.
    engine:
        Overlapped mode with backpressure-aware submission.
    max_inflight:
        Macro-tiles resident at once. Predictor mode: the tile being
        drained plus ``max_inflight - 1`` read and preprocessed ahead on
        the worker thread (1: no read-ahead). Engine mode: tiles submitted
        before the oldest is awaited.
    lane:
        Engine lane for streamed tiles. Defaults to ``"bulk"`` so a
        background slide job cannot starve interactive traffic.
    track_memory:
        Measure the run's peak traced allocation
        (:class:`~repro.perf.memory.TracedMemory`) into the report.
    tracer:
        Optional :class:`~repro.obs.Tracer`; the run emits ``tile.read``
        spans (predictor mode: on the worker's ``read-ahead`` tid) and
        ``tile.submit`` / ``tile.retire`` / ``tile.skip`` instants on the
        ``stream`` track. Defaults to the engine's (or predictor's) tracer
        so one shared timeline covers both layers.
    """

    def __init__(self, predictor=None, *, engine=None, max_inflight: int = 2,
                 lane: str = "bulk", track_memory: bool = False, tracer=None):
        if (predictor is None) == (engine is None):
            raise ValueError("pass exactly one of predictor= or engine=")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.predictor = predictor
        self.engine = engine
        self.max_inflight = max_inflight
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

    def _retire_oldest(self, inflight: deque, sink, kind: str) -> None:
        """Take the oldest in-flight tile to the sink (plan order)."""
        tile, fut = inflight.popleft()
        if self.engine is not None:
            value = self._resolve(fut)
            if kind == "image":
                value = class_map(value)
        else:
            # predictor mode: node building, drain and reduce run here, on
            # the calling thread, in plan order; ``fut`` is the worker's
            # read + APF half (re-raising its error, if any)
            sched = self.predictor.scheduler
            node = TileNode(kind=kind,
                            children=sched.sequence_nodes(fut.result()))
            sched.drain(node.children)
            value = sched.reduce_tile(node)
        sink.write(tile, value)
        if self.tracer is not None:
            self.tracer.instant("tile.retire", "stream", self.tracer.clock(),
                                args={"index": tile.index})

    def _submit(self, region: np.ndarray, kind: str, inflight: deque,
                sink) -> tuple:
        """Backpressure-aware engine submit → ``(future, waits)``."""
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
                    return self.engine.submit_volume(region,
                                                     lane=self.lane), waits
                return self.engine.submit(region, lane=self.lane), waits
            except EngineOverloaded as exc:
                waits += 1
                if inflight:
                    self._retire_oldest(inflight, sink, kind)  # free slots
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
        # predictor mode: the worker that reads and preprocesses ahead
        pool = ThreadPoolExecutor(1, thread_name_prefix="stream-read") \
            if self.engine is None else None
        kind = plan.kind
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
                if pool is not None:
                    fut = pool.submit(self._prepare, source, tile, kind,
                                      report)
                else:
                    region = self._read(source, tile, report, "main")
                    fut, waits = self._submit(region, kind, inflight, sink)
                    del region
                    report.backpressure_waits += waits
                    if tr is not None:
                        tr.instant("tile.submit", "stream", tr.clock(),
                                   args={"index": tile.index, "waits": waits,
                                         "lane": self.lane})
                inflight.append((tile, fut))
                report.peak_inflight = max(report.peak_inflight,
                                           len(inflight))
                while len(inflight) >= self.max_inflight:
                    self._retire_oldest(inflight, sink, kind)
                report.tiles_run += 1
                if tracer is not None:
                    tracer.update()
            while inflight:
                self._retire_oldest(inflight, sink, kind)
        except EngineOverloaded:
            # A mid-run rejection (e.g. a slab that can never fit the
            # queue) must not orphan tiles the engine already accepted:
            # their futures hold queue slots and their results would be
            # lost to the sink, breaking resume. Retire everything
            # in flight — those tiles become durable checkpoints — and
            # only then surface the overload.
            while inflight:
                self._retire_oldest(inflight, sink, kind)
            raise
        finally:
            if pool is not None:
                # no thread outlives run(): drop queued read-aheads, wait
                # out the one running
                pool.shutdown(wait=True, cancel_futures=True)
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

    def _read(self, source: TiledSource, tile, report: StreamReport,
              tid: str) -> np.ndarray:
        """Read one tile's region, traced as a ``tile.read`` span."""
        tr = self.tracer
        r0 = tr.clock() if tr is not None else 0.0
        region = source.read_region(tile.origin, tile.size)
        if tr is not None:
            tr.complete("tile.read", "stream", r0, tr.clock(), tid=tid,
                        args={"index": tile.index,
                              "bytes": int(region.nbytes)})
        report.bytes_read += region.nbytes
        return region

    def _prepare(self, source: TiledSource, tile, kind: str,
                 report: StreamReport) -> list:
        """Predictor mode, on the worker: read a tile and preprocess it.

        Returns only the natural APF sequences, so the raw region is
        dropped when preprocessing ends, not held while the tile waits
        for the drain. A streamed tile is read once and never recurs, so
        its children get fresh keys that match no cache entry: the
        pipeline never hashes their pixels. Only this thread adds to
        ``bytes_read`` while the run is live.
        """
        region = self._read(source, tile, report, "read-ahead")
        n = region.shape[0] if kind == "volume" else 1
        return self.predictor.scheduler.tile_sequences(
            region, kind, keys=[object() for _ in range(n)])
