"""Bounded-memory streaming loop over the existing inference stack.

:class:`StreamingRunner` walks a :class:`~repro.stream.planner.StreamPlan`
and keeps at most ``max_inflight`` macro-tiles resident at any instant: a
tile is read from the source, driven through the serving stack, reduced to
its class map, handed to the sink, and dropped — peak memory is set by the
tile size and ``max_inflight``, never by the scene.

The runner streams through a :class:`~repro.serve.predictor.Predictor`
with read-ahead: a worker thread reads tile i+1 and runs its APF
preprocessing
(:meth:`~repro.serve.predictor.Predictor.tile_sequences`) while the
calling thread takes tile i through node building, the predictor's
drain, the tile reduce (class labels painted per token in the sink's
``dtype``, no probability map) and the sink, in plan order. NumPy, SciPy and file writes release
the GIL, so the halves overlap on two cores. Node building stays on the
calling thread, and streamed class maps are **bit-identical** to the
non-streamed per-tile reference at every ``max_inflight``; 1 runs the
same loop with no read-ahead. Each tile is read once, so it is never
content-hashed for the pipeline cache. To stream a slide through a
shared :class:`~repro.serve.engine.InferenceEngine` instead, submit its
tiles directly (``engine.submit(tile, lane="bulk")``).

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Optional

from ..perf.memory import TracedMemory
# unused here: the repository benchmark (perfbench/wsi_stream.py) times
# ``stream.class_map`` by wrapping this module attribute
from ..serve.predictor import class_map  # noqa: F401
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
    bytes_read: int
    working_set_bytes: int       #: planner's per-tile estimate
    scene_bytes: int             #: full-scene float64 cost (avoided)
    peak_traced_bytes: Optional[int] = None   #: measured (track_memory=True)
    #: Busy seconds per lane: the read-ahead worker's tile reads + APF
    #: preprocessing, and the calling thread's node build, drain, reduce
    #: and sink write (waits excluded); the slower lane sets the tile rate.
    worker_busy_s: float = 0.0
    caller_busy_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


class StreamingRunner:
    """Stream a plan through a Predictor, reading ahead on a worker thread.

    Parameters
    ----------
    predictor:
        The :class:`~repro.serve.predictor.Predictor` that preprocesses,
        runs and reduces every tile.
    max_inflight:
        Macro-tiles resident at once: the tile being drained plus
        ``max_inflight - 1`` read and preprocessed ahead on the worker
        thread (1: no read-ahead).
    track_memory:
        Measure the run's peak traced allocation
        (:class:`~repro.perf.memory.TracedMemory`) into the report.
    tracer:
        Optional :class:`~repro.obs.Tracer`; the run emits ``tile.read``
        spans on the worker's ``read-ahead`` tid and ``tile.retire`` /
        ``tile.skip`` instants on the ``stream`` track. Defaults to the
        predictor's tracer so one shared timeline covers both layers.
    """

    def __init__(self, predictor, *, max_inflight: int = 2,
                 track_memory: bool = False, tracer=None):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.predictor = predictor
        self.max_inflight = max_inflight
        self.track_memory = track_memory
        if tracer is None:
            tracer = predictor.tracer
        self.tracer = tracer if (tracer is not None and tracer.enabled) \
            else None

    def _retire_oldest(self, inflight: deque, sink, kind: str,
                       report: StreamReport) -> None:
        """Take the oldest in-flight tile to the sink (plan order).

        Node building, drain and reduce run here, on the calling thread,
        in plan order; the queued future is the worker's read + APF half
        (re-raising its error, if any).
        """
        tile, fut = inflight.popleft()
        seqs = fut.result()
        t0 = time.perf_counter()
        pred = self.predictor
        node = TileNode(kind=kind, children=pred.sequence_nodes(seqs))
        sink.write(tile, pred.reduce_tile(node, getattr(sink, "dtype", None)))
        report.caller_busy_s += time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.instant("tile.retire", "stream", self.tracer.clock(),
                                args={"index": tile.index})

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
            bytes_read=0, working_set_bytes=plan.working_set_bytes(),
            scene_bytes=plan.scene_bytes)
        inflight: deque = deque()
        tracer = TracedMemory() if self.track_memory else None
        # the worker that reads and preprocesses ahead
        pool = ThreadPoolExecutor(1, thread_name_prefix="stream-read")
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
                inflight.append((tile, pool.submit(self._prepare, source,
                                                   tile, kind, report)))
                report.peak_inflight = max(report.peak_inflight,
                                           len(inflight))
                while len(inflight) >= self.max_inflight:
                    self._retire_oldest(inflight, sink, kind, report)
                report.tiles_run += 1
                if tracer is not None:
                    tracer.update()
            while inflight:
                self._retire_oldest(inflight, sink, kind, report)
        finally:
            # no thread outlives run(): drop queued read-aheads, wait out
            # the one running
            pool.shutdown(wait=True, cancel_futures=True)
            if tracer is not None:
                tracer.__exit__(None, None, None)
                report.peak_traced_bytes = tracer.peak_bytes
        report.seconds = time.perf_counter() - t0
        if hasattr(sink, "finalize"):
            sink.finalize(plan, report.to_dict())
        return report

    def _prepare(self, source: TiledSource, tile, kind: str,
                 report: StreamReport) -> list:
        """On the worker: read a tile (``tile.read`` span), preprocess it.

        Returns only the natural APF sequences, so the raw region is
        dropped when preprocessing ends, not held while the tile waits
        for the drain. A streamed tile is read once and never recurs, so
        its children get fresh keys that match no cache entry: the
        pipeline never hashes their pixels. Only this thread adds to
        ``bytes_read`` and ``worker_busy_s`` while the run is live.
        """
        t0 = time.perf_counter()
        tr = self.tracer
        r0 = tr.clock() if tr is not None else 0.0
        region = source.read_region(tile.origin, tile.size)
        if tr is not None:
            tr.complete("tile.read", "stream", r0, tr.clock(),
                        tid="read-ahead",
                        args={"index": tile.index,
                              "bytes": int(region.nbytes)})
        report.bytes_read += region.nbytes
        n = region.shape[0] if kind == "volume" else 1
        seqs = self.predictor.tile_sequences(
            region, kind, keys=[object() for _ in range(n)])
        report.worker_busy_s += time.perf_counter() - t0
        return seqs
