"""Async inference engine — continuous batching over the compiled Predictor.

The :class:`~repro.serve.predictor.Predictor` is synchronous: callers hand
it a fully-formed batch and block. :class:`InferenceEngine` turns it into a
shared service: clients ``submit(image)`` and get a
:class:`~concurrent.futures.Future`; a continuous batcher coalesces the
queue into length-bucketed micro-batches (flushing on ``max_batch`` *or* a
latency deadline, so light load never waits for a full batch), executes
them through the Predictor's per-signature plan cache, and resolves the
futures.

Bit-identity contract
---------------------
Batches always contain a single length bucket and dispatch FIFO within a
lane; every flush executes through
:meth:`~repro.serve.predictor.Predictor.predict_sequences`, whose
micro-batch formation (chunks of exactly ``predictor.max_batch``) is the
same single implementation ``Predictor.predict_batch`` drains.
Submitting a request set and draining the queue therefore yields
**bit-identical** arrays to calling ``predict_batch`` on the same set
(the property suite pins this across seeds and shapes), and both
front-ends run the same packs — one shared plan cache, never a split
one. Under streaming arrivals the chunk *composition* depends on timing.
A sequence's bits then depend only on whether its BLAS rounds a row
differently at another offset in the same (M = bucket length) matmul;
OpenBLAS does not, so on it results are bitwise equal across
compositions, and the tested bound is 1e-6 in probability with equal
class maps. Packing keeps M at the bucket length on purpose: one matmul
over the whole pack would cross OpenBLAS's small-matrix path, which
rounds a narrow output (the 256→16 head of the ``tile_api`` model)
differently at M = 64 than at M ≥ 96: up to 9.5e-7 in a logit over 512
tiles in packs of 8, against exactly 0 as packed.
``stats()["predictor"]["padded_tokens"]`` counts the tokens the model
executed, filler included. :meth:`InferenceEngine.warmup` primes packs
of 1 and ``max_batch`` rows per bucket; a flush that packs into fewer
rows tops up with filler rows to the primed shape instead of compiling.

Beyond batching, the engine layers on what a front-end needs:

* **priority lanes** with weighted fairness (``interactive`` vs ``bulk``;
  see :class:`~repro.serve.queueing.FairQueue`), and ``submit_volume``
  which decomposes a (S, Z, Z) volume into per-slice bulk jobs and
  reassembles the stacked class map (the paper's BTCV slice protocol);
* **admission control**: a bounded queue; overflow raises
  :class:`~repro.serve.queueing.EngineOverloaded` with a ``retry_after``
  hint derived from the observed service rate;
* a **digest-keyed LRU result cache** (identical payloads — e.g. repeated
  or padded CT slices — are served without inference) plus **in-flight
  request collapsing** (concurrent duplicates share one execution);
* a **metrics registry** (:mod:`.metrics`) exported via :meth:`stats`.

Request lifecycle
-----------------
Every submitted image becomes a :class:`~repro.serve.queueing.Request`.
A fresh one reserves its digest in the in-flight table and is queued; a
duplicate of an in-flight request becomes one of its ``twins`` and is
never queued; a cached payload is answered at once. A request ends in one
of four outcomes, each closing its trace interval: ``done`` (its batch
ran), ``cache_hit``, ``failed`` (its batch raised, the batcher died, its
admission was refused, or a killed replica's backlog found no survivor)
or ``cancelled``. All of them go through one method, ``_finish``: it
drops the reservation, resolves the request and every twin riding on it,
records latency for results and closes the intervals. A request evicted
from a killed replica does not end: it moves, twins and all, to the
replica that adopts it.

Drive modes: :meth:`start` spawns a daemon batcher thread against the real
clock; alternatively a *simulated* clock plus a
:class:`~repro.serve.loadgen.ServiceModel` lets :mod:`.loadgen` drive
:meth:`step` deterministically for load tests (no threads, virtual time).
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence

import numpy as np

from ..cache import LRU
# The engine keys its result cache with the same content digest the
# pipeline uses for its sequence cache, so one hash serves both layers
# (and the two caches can never disagree about what "the same image" is).
from ..pipeline.engine import content_key as _digest
from .metrics import MetricsRegistry
from .predictor import class_map
from .queueing import DEFAULT_LANES, EngineOverloaded, FairQueue, Request

__all__ = ["EngineConfig", "InferenceEngine", "BatchReport"]

_DEAD_BATCHER = ("engine batcher thread is dead; stop() and start() the "
                 "engine again")


def _trace_digest(key) -> Optional[str]:
    """Short printable form of a content key for trace args."""
    if key is None:
        return None
    if isinstance(key, tuple) and len(key) == 3:
        return str(key[2])[:12]
    return str(key)[:12]


@dataclass
class EngineConfig:
    """Tuning knobs of the engine (see README "Serving architecture").

    ``max_batch=None`` inherits ``predictor.max_batch`` — required for the
    bit-identity guarantee against ``predict_batch``; set it lower only to
    trade throughput for latency knowingly.
    """

    max_batch: Optional[int] = None
    #: Longest a request may wait for co-batching before a partial flush (s).
    flush_deadline: float = 0.02
    #: Admission-control bound on waiting requests.
    max_queue: int = 64
    #: Lane name -> fair-share weight.
    lanes: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_LANES))
    #: LRU capacity of the digest-keyed result cache (0 disables).
    result_cache_items: int = 256
    #: Padded lengths to pre-compile at :meth:`InferenceEngine.start`
    #: (None -> first two bucket multiples).
    warmup_lengths: Optional[Sequence[int]] = None


@dataclass
class BatchReport:
    """What one batcher flush did (returned by :meth:`InferenceEngine.step`)."""

    size: int
    length: int
    lanes: Dict[str, int]
    started: float
    cost: float          #: virtual service seconds (or measured wall seconds)
    real_seconds: float


class InferenceEngine:
    """Queue-driven, continuously-batched front-end over a Predictor.

    Parameters
    ----------
    predictor:
        The micro-batching :class:`~repro.serve.predictor.Predictor` the
        engine owns (the engine is its only driver once started).
    config:
        :class:`EngineConfig`; individual fields may also be passed as
        keyword overrides.
    clock:
        Time source. Defaults to ``time.monotonic``; pass a
        :class:`~repro.serve.loadgen.SimClock`'s ``now`` for deterministic
        simulated-time operation.
    service_model:
        Optional :class:`~repro.serve.loadgen.ServiceModel`. When set,
        batch completions are stamped ``started + model.cost(B, L)``
        virtual seconds (deterministic); when None, real elapsed time.

    Examples
    --------
    >>> engine = InferenceEngine(Predictor(model, pipe), flush_deadline=0.01)
    >>> engine.start()                        # warms plans, spawns batcher
    >>> fut = engine.submit(image)            # -> Future
    >>> probs = fut.result(timeout=5)
    >>> engine.stop()
    """

    def __init__(self, predictor, config: Optional[EngineConfig] = None,
                 *, clock: Callable[[], float] = time.monotonic,
                 service_model=None, tracer=None, **overrides):
        # copy: the engine resolves fields in place (max_batch inheritance,
        # overrides), which must not leak into a caller-shared config
        cfg = replace(config) if config is not None else EngineConfig()
        cfg.lanes = dict(cfg.lanes)
        for name, value in overrides.items():
            if not hasattr(cfg, name):
                raise TypeError(f"unknown engine option {name!r}")
            setattr(cfg, name, value)
        if cfg.max_batch is None:
            cfg.max_batch = predictor.max_batch
        if cfg.max_batch < 1 or cfg.flush_deadline < 0:
            raise ValueError("max_batch >= 1 and flush_deadline >= 0 required")
        # The engine is a *pump* over the predictor: admission/lanes/caching
        # decide when a flush happens, the predictor decides how it
        # buckets, batches, and stitches.
        self.predictor = predictor
        self.config = cfg
        self.clock = clock
        self.service_model = service_model
        self.metrics = MetricsRegistry()
        self._queue = FairQueue(cfg.lanes, max_depth=cfg.max_queue)
        self._cond = threading.Condition()
        self._results = (LRU(cfg.result_cache_items)
                         if cfg.result_cache_items > 0 else None)
        self._inflight: Dict[Hashable, Request] = {}
        self._ewma_batch_s: Optional[float] = None
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self._dead = False     # set by a dying batcher, under the lock
        # Tracing (repro.obs): normalized to None when absent or disabled,
        # so every hot-path site is one attribute test. The tracer is
        # pushed down to the predictor so it emits its sub-spans on this
        # engine's track.
        tr = tracer if tracer is not None else predictor.tracer
        self.tracer = tr if (tr is not None and tr.enabled) else None
        self.trace_label = predictor.trace_label
        if self.tracer is not None:
            self.set_trace_label(self.trace_label)

    def set_trace_label(self, label: str) -> None:
        """Name this engine's trace track (fleets use ``replica<rank>``)."""
        self.trace_label = label
        self.predictor.tracer = self.tracer
        self.predictor.trace_label = label

    # -- submission --------------------------------------------------------
    def _cache_put(self, digest: Hashable, value: np.ndarray) -> None:
        if self._results is None or digest is None:
            return
        # Cache a private copy (the LRU freezes it): the caller's array
        # stays writable (predict_batch parity), while the cached one —
        # shared by every future cache hit — cannot be poisoned in place.
        evicted = self._results.evictions
        self._results.put(digest, value.copy())
        if self._results.evictions > evicted:
            self.metrics.inc("result_cache_evictions",
                             self._results.evictions - evicted)

    def retry_after_hint(self) -> float:
        """Seconds until capacity is likely free (admission-reject hint)."""
        per_batch = self._ewma_batch_s or self.config.flush_deadline
        batches_ahead = math.ceil((len(self._queue) + 1) / self.config.max_batch)
        return batches_ahead * per_batch

    def _open(self, lane: str, now: float, digest: Optional[Hashable],
              kind: str) -> Request:
        """A new request, its trace interval opened (``kind`` names how it
        is served: ``fresh``, ``collapsed`` or ``cache_hit``)."""
        req = Request(seq=None, bucket=-1, lane=lane, submit_t=now,
                      key=digest)
        if self.tracer is not None:
            req.rid = self.tracer.next_id()
            self.tracer.async_begin(
                "request", self.trace_label, now, req.rid, tid=lane,
                args={"rid": req.rid, "lane": lane,
                      "digest": _trace_digest(digest), "kind": kind})
        return req

    def _finish(self, req: Request, at: float, outcome: str,
                value: Optional[np.ndarray] = None,
                exc: Optional[BaseException] = None) -> int:
        """End ``req`` and its twins at ``at``: the one place a request ends.

        Drops the in-flight reservation and takes the twins in one locked
        section, so no twin can chain on after. Then resolves every future
        with ``value`` (twins get private copies: they belong to independent
        clients who may post-process in place), or fails it with ``exc``,
        or cancels it when neither is given. Only then does the
        bookkeeping run — latencies, and closing every trace interval with
        ``outcome`` — so a raise there strands no future. Returns the
        number of requests ended.
        """
        with self._cond:
            if req.key is not None and self._inflight.get(req.key) is req:
                del self._inflight[req.key]
            ended, req.twins = [req] + req.twins, []
        for r in ended:
            if value is not None:
                r.future.set_result(value if r is req else value.copy())
            elif exc is not None:
                r.future.set_exception(exc)
            else:
                r.future.cancel()
        for r in ended:
            if value is not None:
                # on the real clock a twin can chain on after its batch
                # stamped ``at``: it waited for nothing, not negative time
                # (which the histogram rejects)
                latency = max(at - r.submit_t, 0.0)
                self.metrics.observe("latency", latency)
                self.metrics.observe(f"latency.{r.lane}", latency)
            if self.tracer is not None and r.rid:
                self.tracer.async_end("request", self.trace_label, at, r.rid,
                                      tid=r.lane, args={"outcome": outcome})
        return len(ended)

    def _admit(self, images: Sequence[np.ndarray], lane: str) -> List[Future]:
        """Cache-check, preprocess, and atomically enqueue a group of images.

        Fresh requests are registered in the in-flight table as
        *reservations* before preprocessing starts, so a concurrent
        duplicate submission (or a repeated payload later in this very
        group) collapses onto them as a twin instead of racing to a second
        execution. APF preprocessing itself runs on the *caller's* thread
        (through the pipeline's lock-protected LRU), keeping the batcher
        thread on the model hot path only. Admission is all-or-nothing: on
        overflow every reservation and twin of this call is rolled back
        (see :meth:`_rollback`) and the call raises
        :class:`EngineOverloaded`; a batcher that died meanwhile makes it
        roll back the same way and raise ``RuntimeError``.
        """
        if lane not in self.config.lanes:    # validate even on cache hits
            raise ValueError(f"unknown lane {lane!r}; "
                             f"configured: {sorted(self.config.lanes)}")
        if self._dead:
            raise RuntimeError(_DEAD_BATCHER)
        now = self.clock()
        futures: List[Optional[Future]] = []
        fresh: List[Request] = []
        fresh_images: List[np.ndarray] = []
        hits: Dict[int, np.ndarray] = {}
        chained: List[tuple] = []    # (primary, twin) made by THIS call
        cache = self._results
        # hash outside the lock: digests depend only on the payloads, and
        # holding the condition while hashing S slices would stall the
        # batcher thread for the whole volume
        digests = [_digest(image) if cache is not None else None
                   for image in images]
        with self._cond:
            for i, image in enumerate(images):
                digest = digests[i]
                cached = cache.get(digest) if digest is not None else None
                if cached is not None:
                    hits[i] = cached
                    futures.append(None)    # opened once admission holds
                    continue
                primary = (self._inflight.get(digest)
                           if digest is not None else None)
                if primary is not None:            # collapse onto in-flight twin
                    twin = self._open(lane, now, digest, "collapsed")
                    primary.twins.append(twin)
                    chained.append((primary, twin))
                    futures.append(twin.future)
                    continue
                req = self._open(lane, now, digest, "fresh")
                if digest is not None:
                    self._inflight[digest] = req   # reservation for twins
                fresh.append(req)
                fresh_images.append(image)
                futures.append(req.future)
        # preprocessing outside the engine lock (pipeline has its own), in
        # ONE batched call so the pipeline's batch kernels apply;
        # any failure must tear down the reservations, or later identical
        # submissions would chain onto a dead primary and hang forever
        try:
            if fresh:
                keys = [req.key if req.key is not None else _digest(image)
                        for req, image in zip(fresh, fresh_images)]
                seqs = self.predictor.pipeline.process(fresh_images, keys)
                for req, seq in zip(fresh, seqs):
                    req.seq = seq
                    req.bucket = self.predictor.bucket_length(len(seq))
        except BaseException as exc:
            with self._cond:
                self._rollback(fresh, chained, exc)
            raise
        with self._cond:
            try:
                if self._dead:    # the batcher died while we preprocessed
                    raise RuntimeError(_DEAD_BATCHER)
                self._queue.push_all(fresh, retry_after=self.retry_after_hint())
            except RuntimeError as exc:    # EngineOverloaded is one too
                ended = self._rollback(fresh, chained, exc)
                if isinstance(exc, EngineOverloaded):
                    self.metrics.inc("rejected", ended)
                    if self.tracer is not None:
                        self.tracer.instant(
                            "req.reject", self.trace_label, now, tid=lane,
                            args={"count": ended, "lane": lane})
                raise
            self.metrics.inc("submitted", len(images))
            self.metrics.inc("cache_hits", len(hits))
            self.metrics.inc("collapsed", len(chained))
            self.metrics.gauge("queue_depth").set(len(self._queue))
            self._cond.notify_all()
        for i, value in hits.items():
            req = self._open(lane, now, digests[i], "cache_hit")
            futures[i] = req.future
            # writable private copy, same contract as fresh results and
            # collapsed twins (the frozen original stays in the cache)
            self._finish(req, now, "cache_hit", value.copy())
        return futures

    def _rollback(self, fresh: List[Request], chained: Sequence[tuple],
                  exc: BaseException) -> int:
        """Fail a refused admission (caller holds the lock); returns the
        number of requests ended.

        Ends the call's fresh requests with every twin riding them, then
        the twins it chained onto primaries of earlier calls. Admission is
        all-or-nothing, so those must go too — otherwise a rejected volume
        leaves phantom twins on a foreign in-flight request, which later
        resolve into thin air (double-counted latency, wasted result
        copies, and an accounting drift that every retry of the same
        submission compounds).
        """
        at = self.clock()
        ended = sum(self._finish(req, at, "failed", exc=exc) for req in fresh)
        for primary, twin in chained:
            if twin in primary.twins:    # else it ended with a fresh primary
                primary.twins.remove(twin)
                ended += self._finish(twin, at, "failed", exc=exc)
        return ended

    def submit(self, image: np.ndarray, *, lane: str = "interactive") -> Future:
        """Enqueue one image/volume-slice; resolves to its probability map.

        Raises :class:`EngineOverloaded` (with ``.retry_after``) when the
        queue is at capacity.
        """
        return self._admit([np.asarray(image)], lane)[0]

    def submit_volume(self, volume: np.ndarray, *,
                      lane: str = "bulk") -> Future:
        """Decompose a (S, Z, Z) volume into per-slice jobs; reassemble.

        The returned future resolves to the stacked (S, Z, Z) int64 class
        map — the same post-processing as ``Predictor.predict_volume``
        (argmax over channels, 0.5 threshold for binary heads). Admission is
        atomic: either every slice is accepted or the whole volume is
        rejected with :class:`EngineOverloaded`.
        """
        v = np.asarray(volume)
        if v.ndim != 3 or v.shape[0] == 0:
            raise ValueError(f"expected a non-empty (slices, Z, Z) volume, "
                             f"got {v.shape}")
        slice_futs = self._admit([v[i] for i in range(v.shape[0])], lane)
        self.metrics.inc("volumes")
        agg: Future = Future()
        parts: List[Optional[np.ndarray]] = [None] * len(slice_futs)
        pending = [len(slice_futs)]
        lock = threading.Lock()

        def finish(i: int, fut: Future) -> None:
            try:
                parts[i] = class_map(fut.result())
            except BaseException as exc:   # propagate the first slice failure
                if not agg.done():
                    agg.set_exception(exc)
                return
            with lock:
                pending[0] -= 1
                done = pending[0] == 0
            if done and not agg.done():
                agg.set_result(np.stack(parts))

        for i, fut in enumerate(slice_futs):
            fut.add_done_callback(lambda f, i=i: finish(i, f))
        return agg

    # -- execution ---------------------------------------------------------
    def _fail(self, reqs: List[Request], exc: BaseException) -> None:
        """End ``reqs`` and their twins with ``exc``, counted as ``failed``:
        a failed batch, a dying batcher, or a backlog no survivor adopted."""
        at = self.clock()
        self.metrics.inc("failed", sum(self._finish(r, at, "failed", exc=exc)
                                       for r in reqs))

    def _run(self, batch: List[Request], started: float) -> BatchReport:
        """Execute ``batch`` and end its requests.

        Whatever raises — the predictor, the result cache, the tracer or
        the bookkeeping of an ending request — fails every request of the
        batch not yet ended, twins included, before it propagates: no
        future is stranded and no reservation is left behind.
        """
        ended = 0
        try:
            t0 = time.perf_counter()
            # The exact predict_batch grouping and fit/pack/forward/stitch,
            # one implementation.
            maps = self.predictor.predict_sequences([r.seq for r in batch])
            real_s = time.perf_counter() - t0
            length = batch[0].bucket
            cost = (self.service_model.cost(len(batch), length)
                    if self.service_model is not None else real_s)
            done_at = started + cost if self.service_model is not None \
                else self.clock()
            with self._cond:
                for r, m in zip(batch, maps):
                    self._cache_put(r.key, m)
                ewma = self._ewma_batch_s
                self._ewma_batch_s = (cost if ewma is None
                                      else 0.8 * ewma + 0.2 * cost)
            if self.tracer is not None:
                self.tracer.complete(
                    "batch", self.trace_label, started, done_at, tid="engine",
                    args={"size": len(batch), "length": length,
                          "signature": [len(batch), length],
                          "rids": [r.rid for r in batch]})
            lanes: Dict[str, int] = {}
            for r, m in zip(batch, maps):
                ended += 1    # _finish resolves futures before it can raise
                self._finish(r, done_at, "done", m)
                # Queue wait = dispatch minus submission: the scheduling-
                # policy share of latency (service time excluded), per lane
                # — the number that shows viewport-priority beating FIFO.
                self.metrics.observe("queue_wait", started - r.submit_t)
                self.metrics.observe(f"queue_wait.{r.lane}",
                                     started - r.submit_t)
                lanes[r.lane] = lanes.get(r.lane, 0) + 1
            self.metrics.inc("completed", len(batch))
            self.metrics.inc("batches")
            self.metrics.observe("batch_size", len(batch))
            self.metrics.observe("service_seconds", cost)
        except BaseException as exc:
            self._fail(batch[ended:], exc)
            raise
        return BatchReport(size=len(batch), length=length, lanes=lanes,
                           started=started, cost=cost, real_seconds=real_s)

    def step(self, now: Optional[float] = None,
             force: bool = False) -> Optional[BatchReport]:
        """Flush and run at most one due batch at time ``now``.

        The single-threaded drive mode: the load harness (or any event
        loop) calls this instead of :meth:`start`. ``force=True`` flushes
        regardless of the deadline (drain semantics).
        """
        if now is None:
            now = self.clock()
        with self._cond:
            batch = self._queue.collect(now, self.config.max_batch,
                                        self.config.flush_deadline, force)
            self.metrics.gauge("queue_depth").set(len(self._queue))
        if batch is None:
            return None
        return self._run(batch, now)

    def drain(self) -> List[BatchReport]:
        """Synchronously run everything queued (ignoring deadlines)."""
        reports = []
        while True:
            rep = self.step(force=True)
            if rep is None:
                return reports
            reports.append(rep)

    def next_flush_at(self, now: float) -> Optional[float]:
        """Earliest absolute time a batch becomes due (None if queue empty)."""
        with self._cond:
            return self._queue.next_flush_at(now, self.config.max_batch,
                                             self.config.flush_deadline)

    # -- cancellation ------------------------------------------------------
    def cancel(self, future: Future) -> bool:
        """Retire a still-waiting submission; returns True when cancelled.

        The stale-viewport path for interactive front-ends (the pyramid
        tile service): a viewer that panned away no longer needs tiles it
        requested, and cancelling them frees queue capacity and server
        time for the tiles it needs *now*. Only waiting work is
        cancellable — a request already dispatched to the model, already
        resolved, or one serving as the **primary of collapsed
        duplicates** (other clients ride on its execution) is left alone
        and the call returns False.

        On success the queue slot is released, the in-flight reservation
        is torn down (a later identical submission executes fresh — the
        result cache is never populated from a cancelled request, so no
        cache can be poisoned), and ``future`` is cancelled
        (``Future.cancel``; waiters see :class:`~concurrent.futures.CancelledError`).
        """
        with self._cond:
            req = self._queue.find(future)
            # refuse while twins ride on this primary: cancelling would
            # orphan their futures (they resolve from the primary's run)
            if req is None or req.twins:
                return False
            self._queue.remove(future)
            self.metrics.inc("cancelled")
            self.metrics.gauge("queue_depth").set(len(self._queue))
            now = self.clock()
            if self.tracer is not None and req.rid:
                self.tracer.instant("req.cancel", self.trace_label, now,
                                    tid=req.lane, args={"rid": req.rid})
            # inside the dequeueing section: no twin may chain on meanwhile
            self._finish(req, now, "cancelled")
        return True

    # -- fleet membership --------------------------------------------------
    def evict_pending(self) -> List[Request]:
        """Remove every waiting (not yet dispatched) request for re-routing.

        Returns the requests, each with its collapsed ``twins`` attached.
        Reservations in the in-flight table are torn down; the futures stay
        *unresolved* — the fleet router hands the requests to a surviving
        replica's :meth:`adopt`, so clients of a killed replica never
        observe the failure (or to this engine's ``_fail`` when no survivor
        can take one). Batches already dispatched are unaffected
        (fail-stop between batches).
        """
        with self._cond:
            reqs = self._queue.pop_all()
            for r in reqs:
                if r.key is not None and self._inflight.get(r.key) is r:
                    del self._inflight[r.key]
            self.metrics.inc("evicted", len(reqs))
            self.metrics.gauge("queue_depth").set(len(self._queue))
        if self.tracer is not None:
            now = self.clock()
            for r in reqs:
                if r.rid:
                    self.tracer.instant("req.evict", self.trace_label, now,
                                        tid=r.lane, args={"rid": r.rid})
        return reqs

    def adopt(self, requests: Sequence[Request]) -> None:
        """Enqueue already-preprocessed requests evicted from a peer replica.

        Admission is atomic (all or :class:`EngineOverloaded`, like
        :meth:`submit`); the foreign requests keep their original futures,
        ``submit_t`` and twins — latency accounting therefore *includes*
        the disruption of the migration. In-flight reservations are
        re-registered here unless this engine already has a primary for the
        same digest (the existing one wins; both executions resolve their
        own futures and twins and agree on the cached value). A replica
        whose batcher died refuses with ``RuntimeError``, like
        :meth:`submit`: nothing here would ever run the requests.
        """
        if not requests:
            return
        with self._cond:
            if self._dead:
                raise RuntimeError(_DEAD_BATCHER)
            self._queue.push_all(list(requests),
                                 retry_after=self.retry_after_hint())
            for r in requests:
                if r.key is not None:
                    self._inflight.setdefault(r.key, r)
            self.metrics.inc("adopted", len(requests))
            self.metrics.gauge("queue_depth").set(len(self._queue))
            self._cond.notify_all()
        if self.tracer is not None:
            now = self.clock()
            for r in requests:
                if r.rid:
                    self.tracer.instant("req.adopt", self.trace_label, now,
                                        tid=r.lane, args={"rid": r.rid})

    @property
    def pending(self) -> int:
        """Waiting (undispatched) request count — the drain/health probe."""
        with self._cond:
            return len(self._queue)

    # -- threaded mode -----------------------------------------------------
    def warmup(self) -> dict:
        """Pre-compile plans for the configured bucket ladder (see
        :meth:`Predictor.warmup`); returns the compile report."""
        lengths = self.config.warmup_lengths
        if lengths is None:
            b = self.predictor.bucket
            lengths = [b, min(2 * b, self.predictor.max_len)]
        return self.predictor.warmup(lengths=lengths,
                                     batch_sizes=(1, self.config.max_batch))

    def start(self, warmup: bool = True) -> "InferenceEngine":
        """Warm the plan cache and spawn the daemon batcher thread."""
        if self._thread is not None:
            raise RuntimeError("engine already started")
        if warmup:
            self.warmup()
        self._running = True
        self._dead = False
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-engine-batcher",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the batcher, draining queued requests first."""
        if self._thread is None:
            return
        with self._cond:
            self._running = False
            self._cond.notify_all()
        self._thread.join()
        self._thread = None
        # a submit racing stop() can slip its request in after the batcher
        # loop's final empty-queue check; resolve any such straggler now so
        # no accepted future is ever orphaned
        self.drain()

    def _loop(self) -> None:
        mb, deadline = self.config.max_batch, self.config.flush_deadline
        try:
            while True:
                with self._cond:
                    if not self._running and len(self._queue) == 0:
                        return
                    now = self.clock()
                    due_at = self._queue.next_flush_at(now, mb, deadline)
                    if due_at is None:
                        self._cond.wait()
                        continue
                    if due_at > now and self._running:
                        self._cond.wait(timeout=due_at - now)
                        continue
                    batch = self._queue.collect(now, mb, deadline,
                                                force=not self._running)
                    self.metrics.gauge("queue_depth").set(len(self._queue))
                if batch:
                    try:
                        self._run(batch, now)
                    except Exception:
                        pass    # _run failed the batch's futures with it
        except BaseException as exc:
            # the batcher is dying: nothing else would resolve the requests
            # still waiting behind the failed batch, so fail them with it
            with self._cond:
                self._dead = True     # admissions still preprocessing see it
                waiting = self._queue.pop_all()
                self.metrics.gauge("queue_depth").set(0)
            self._fail(waiting, exc)
            raise

    # -- introspection -----------------------------------------------------
    @property
    def is_running(self) -> bool:
        """True while the daemon batcher thread is alive (threaded mode).

        Checks liveness, not just :meth:`start` having been called: if the
        batcher died from an uncaught error, callers (e.g. the streaming
        runner) must fall back to driving :meth:`step` themselves instead
        of waiting on futures the dead thread will never resolve.
        """
        return self._thread is not None and self._thread.is_alive()

    def stats(self) -> dict:
        """Counters, latency/batch histograms, queue depths, cache state."""
        with self._cond:
            queue = self._queue.depths()
            cache = {"items": (len(self._results)
                               if self._results is not None else 0),
                     "capacity": self.config.result_cache_items,
                     "inflight": len(self._inflight)}
        # Observability for streaming backpressure: how deep the waiting
        # room got, and how much traffic the result cache absorbed.
        queue["peak_depth"] = self.metrics.gauge("queue_depth").peak
        hits = self.metrics.counter("cache_hits").value
        submitted = self.metrics.counter("submitted").value
        cache["hits"] = hits
        cache["hit_rate"] = hits / submitted if submitted else 0.0
        snap = self.metrics.snapshot()
        # Per-lane queue-wait histograms, pulled up from the flat snapshot:
        # the scheduling-policy share of latency, interactive vs bulk —
        # what proves priority lanes (and viewport priority) beat FIFO.
        queue["wait_per_lane"] = {lane: snap[f"queue_wait.{lane}"]
                                  for lane in self.config.lanes
                                  if f"queue_wait.{lane}" in snap}
        return {"engine": snap,
                "queue": queue,
                "result_cache": cache,
                "predictor": dict(self.predictor.stats),
                "pipeline": dict(self.predictor.pipeline.stats)}
