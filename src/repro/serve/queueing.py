"""Request queueing for the inference engine — lanes, fairness, backpressure.

:class:`FairQueue` is the admission-controlled waiting room between
``InferenceEngine.submit`` and the continuous batcher. It implements three
policies the engine composes:

**Length-bucket coalescing.** Requests carry the padded bucket length the
:class:`~repro.serve.predictor.Predictor` assigned them; a batch only ever
contains one bucket, so every flush maps to exactly one compiled-plan
signature.

**Weighted fair lanes (start-time fair queueing).** Each lane (e.g.
``interactive`` vs ``bulk``) has a weight; a request's virtual timestamp is
``max(lane_vfinish, vclock) + 1/weight``, and dispatch prefers smaller
timestamps. Under backlog, lanes receive service proportional to their
weights; a lane that was idle re-enters at the current virtual clock so it
can neither starve nor monopolize. With a single lane the timestamps are
strictly increasing in arrival order, so dispatch is plain FIFO — the
property the engine's bit-identity guarantee against
``Predictor.predict_batch`` rests on.

**Bounded depth.** ``push`` beyond ``max_depth`` raises
:class:`EngineOverloaded` (HTTP-429 semantics); the engine attaches a
``retry_after`` hint from its service-rate estimate. ``push_all`` reserves
capacity for a whole job (a decomposed volume) atomically, so a partial
volume is never admitted.

Flush policy (evaluated by :meth:`collect`): once any request has waited
``deadline`` seconds, the *oldest* request's bucket flushes (latency-
bounded partial batch — this takes precedence, so a continuously full
bucket cannot starve requests parked in a sparse one); otherwise a bucket
holding ``max_batch`` waiting requests flushes immediately. Light load
therefore never waits for a full batch, and heavy load runs full plans.

The queue does **no internal locking** — the engine serializes access
(condition variable in threaded mode, single-threaded event loop under the
simulated clock).
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence

__all__ = ["EngineOverloaded", "Request", "FairQueue", "DEFAULT_LANES"]

#: Default lane weights: interactive requests get 4x the service share of
#: bulk (volume) jobs under contention.
DEFAULT_LANES: Mapping[str, float] = {"interactive": 4.0, "bulk": 1.0}


class EngineOverloaded(RuntimeError):
    """Admission control rejected a submission (queue at capacity).

    Attributes
    ----------
    retry_after:
        Seconds (wall or virtual, matching the engine clock) after which
        capacity is expected to free up — a hint, not a guarantee.
    """

    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


@dataclass(eq=False)
class Request:
    """One unit of inference work (a single image or volume slice).

    A queued request may carry ``twins``: requests for the same payload
    that collapsed onto it while it was in flight. A twin is never queued;
    it ends with its primary. Requests compare by identity.
    """

    seq: object                       #: natural (pre-drop) patch sequence
    bucket: int                       #: padded length assigned by the Predictor
    lane: str
    submit_t: float                   #: engine-clock time of submission
    future: Future = field(default_factory=Future)
    key: Optional[Hashable] = None    #: result-cache digest (None = uncached)
    vtime: float = 0.0                #: fair-queueing virtual timestamp
    seqno: int = 0                    #: arrival tiebreak (monotonic)
    rid: int = 0                      #: trace request id (0 = untraced)
    twins: List["Request"] = field(default_factory=list)


class FairQueue:
    """Bounded multi-lane queue with weighted fair, bucket-coalesced dispatch."""

    def __init__(self, lanes: Optional[Mapping[str, float]] = None,
                 max_depth: int = 64):
        lanes = dict(DEFAULT_LANES if lanes is None else lanes)
        if not lanes:
            raise ValueError("need at least one lane")
        if any(w <= 0 for w in lanes.values()):
            raise ValueError("lane weights must be positive")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.lanes = lanes
        self.max_depth = max_depth
        self._vclock = 0.0
        self._vfinish: Dict[str, float] = {lane: 0.0 for lane in lanes}
        self._buckets: Dict[int, List[Request]] = {}
        self._count = 0
        self._seqno = itertools.count()

    # -- admission --------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def capacity_left(self) -> int:
        return self.max_depth - self._count

    def _stamp(self, req: Request) -> None:
        if req.lane not in self.lanes:
            raise ValueError(f"unknown lane {req.lane!r}; "
                             f"configured: {sorted(self.lanes)}")
        vstart = max(self._vfinish[req.lane], self._vclock)
        self._vfinish[req.lane] = vstart + 1.0 / self.lanes[req.lane]
        req.vtime = self._vfinish[req.lane]
        req.seqno = next(self._seqno)

    def push(self, req: Request, retry_after: float = 0.0) -> None:
        """Admit one request, or raise :class:`EngineOverloaded`."""
        self.push_all([req], retry_after)

    def push_all(self, reqs: Sequence[Request], retry_after: float = 0.0) -> None:
        """Admit all requests or none (atomic capacity reservation)."""
        if len(reqs) > self.max_depth - self._count:
            raise EngineOverloaded(
                f"queue full ({self._count}/{self.max_depth} waiting, "
                f"{len(reqs)} offered)", retry_after=retry_after)
        for req in reqs:
            self._stamp(req)
            self._buckets.setdefault(req.bucket, []).append(req)
            self._count += 1

    # -- flush policy -----------------------------------------------------
    def _full_bucket(self, max_batch: int) -> Optional[int]:
        """Bucket holding a full batch, preferring the min-vtime request."""
        best = None
        for length, reqs in self._buckets.items():
            if len(reqs) >= max_batch:
                head = min(reqs, key=lambda r: (r.vtime, r.seqno))
                if best is None or (head.vtime, head.seqno) < best[0]:
                    best = ((head.vtime, head.seqno), length)
        return best[1] if best else None

    def _oldest(self) -> Optional[Request]:
        oldest = None
        for reqs in self._buckets.values():
            for r in reqs:
                if oldest is None or (r.submit_t, r.seqno) < (oldest.submit_t,
                                                              oldest.seqno):
                    oldest = r
        return oldest

    def next_flush_at(self, now: float, max_batch: int,
                      deadline: float) -> Optional[float]:
        """Earliest absolute time a batch becomes dispatchable; None if empty."""
        if self._count == 0:
            return None
        if self._full_bucket(max_batch) is not None:
            return now
        oldest = self._oldest().submit_t
        due = oldest + deadline
        # float guard: (t + d) - t can round below d, so a step() at
        # exactly the advertised due time would collect nothing and stall
        # a DES driver that trusts this value; nudge up by ulps until the
        # deadline test in collect() is guaranteed to pass
        while due - oldest < deadline:
            due = math.nextafter(due, math.inf)
        return due

    def collect(self, now: float, max_batch: int, deadline: float,
                force: bool = False) -> Optional[List[Request]]:
        """Pop the next batch to run at time ``now`` (or None if none is due).

        ``force=True`` ignores the deadline (used to drain the queue).
        The latency bound beats batch occupancy: a deadline-expired request
        dispatches its bucket even while another bucket holds full batches,
        so sustained traffic in one length bucket can never starve a sparse
        one. Requests within the chosen bucket dispatch in virtual-time
        order — FIFO for a single lane, weight-interleaved across lanes.
        """
        if self._count == 0:
            return None
        oldest = self._oldest()
        if force or now - oldest.submit_t >= deadline:
            length = oldest.bucket
        else:
            length = self._full_bucket(max_batch)
            if length is None:
                return None
        reqs = self._buckets[length]
        reqs.sort(key=lambda r: (r.vtime, r.seqno))
        batch, rest = reqs[:max_batch], reqs[max_batch:]
        if rest:
            self._buckets[length] = rest
        else:
            del self._buckets[length]
        self._count -= len(batch)
        self._vclock = max(self._vclock, batch[0].vtime)
        return batch

    def find(self, future: Future) -> Optional[Request]:
        """The waiting request that owns ``future`` (None once dispatched).

        Linear in queue depth, which admission control bounds at
        ``max_depth`` — cheap enough for the cancellation path.
        """
        for reqs in self._buckets.values():
            for r in reqs:
                if r.future is future:
                    return r
        return None

    def remove(self, future: Future) -> Optional[Request]:
        """Retire the waiting request that owns ``future`` (or None).

        The cancellation primitive under
        :meth:`~repro.serve.engine.InferenceEngine.cancel`: only *waiting*
        requests are removable — once :meth:`collect` has dispatched a
        request it is the batcher's.
        """
        for length, reqs in self._buckets.items():
            for i, r in enumerate(reqs):
                if r.future is future:
                    del reqs[i]
                    if not reqs:
                        del self._buckets[length]
                    self._count -= 1
                    return r
        return None

    def pop_all(self) -> List[Request]:
        """Remove and return every waiting request in virtual-time order.

        Used by the fleet router to evict the backlog of a killed replica
        so it can be re-hashed onto the surviving ones — dispatch order on
        the adoptive replica is re-stamped at admission, so fairness
        accounting starts fresh there.
        """
        reqs = [r for bucket in self._buckets.values() for r in bucket]
        reqs.sort(key=lambda r: (r.vtime, r.seqno))
        self._buckets.clear()
        self._count = 0
        return reqs

    # -- introspection ----------------------------------------------------
    def depths(self) -> Dict[str, object]:
        """Waiting-request counts, total / per lane / per bucket."""
        per_lane = {lane: 0 for lane in self.lanes}
        for reqs in self._buckets.values():
            for r in reqs:
                per_lane[r.lane] += 1
        return {"total": self._count, "per_lane": per_lane,
                "per_bucket": {length: len(reqs) for length, reqs
                               in sorted(self._buckets.items())}}
