"""Request tracing — zero-cost-when-disabled spans over any clock.

The serving stack's flight recorder. A :class:`Tracer` collects timeline
events (spans, instants, async request intervals) from every layer of the
request lifecycle — ``InferenceEngine.submit`` → queue wait → micro-batch
formation → plan-cache → compiled-graph execution → stitch → completion —
and :mod:`repro.obs.export` turns them into Chrome trace-event JSON,
a text flame summary, and per-request critical-path breakdowns.

Design rules (the ones that keep the hot path honest):

**Zero cost when disabled.** Components normalize their tracer reference
at construction: ``self.tracer = tracer if (tracer is not None and
tracer.enabled) else None`` — so every instrumentation site is a single
``if self.tracer is not None`` check against a plain attribute, and the
disabled path is byte-identical to an uninstrumented build (the
``BENCH_obs`` gate pins ≤1% wall-clock overhead and bit-identical
outputs).

**Explicit context, no thread-locals.** Spans are opened and closed with
explicit timestamps and identifiers; request correlation rides an integer
``rid`` drawn from :meth:`Tracer.next_id` and carried on the
:class:`~repro.serve.queueing.Request` itself — through collapsed twins,
eviction, and adoption by another replica — so parentage survives fleet
re-homing without any ambient state.

**The clock comes from the caller.** Wall time (``time.monotonic``) by
default; pass a DES :class:`~repro.serve.loadgen.SimClock`'s ``now`` and
every event is stamped in *virtual* seconds — two same-seed simulated
runs then export byte-identical traces (gated in CI). Per-kernel
profiling (:class:`KernelProfile`) is the one deliberate exception: it
measures real ``perf_counter`` seconds per executor step and aggregates
them *outside* the event timeline, so enabling it never perturbs trace
determinism.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Dict, List, Optional

__all__ = ["Tracer", "Span", "KernelProfile"]


class KernelProfile:
    """Per-kernel aggregate of executor-step timings joined with FLOP/byte
    estimates (:func:`repro.perf.flops.kernel_cost`).

    The compiled :class:`~repro.runtime.compile.ExecutionPlan` calls
    :meth:`hook` once per step when profiling is on; :meth:`summary`
    reports calls, seconds, and *achieved* GFLOP/s / GB/s per kernel —
    the number that says whether ``sdpa`` or ``linear_gelu`` is actually
    running at the speed the cost model assumes.
    """

    def __init__(self) -> None:
        self._ops: Dict[str, List[float]] = {}   # op -> [calls, s, flops, bytes]
        self._lock = threading.Lock()

    def record(self, op: str, seconds: float, flops: float = 0.0,
               bytes: float = 0.0) -> None:
        with self._lock:
            agg = self._ops.get(op)
            if agg is None:
                self._ops[op] = [1, seconds, flops, bytes]
            else:
                agg[0] += 1
                agg[1] += seconds
                agg[2] += flops
                agg[3] += bytes

    def hook(self, name: str, seconds: float,
             meta: Optional[dict] = None) -> None:
        """The :attr:`ExecutionPlan.profile_hook` signature."""
        meta = meta or {}
        self.record(name, seconds, meta.get("flops", 0.0),
                    meta.get("bytes", 0.0))

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-op totals plus achieved throughput, heaviest ops first."""
        with self._lock:
            items = [(op, list(agg)) for op, agg in self._ops.items()]
        items.sort(key=lambda kv: (-kv[1][1], kv[0]))
        out: Dict[str, Dict[str, float]] = {}
        for op, (calls, seconds, flops, nbytes) in items:
            out[op] = {
                "calls": int(calls),
                "seconds": seconds,
                "gflops": flops / 1e9,
                "gbytes": nbytes / 1e9,
                "gflop_per_s": flops / 1e9 / seconds if seconds > 0 else 0.0,
                "gb_per_s": nbytes / 1e9 / seconds if seconds > 0 else 0.0,
            }
        return out


class Span:
    """An open interval on one tracer track; close with :meth:`end` (or use
    as a context manager — the common wall-clock idiom)."""

    __slots__ = ("_tracer", "name", "track", "tid", "start", "args")

    def __init__(self, tracer: Optional["Tracer"], name: str, track: str,
                 tid: str, start: float, args: Optional[dict]):
        self._tracer = tracer
        self.name = name
        self.track = track
        self.tid = tid
        self.start = start
        self.args = args

    def end(self, t: Optional[float] = None,
            args: Optional[dict] = None) -> None:
        tr = self._tracer
        if tr is None:
            return
        self._tracer = None          # idempotent: a span closes once
        if args:
            merged = dict(self.args or {})
            merged.update(args)
        else:
            merged = self.args
        tr.complete(self.name, self.track,
                    self.start, tr.clock() if t is None else t,
                    tid=self.tid, args=merged)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end()


class Tracer:
    """Event collector for one serving run (engine, fleet, or viewer).

    Parameters
    ----------
    clock:
        Time source for events recorded without an explicit timestamp,
        and for :class:`Span` context managers. Pass the engine's clock —
        ``time.monotonic`` in threaded mode, a
        :class:`~repro.serve.loadgen.SimClock`'s ``now`` under the DES —
        so spans land on the same timeline the engine schedules on.
    enabled:
        ``False`` builds a dead tracer: components normalize it away at
        construction, so nothing is ever recorded and nothing is paid.
    profile_kernels:
        Attach a :class:`KernelProfile` (exposed as :attr:`kernels`) that
        the compiled executor feeds per-step wall timings. Off by default
        — and left off in DES runs, where real timings would be noise
        (the aggregate lives outside the event list either way, so traces
        stay deterministic even when it is on).

    Events accumulate in :attr:`events` as plain dicts on the internal
    schema (seconds-valued ``ts``); :mod:`repro.obs.export` renders them.
    Recording is a single locked list append — cheap enough for per-request
    instrumentation, and thread-safe for threaded engine mode.
    """

    def __init__(self, *, clock: Callable[[], float] = time.monotonic,
                 enabled: bool = True, profile_kernels: bool = False):
        self.enabled = bool(enabled)
        self.clock = clock
        self.events: List[dict] = []
        self.kernels: Optional[KernelProfile] = \
            KernelProfile() if profile_kernels else None
        self._ids = itertools.count(1)
        self._tracks: Dict[str, int] = {}
        self._lock = threading.Lock()

    # -- identity ----------------------------------------------------------
    def next_id(self) -> int:
        """A run-unique request id (``rid``) — deterministic under the DES
        (single-threaded allocation order) and unique across a whole fleet
        because the tracer is shared by every replica."""
        return next(self._ids)

    @property
    def tracks(self) -> Dict[str, int]:
        """Track name -> pid (1-based, first-seen order)."""
        with self._lock:
            return dict(self._tracks)

    # -- recording ---------------------------------------------------------
    def _emit(self, ev: dict) -> None:
        with self._lock:
            track = ev["track"]
            if track not in self._tracks:
                self._tracks[track] = len(self._tracks) + 1
            self.events.append(ev)

    def complete(self, name: str, track: str, start: float, end: float, *,
                 tid: str = "main", args: Optional[dict] = None) -> None:
        """One closed span (Chrome ``ph="X"``) on ``track``/``tid``."""
        if not self.enabled:
            return
        self._emit({"ph": "X", "name": name, "track": track, "tid": tid,
                    "ts": start, "dur": max(end - start, 0.0), "args": args})

    def instant(self, name: str, track: str, t: Optional[float] = None, *,
                tid: str = "main", args: Optional[dict] = None) -> None:
        """A point event (Chrome ``ph="i"``) — rejections, evictions, faults."""
        if not self.enabled:
            return
        self._emit({"ph": "i", "name": name, "track": track, "tid": tid,
                    "ts": self.clock() if t is None else t, "args": args})

    def async_begin(self, name: str, track: str, t: float, uid: int, *,
                    tid: str = "main", args: Optional[dict] = None) -> None:
        """Open an async interval (Chrome ``ph="b"``), matched by ``uid``.

        Request lifetimes are async events, not nested spans: queue waits
        of co-batched requests overlap arbitrarily, which would break
        strict span nesting on a shared thread — async intervals carry
        their own identity (``cat="request", id=rid``) instead.
        """
        if not self.enabled:
            return
        self._emit({"ph": "b", "name": name, "track": track, "tid": tid,
                    "ts": t, "cat": name, "id": uid, "args": args})

    def async_end(self, name: str, track: str, t: float, uid: int, *,
                  tid: str = "main", args: Optional[dict] = None) -> None:
        """Close the async interval opened with the same ``uid``."""
        if not self.enabled:
            return
        self._emit({"ph": "e", "name": name, "track": track, "tid": tid,
                    "ts": t, "cat": name, "id": uid, "args": args})

    def begin(self, name: str, track: str, *, tid: str = "main",
              t: Optional[float] = None,
              args: Optional[dict] = None) -> Span:
        """Open a :class:`Span` (wall-clock convenience; DES call sites
        prefer explicit :meth:`complete` stamps)."""
        if not self.enabled:
            return Span(None, name, track, tid, 0.0, None)
        return Span(self, name, track, tid,
                    self.clock() if t is None else t, args)
