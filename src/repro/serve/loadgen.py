"""Deterministic simulated-clock load harness for the inference engine.

Real-time load tests are hopeless on shared 1-CPU CI: wall-clock arrival
jitter swamps the quantities under test. This module replaces wall time
with a **virtual clock** driven by a discrete-event loop: seeded open-loop
arrival traces (:func:`poisson_trace`) are replayed against an
:class:`~repro.serve.engine.InferenceEngine` whose service times come from
a calibrated :class:`ServiceModel` instead of measurements. The engine
still executes the *real* model on every batch — results are real, only
the timeline is simulated — so one run yields bit-exact outputs **and**
bit-exact virtual latency/throughput numbers, on any host, every time.
That is what lets ``benchmarks/BENCH_serving.json`` gate tail latency in
CI without flakes.

One loop serves every driver. It merges fault events with arrivals,
keeps one availability horizon per server, dispatches the
earliest-starting due batch, and applies the routing hop. A single
engine is the one-server fleet. :func:`run_load` (one engine),
:func:`run_fleet_load` (a :class:`~repro.serve.router.FleetRouter`
with :class:`ReplicaKill` / :class:`ReplicaDrain` events) and
:func:`~repro.pyramid.trace.run_viewer_load` (viewport sessions) supply
only how an arrival is submitted and what happens after a batch.

Open-loop semantics: arrivals fire at their trace times regardless of
completions (the production-realistic regime — clients do not politely
wait). When the engine's admission control rejects an arrival it is
counted and dropped, exactly like a load balancer shedding to a 429.

The serial baseline (:func:`serial_baseline`) models the pre-engine
deployment — one blocking ``predict_image`` worker serving the same trace
FIFO — using the same :class:`ServiceModel`, so the speedup ratio isolates
what continuous batching buys (fixed per-dispatch overhead amortized over
``max_batch`` requests) from constants both paths share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .queueing import EngineOverloaded

__all__ = ["Arrival", "SimClock", "ServiceModel", "poisson_trace",
           "merge_traces", "run_load", "serial_baseline",
           "ReplicaKill", "ReplicaDrain", "run_fleet_load"]


@dataclass(frozen=True)
class Arrival:
    """One trace event: at ``time``, submit ``items[item]`` on ``lane``."""

    time: float
    item: int
    lane: str = "interactive"
    kind: str = "image"            #: "image" -> submit, "volume" -> submit_volume


class SimClock:
    """Forward-only virtual clock; pass ``clock.now`` to the engine."""

    def __init__(self, t0: float = 0.0):
        self._t = float(t0)

    def now(self) -> float:
        return self._t

    def set(self, t: float) -> None:
        """Advance to ``t`` (never moves backwards)."""
        self._t = max(self._t, float(t))

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("cannot advance backwards")
        self._t += dt


@dataclass
class ServiceModel:
    """Virtual service-time model: ``cost(B, L) = a + B * (L*b + c)``.

    Defaults are calibrated against ``BENCH_inference.json`` on the 1-CPU
    reference host: a compiled plan dispatch costs a roughly constant
    ``batch_seconds`` of Python/kernel overhead (the quantity batching
    amortizes), plus per-item work linear in padded sequence length
    (``token_seconds``) and a stitch/postprocess term (``item_seconds``).
    Absolute values matter less than their *ratio* — it determines the
    achievable batching speedup — and the defaults are deliberately
    conservative versus the measured single-image overhead share.
    """

    batch_seconds: float = 0.030
    token_seconds: float = 2.0e-5
    item_seconds: float = 0.003

    def cost(self, batch: int, length: int) -> float:
        """Virtual seconds to run one (batch, length) plan execution."""
        if batch < 1 or length < 1:
            raise ValueError("batch and length must be >= 1")
        return self.batch_seconds + batch * (length * self.token_seconds
                                             + self.item_seconds)

    def serial(self, length: int) -> float:
        """Virtual seconds for an unbatched single-request execution."""
        return self.cost(1, length)


def poisson_trace(rate: float, n: int, *, seed: int, n_items: int = 1,
                  lane: str = "interactive", kind: str = "image",
                  start: float = 0.0) -> List[Arrival]:
    """Seeded open-loop Poisson arrivals (one client stream).

    ``n`` arrivals at ``rate``/s from ``start``; each references a
    uniformly drawn item index in ``[0, n_items)``. Everything flows from
    ``seed`` — the same call always yields the same trace.
    """
    if rate <= 0 or n < 1 or n_items < 1:
        raise ValueError("need rate > 0, n >= 1, n_items >= 1")
    rng = np.random.default_rng(seed)
    times = start + np.cumsum(rng.exponential(1.0 / rate, size=n))
    items = rng.integers(0, n_items, size=n)
    return [Arrival(float(t), int(i), lane, kind)
            for t, i in zip(times, items)]


def merge_traces(*traces: Sequence[Arrival]) -> List[Arrival]:
    """Interleave client streams into one time-ordered trace."""
    merged = [a for trace in traces for a in trace]
    merged.sort(key=lambda a: (a.time, a.lane, a.item))
    return merged


@dataclass(frozen=True)
class ReplicaKill:
    """Fault-injection event: fail-stop replica ``rank`` at virtual ``time``.

    Results computed before ``time`` stand; the replica's waiting queue is
    re-hashed onto the survivors (see :meth:`FleetRouter.kill`) with the
    original futures and submit times intact — the disruption shows up as
    latency, never as loss.
    """

    time: float
    rank: int


@dataclass(frozen=True)
class ReplicaDrain:
    """Lifecycle event: stop admitting to ``rank`` at virtual ``time``;
    its queued work retires through the normal batcher path."""

    time: float
    rank: int


def _simulate(backend, clock: SimClock, arrivals: Sequence,
              submit: Callable[[object, float], None],
              events: Sequence = (),
              on_done: Optional[Callable[[float], None]] = None) -> None:
    """The discrete-event loop behind every DES driver.

    ``backend`` is one :class:`~repro.serve.engine.InferenceEngine` or a
    :class:`~repro.serve.router.FleetRouter`; a single engine is the
    one-server fleet with no routing hop. Every server keeps its own
    virtual availability horizon, and the loop always dispatches the
    earliest-starting due batch among the servers still serving (ties go
    to the lowest rank, so the schedule is deterministic).

    ``arrivals`` (anything with a ``.time``) and ``events``
    (:class:`ReplicaKill` / :class:`ReplicaDrain`) merge into one
    timeline; an event at an arrival's exact time fires first, so a
    same-instant arrival already routes around the dead replica. Each
    arrival is handed to ``submit(arrival, at)`` at ``at = time +
    backend.route_seconds``, after every batch that can start strictly
    before ``at``: pumping only to the arrival time would let a batch
    dispatch inside the hop window and scoop a request stamped after its
    own start (negative latency).

    ``on_done(t)`` runs after each batch with its completion time
    ``start + cost``, and once more at the drain instant after the last
    batch has started. On return the clock stands at the last busy
    server's horizon.
    """
    if not arrivals:
        raise ValueError("empty trace")
    replicas = getattr(backend, "replicas", None)
    if replicas is None:
        if events:
            raise ValueError("fault events need a fleet backend")
        servers = [(0, backend, lambda: True)]
    else:
        servers = [(r.rank, r.engine, lambda r=r: r.serving)
                   for r in replicas]
    hop = float(getattr(backend, "route_seconds", 0.0))
    free_at = {rank: clock.now() for rank, _, _ in servers}

    def pump(limit: float) -> None:
        """Run every batch that can start strictly before ``limit``."""
        while True:
            best = None
            for rank, engine, serving in servers:
                if not serving():
                    continue
                due = engine.next_flush_at(max(free_at[rank], clock.now()))
                if due is None:
                    continue
                start_t = max(free_at[rank], due)
                if best is None or start_t < best[0]:
                    best = (start_t, rank, engine)
            if best is None or best[0] >= limit:
                return
            start_t, rank, engine = best
            clock.set(start_t)
            report = engine.step(start_t)
            if report is None:      # pragma: no cover - policy safety net
                return
            free_at[rank] = start_t + report.cost
            if on_done is not None:
                on_done(free_at[rank])

    stream = sorted([(ev.time, 0, ev) for ev in events]
                    + [(a.time, 1, a) for a in arrivals],
                    key=lambda entry: entry[:2])
    for t, tag, ev in stream:
        at = t + hop if tag else t
        pump(at)
        clock.set(at)
        if tag:
            submit(ev, at)
            continue
        if isinstance(ev, ReplicaKill):
            name, act = "fault.kill", backend.kill
        elif isinstance(ev, ReplicaDrain):
            name, act = "fault.drain", backend.drain
        else:
            raise TypeError(f"unknown fleet event {ev!r}")
        if backend.tracer is not None:
            backend.tracer.instant(name, "loadgen", ev.time,
                                   args={"rank": ev.rank})
        act(ev.rank)
    pump(float("inf"))
    if on_done is not None:
        on_done(clock.now())
    clock.set(max([clock.now()] + [free_at[rank]
                                   for rank, _, serving in servers
                                   if serving()]))


def _replay(backend, trace: Sequence[Arrival], items: Sequence[np.ndarray],
            clock: SimClock, events: Sequence, scope: str,
            lanes: Sequence[str]):
    """Run an arrival trace through :func:`_simulate` and build the report
    fields :func:`run_load` and :func:`run_fleet_load` share.

    ``scope`` names the counter block of
    ``backend.stats()`` (``"engine"`` or ``"fleet"``). Returns
    ``(report, stats snapshot, accepted futures)``.
    """
    arrivals = sorted(trace, key=lambda a: (a.time, a.lane, a.item))
    futures = []
    retry_hints: List[float] = []

    def submit(arrival: Arrival, _at: float) -> None:
        payload = items[arrival.item]
        try:
            if arrival.kind == "volume":
                futures.append(backend.submit_volume(payload,
                                                     lane=arrival.lane))
            else:
                futures.append(backend.submit(payload, lane=arrival.lane))
        except EngineOverloaded as exc:
            retry_hints.append(exc.retry_after)

    _simulate(backend, clock, arrivals, submit, events)
    unresolved = sum(1 for f in futures if not f.done())
    if unresolved:
        raise RuntimeError(f"{unresolved} accepted futures never resolved")
    snap = backend.stats()
    counters = snap[scope]
    # collapsed duplicates are accepted submissions served by their twin's
    # execution — they count toward delivered throughput like cache hits
    completed = (counters.get("completed", 0) + counters.get("cache_hits", 0)
                 + counters.get("collapsed", 0))
    makespan = max(clock.now() - arrivals[0].time, 1e-12)
    batches = counters.get("batches", 0)
    report = {
        "offered": len(arrivals),
        "accepted": len(futures),
        "rejected_submissions": len(retry_hints),
        "mean_retry_after": (float(np.mean(retry_hints))
                             if retry_hints else 0.0),
        "requests_completed": completed,
        "makespan": makespan,
        "throughput": completed / makespan,
        "batches": batches,
        "mean_batch_size": (counters["batch_size"]["mean"] if batches
                            else 0.0),
        "latency": counters.get("latency"),
        "latency_per_lane": {lane: counters[f"latency.{lane}"]
                             for lane in lanes
                             if f"latency.{lane}" in counters},
    }
    return report, snap, futures


def run_load(engine, trace: Sequence[Arrival], items: Sequence[np.ndarray],
             clock: SimClock) -> Dict[str, object]:
    """Replay an arrival trace through the engine under the virtual clock.

    The engine must have been constructed with ``clock=clock.now`` and a
    ``service_model`` (deterministic completions); :meth:`start` must NOT
    have been called — the discrete-event loop owns dispatch via
    ``engine.step``. The engine runs as a one-server fleet: between
    consecutive arrivals, every batch whose flush time (full bucket, or
    oldest-request deadline) and the server's availability both fall
    before the next arrival runs; submissions are stamped at their exact
    trace times. Returns a report with virtual throughput/latency plus
    the engine's own stats snapshot.
    """
    report, snap, _ = _replay(engine, trace, items, clock, (), "engine",
                              engine.config.lanes)
    report["stats"] = snap
    return report


def run_fleet_load(router, trace: Sequence[Arrival],
                   items: Sequence[np.ndarray], clock: SimClock,
                   events: Sequence = ()) -> Dict[str, object]:
    """Replay an arrival trace through a :class:`FleetRouter` fleet.

    The N-server case of the one discrete-event loop (:func:`run_load` is
    the one-server case): every replica engine keeps its own virtual
    availability horizon, and the earliest-starting due batch across the
    whole fleet dispatches first (ties break by rank). All engines must
    share ``clock`` (``clock=clock.now``) and carry
    :class:`ServiceModel`\\ s — heterogeneous per-replica models are fine;
    :func:`~repro.serve.fleet.build_fleet` sets this up.

    ``events`` interleaves :class:`ReplicaKill` / :class:`ReplicaDrain`
    with the arrivals on the virtual timeline (events at an arrival's
    exact time fire first). ``router.route_seconds`` models the routing
    hop: each submission is stamped that much after its arrival.

    Returns the :func:`run_load`-shaped report plus fleet extras:
    per-replica breakdowns, rerouting/spill/drop counters, and the
    fleet-wide merged latency histograms (bucket-wise sums — true fleet
    percentiles, not averages of per-replica percentiles).
    """
    lanes = sorted({lane for r in router.replicas
                    for lane in r.engine.config.lanes})
    report, snap, futures = _replay(router, trace, items, clock, events,
                                    "fleet", lanes)
    routing = snap["router"]
    report.update({
        "failed": sum(1 for f in futures if f.exception() is not None),
        "rerouted": routing.get("rerouted", 0),
        "spilled": routing.get("spilled", 0),
        "kills": routing.get("kills", 0),
        "drains": routing.get("drains", 0),
        "cache_hit_rate": snap["result_cache"]["hit_rate"],
        "per_replica": snap["replicas"],
        "stats": snap,
    })
    return report


def serial_baseline(trace: Sequence[Arrival], lengths: Sequence[int],
                    model: ServiceModel,
                    queue_bound: Optional[int] = None) -> Dict[str, object]:
    """The pre-engine deployment: one FIFO ``predict_image`` worker.

    ``lengths[k]`` is the padded bucket length of the k-th (time-ordered)
    arrival. ``queue_bound`` optionally sheds arrivals that would find
    more than that many requests waiting (matching the engine's admission
    control); shed arrivals are excluded from latency but counted.
    """
    arrivals = sorted(trace, key=lambda a: (a.time, a.lane, a.item))
    if len(arrivals) != len(lengths):
        raise ValueError("need one length per arrival")
    free_at: Optional[float] = None
    done_times: List[float] = []
    latencies: List[float] = []
    shed = 0
    for arrival, length in zip(arrivals, lengths):
        if queue_bound is not None and free_at is not None:
            waiting = sum(1 for t in done_times if t > arrival.time)
            if waiting > queue_bound:
                shed += 1
                continue
        start = arrival.time if free_at is None else max(free_at, arrival.time)
        free_at = start + model.serial(int(length))
        done_times.append(free_at)
        latencies.append(free_at - arrival.time)
    if not latencies:
        raise ValueError("every arrival was shed")
    makespan = max(done_times[-1] - arrivals[0].time, 1e-12)
    lat = np.asarray(latencies)
    return {
        "offered": len(arrivals),
        "completed": len(latencies),
        "shed": shed,
        "makespan": makespan,
        "throughput": len(latencies) / makespan,
        "p50": float(np.percentile(lat, 50)),
        "p95": float(np.percentile(lat, 95)),
        "p99": float(np.percentile(lat, 99)),
        "mean": float(lat.mean()),
    }
