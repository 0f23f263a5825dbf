"""Fleet router — digest-affinity sharding over N engine replicas.

One :class:`~repro.serve.engine.InferenceEngine` saturates one process;
the next order of magnitude is a *fleet* of replicas behind a
:class:`FleetRouter`. The router adds exactly three policies, each layered
on machinery the engine already has:

**Digest cache affinity (rendezvous hashing).** Every payload already
carries a stable content digest (the same hash keying the pipeline's
sequence cache and the engine's result cache). The router ranks the live
replicas by highest-random-weight (rendezvous) score of
``(digest, rank)`` and routes to the winner, so *all* repetitions of a
payload land on the same replica: the fleet's LRU result caches **shard**
the key space instead of duplicating it, and the engine's in-flight
request collapsing keeps working across the router — concurrent
duplicates meet at their affinity replica. Rendezvous hashing has the
minimal-disruption property: removing a replica re-homes only the keys it
owned, every other key keeps its replica (and therefore its warm cache).

**Replica lifecycle.** Replicas are ``up``, ``draining``, or ``down``.
:meth:`drain` stops admitting to a replica while its queued work retires
through the normal batcher path; :meth:`kill` models fail-stop between
batches — the backlog of the dead replica is evicted
(:meth:`~repro.serve.engine.InferenceEngine.evict_pending`) and re-hashed
onto the survivors with futures intact, so accepted requests are never
lost (the regression suite pins this). :meth:`check` probes threaded-mode
replicas via ``engine.is_running`` and auto-kills any whose batcher died.

**Fleet-wide admission control.** A replica rejecting with
:class:`~repro.serve.queueing.EngineOverloaded` is not the end: the
router *spills* down the rendezvous preference order (sacrificing
affinity for availability — a deliberate, counted event). Only when every
live replica is at capacity does the caller see ``EngineOverloaded``,
with ``retry_after`` the minimum of the per-replica hints — the soonest
any replica expects capacity.

Replica addressing reuses the :class:`~repro.distributed.SimCluster`
topology (ranks ``0..world_size-1``), and fleet-wide statistics come from
merging per-replica metric registries (:meth:`MetricsRegistry.merge`) —
p50/p95/p99 over the whole fleet without re-bucketing a single sample.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence

import numpy as np

from ..distributed import SimCluster
from ..pipeline.engine import content_key as _digest
from .engine import InferenceEngine, _trace_digest
from .metrics import MetricsRegistry
from .queueing import EngineOverloaded

__all__ = ["Replica", "FleetRouter", "rendezvous_order",
           "REPLICA_UP", "REPLICA_DRAINING", "REPLICA_DOWN"]

REPLICA_UP = "up"
REPLICA_DRAINING = "draining"
REPLICA_DOWN = "down"


def rendezvous_order(key: Hashable, ranks: Sequence[int]) -> List[int]:
    """Highest-random-weight (rendezvous) preference order of ``ranks``.

    Deterministic in ``(key, rank)`` only — independent of process, host,
    and the *set* of ranks offered, which is what gives minimal
    disruption: dropping a rank from ``ranks`` leaves the relative order
    of the others untouched, so only the dropped rank's keys move.
    """
    token = repr(key).encode()
    return sorted(ranks,
                  key=lambda r: hashlib.blake2b(
                      token + b"|replica:%d" % r, digest_size=8).digest(),
                  reverse=True)


@dataclass
class Replica:
    """One engine replica plus its lifecycle state and routing counters."""

    rank: int
    engine: InferenceEngine
    state: str = REPLICA_UP
    routed: int = 0
    adopted: int = 0

    @property
    def accepting(self) -> bool:
        return self.state == REPLICA_UP

    @property
    def serving(self) -> bool:
        """Still executing queued work (up *or* draining)."""
        return self.state in (REPLICA_UP, REPLICA_DRAINING)


class FleetRouter:
    """Digest-affinity front door over N :class:`InferenceEngine` replicas.

    Parameters
    ----------
    engines:
        The replica engines, rank-ordered. Each should own its own
        Predictor (sharing the model weights is fine — they are read-only
        at inference). All replicas are assumed interchangeable: any
        request may execute anywhere, affinity is a cache optimization.
    cluster:
        Optional :class:`~repro.distributed.SimCluster` naming the
        topology; defaults to ``SimCluster(len(engines))``. Its
        ``world_size`` must match the replica count — ranks are the
        replica addresses.
    spill:
        When True (default), an overloaded affinity replica spills the
        request down the rendezvous preference order instead of rejecting
        — fleet-wide admission control. ``False`` gives strict affinity
        (reject as soon as the home replica is full).
    route_seconds:
        Virtual routing-hop delay, consumed by the fleet DES
        (:func:`~repro.serve.loadgen.run_fleet_load`); the router itself
        adds no latency in threaded mode.
    """

    def __init__(self, engines: Sequence[InferenceEngine], *,
                 cluster: Optional[SimCluster] = None, spill: bool = True,
                 route_seconds: float = 0.0, tracer=None):
        engines = list(engines)
        if not engines:
            raise ValueError("need at least one replica engine")
        self.cluster = cluster if cluster is not None \
            else SimCluster(len(engines))
        if self.cluster.world_size != len(engines):
            raise ValueError(
                f"topology world_size {self.cluster.world_size} != "
                f"{len(engines)} engines")
        if route_seconds < 0:
            raise ValueError("route_seconds must be >= 0")
        self.replicas = [Replica(rank, engine)
                         for rank, engine in enumerate(engines)]
        self.spill = spill
        self.route_seconds = route_seconds
        self.metrics = MetricsRegistry()
        # round-robin fallback cursor for payloads with no digest
        self._rr = 0
        # Tracing (repro.obs): routing decisions and fault events land on
        # the "router" track; the replicas' tracers are wired separately
        # (build_fleet shares one tracer across router + engines).
        if tracer is None:
            tracer = next((r.engine.tracer for r in self.replicas
                           if getattr(r.engine, "tracer", None) is not None),
                          None)
        self.tracer = tracer if (tracer is not None and tracer.enabled) \
            else None

    # -- membership --------------------------------------------------------
    def _replica(self, rank: int) -> Replica:
        if not 0 <= rank < len(self.replicas):
            raise ValueError(f"rank {rank} out of range "
                             f"[0, {len(self.replicas)})")
        return self.replicas[rank]

    def live_ranks(self) -> List[int]:
        """Ranks currently admitting new work."""
        return [r.rank for r in self.replicas if r.accepting]

    def preference(self, digest: Hashable) -> List[int]:
        """Live ranks in rendezvous order for ``digest`` (affinity first)."""
        return rendezvous_order(digest, self.live_ranks())

    # -- routing -----------------------------------------------------------
    def _route(self, digest: Optional[Hashable],
               call: Callable[[InferenceEngine], "object"]):
        if digest is not None:
            ranks = self.preference(digest)
        else:
            # no digest (result cache disabled): affinity is meaningless,
            # balance instead — rotate over the live set
            live = self.live_ranks()
            if live:
                self._rr = (self._rr + 1) % len(live)
                ranks = live[self._rr:] + live[:self._rr]
            else:
                ranks = []
        if not ranks:
            self.metrics.inc("rejected")
            raise EngineOverloaded("no live replicas (all down or draining)",
                                   retry_after=0.0)
        hints: List[float] = []
        for i, rank in enumerate(ranks if self.spill else ranks[:1]):
            replica = self.replicas[rank]
            try:
                result = call(replica.engine)
            except EngineOverloaded as exc:
                hints.append(exc.retry_after)
                continue
            replica.routed += 1
            self.metrics.inc("routed")
            self.metrics.inc(f"routed.{rank}")
            if digest is not None:
                self.metrics.inc("affinity_hit" if i == 0 else "spilled")
            if self.tracer is not None:
                self.tracer.instant(
                    "route", "router",
                    args={"rank": rank, "spilled": i > 0,
                          "digest": _trace_digest(digest)})
            return result
        self.metrics.inc("rejected")
        raise EngineOverloaded(
            f"all {len(ranks)} live replicas at capacity",
            retry_after=min(hints) if hints else 0.0)

    def submit(self, image: np.ndarray, *, lane: str = "interactive"):
        """Route one image to its affinity replica; returns the Future.

        Raises :class:`EngineOverloaded` only when *every* live replica
        rejects (``retry_after`` = the soonest per-replica hint).
        """
        image = np.asarray(image)
        digest = _digest(image) if self._caching else None
        return self._route(digest, lambda e: e.submit(image, lane=lane))

    def submit_volume(self, volume: np.ndarray, *, lane: str = "bulk"):
        """Route a whole volume to one replica (atomic slice admission).

        The digest of the *full* volume picks the replica, so all slices
        of one volume co-locate (their in-flight collapsing and padding
        cache hits stay local) and the engine's all-or-nothing volume
        admission is preserved per replica.
        """
        volume = np.asarray(volume)
        digest = _digest(volume) if self._caching else None
        return self._route(digest,
                           lambda e: e.submit_volume(volume, lane=lane))

    def cancel(self, future) -> bool:
        """Cancel a still-waiting submission wherever it is queued.

        The fleet face of :meth:`InferenceEngine.cancel`: the request may
        sit on its affinity replica, a spill target, or an adoptive
        replica after a kill — the owning queue is found by asking each
        serving replica (queues are admission-bounded, so the sweep is
        cheap). Same semantics as the engine call: dispatched, resolved,
        or twin-carrying requests are not cancelled (returns False).
        """
        for replica in self.replicas:
            if replica.serving and replica.engine.cancel(future):
                self.metrics.inc("cancelled")
                return True
        return False

    @property
    def _caching(self) -> bool:
        """Affinity only pays when at least one replica caches results."""
        return any(r.engine.config.result_cache_items > 0
                   for r in self.replicas)

    # -- lifecycle ---------------------------------------------------------
    def start(self, warmup: bool = True) -> "FleetRouter":
        """Start every replica's batcher thread (threaded mode)."""
        for r in self.replicas:
            if r.serving:
                r.engine.start(warmup=warmup)
        return self

    def stop(self) -> None:
        """Stop (and drain) every serving replica."""
        for r in self.replicas:
            if r.serving and r.engine.is_running:
                r.engine.stop()

    def drain(self, rank: int) -> Replica:
        """Stop admitting to ``rank``; queued work retires normally.

        The replica keeps executing (its batcher thread, or the DES pump)
        until :attr:`InferenceEngine.pending` reaches zero — poll
        :meth:`is_drained`, then :meth:`retire` or :meth:`restore` it.
        """
        replica = self._replica(rank)
        if replica.state == REPLICA_DOWN:
            raise ValueError(f"replica {rank} is down, cannot drain")
        replica.state = REPLICA_DRAINING
        self.metrics.inc("drains")
        if self.tracer is not None:
            self.tracer.instant("drain", "router", args={"rank": rank})
        return replica

    def is_drained(self, rank: int) -> bool:
        """True once a draining replica's queue is empty."""
        replica = self._replica(rank)
        return replica.state == REPLICA_DRAINING \
            and replica.engine.pending == 0

    def restore(self, rank: int) -> Replica:
        """Return a drained (or draining) replica to the admitting pool."""
        replica = self._replica(rank)
        if replica.state == REPLICA_DOWN:
            raise ValueError(f"replica {rank} is down; a down replica's "
                             "backlog was re-homed — build a fresh engine")
        replica.state = REPLICA_UP
        return replica

    def retire(self, rank: int) -> Replica:
        """Take a *drained* replica out of the fleet for good."""
        replica = self._replica(rank)
        if replica.engine.pending:
            raise RuntimeError(
                f"replica {rank} still holds {replica.engine.pending} "
                "queued requests — drain it first (or kill() to re-home)")
        if replica.engine.is_running:
            replica.engine.stop()
        replica.state = REPLICA_DOWN
        return replica

    def kill(self, rank: int) -> int:
        """Fail-stop replica ``rank`` and re-home its backlog (re-hash spill).

        Models a crash between batches: results already computed stand,
        the waiting queue is evicted with futures (and collapsed twins)
        intact and re-routed by rendezvous re-hash over the survivors.
        Requests whose digest is unknown (caching off) round-robin over the
        survivors. Returns the number of re-homed requests. A request every
        surviving replica refuses (all at capacity) fails with its twins
        through the dead replica's engine: it counts as ``reroute_failed``
        here and, twins included, as ``failed`` in that replica's metrics,
        and its trace intervals close on that replica's track.
        """
        replica = self._replica(rank)
        if replica.state == REPLICA_DOWN:
            return 0
        replica.state = REPLICA_DOWN
        self.metrics.inc("kills")
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("kill", "router", args={"rank": rank})
        rerouted = 0
        for req in replica.engine.evict_pending():
            targets = (self.preference(req.key) if req.key is not None
                       else self.live_ranks())
            for target in targets:
                try:
                    self.replicas[target].engine.adopt([req])
                except EngineOverloaded:
                    continue
                self.replicas[target].adopted += 1
                rerouted += 1
                if tracer is not None:
                    tracer.instant("reroute", "router",
                                   args={"rid": req.rid, "from": rank,
                                         "to": target})
                break
            else:
                self.metrics.inc("reroute_failed")
                replica.engine._fail([req], EngineOverloaded(
                    f"replica {rank} died and no survivor could adopt its "
                    "backlog", retry_after=0.0))
        self.metrics.inc("rerouted", rerouted)
        return rerouted

    def check(self) -> Dict[int, str]:
        """Health probe: auto-kill replicas whose batcher thread died.

        Only meaningful in threaded mode — a replica that was started but
        whose daemon thread is no longer alive has crashed, and waiting on
        its futures would hang forever; its backlog is re-homed
        immediately. Returns rank -> state after the sweep.
        """
        for replica in self.replicas:
            engine = replica.engine
            if (replica.serving and engine._thread is not None
                    and not engine.is_running):
                self.kill(replica.rank)
        return {r.rank: r.state for r in self.replicas}

    def drain_all(self) -> None:
        """Synchronously run every serving replica's queue dry (DES/tests)."""
        for r in self.replicas:
            if r.serving:
                r.engine.drain()

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict:
        """Router counters + fleet-wide merged metrics + per-replica view.

        ``fleet`` is the *merge* of every serving replica's registry
        (histograms added bucket-wise — see :meth:`Histogram.merge`), so
        ``fleet["latency"]["p99"]`` is the true fleet-wide tail, not an
        average of per-replica percentiles. Fleet cache figures aggregate
        hits/submissions across the sharded per-replica caches.
        """
        merged = MetricsRegistry()
        hits = submitted = items = capacity = 0
        per_replica: Dict[int, dict] = {}
        lane_names: set = set()
        for r in self.replicas:
            merged.merge(r.engine.metrics)
            snap = r.engine.stats()
            cache = snap["result_cache"]
            hits += cache["hits"]
            submitted += r.engine.metrics.counter("submitted").value
            items += cache["items"]
            capacity += cache["capacity"]
            lane_names.update(r.engine.config.lanes)
            per_replica[r.rank] = {
                "state": r.state,
                "routed": r.routed,
                "adopted": r.adopted,
                "queue_depth": snap["queue"]["total"],
                "cache_hits": cache["hits"],
                "completed": r.engine.metrics.counter("completed").value,
                # the replica's own lane-wise queue-wait histograms, so an
                # imbalance (one replica's interactive lane stalling) is
                # visible and not washed out by the fleet merge
                "queue_wait_per_lane": snap["queue"].get("wait_per_lane", {}),
            }
        fleet = merged.snapshot()
        # Fleet-wide per-lane queue wait, merged bucket-wise like every
        # other fleet histogram (true fleet percentiles, never averaged) —
        # the per-lane breakdown engine.stats() has but the merge dropped.
        wait_per_lane = {lane: fleet[f"queue_wait.{lane}"]
                         for lane in sorted(lane_names)
                         if f"queue_wait.{lane}" in fleet}
        return {
            "router": self.metrics.snapshot(),
            "fleet": fleet,
            "queue": {"wait_per_lane": wait_per_lane},
            "result_cache": {"hits": hits, "submitted": submitted,
                             "hit_rate": hits / submitted if submitted else 0.0,
                             "items": items, "capacity": capacity},
            "replicas": per_replica,
            "topology": {"world_size": self.cluster.world_size,
                         "live": self.live_ranks()},
        }

