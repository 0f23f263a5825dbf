"""``repro.serve`` — the inference serving stack.

One scheduler, several adapters:

* :class:`WorkGraphScheduler` (:mod:`.scheduler`) — the single truth for
  inference orchestration: tiles → sequences → micro-batches → stitch.
  Length bucketing, micro-batch formation, compiled per-signature plans
  (:mod:`repro.runtime`) and vectorized map stitching (:mod:`.stitch`)
  live here and nowhere else.
* :class:`Predictor` — the synchronous-drain adapter: cached APF
  preprocessing plus a blocking drain of the work graph.
* :class:`InferenceEngine` — the pump adapter over a shared Predictor:
  ``submit(image) -> Future``, continuous batching with a
  latency-deadline flush, weighted-fair priority lanes, digest-keyed
  result caching, admission control (:class:`EngineOverloaded`), and a
  metrics registry. :mod:`.loadgen` drives it deterministically under a
  simulated clock for CI-stable load tests.
* :class:`FleetRouter` — digest-affinity sharding over N engine replicas
  (:mod:`.router`, assembled by :func:`build_fleet`): rendezvous-hashed
  cache affinity, replica health/drain/kill with re-hash spill, and
  fleet-wide admission control. :func:`run_fleet_load` extends the DES to
  fleet topology (per-replica service models, routing delay, virtual-time
  replica-kill fault injection).
* :class:`~repro.stream.runner.StreamingRunner` (in :mod:`repro.stream`)
  — the bounded macro-tile feed over the same scheduler.
"""

from .engine import BatchReport, EngineConfig, InferenceEngine
from .fleet import FleetConfig, build_fleet
from .loadgen import (Arrival, ReplicaDrain, ReplicaKill, ServiceModel,
                      SimClock, merge_traces, poisson_trace, run_fleet_load,
                      run_load, serial_baseline)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .predictor import Predictor
from .queueing import EngineOverloaded, FairQueue, Request
from .router import (REPLICA_DOWN, REPLICA_DRAINING, REPLICA_UP, FleetRouter,
                     Replica, rendezvous_order)
from .scheduler import (MicroBatch, SequenceNode, TileNode,
                        WorkGraphScheduler, class_map)
from .stitch import stitch_image, stitch_volume

__all__ = [
    "WorkGraphScheduler", "SequenceNode", "MicroBatch", "TileNode",
    "class_map",
    "Predictor", "stitch_image", "stitch_volume",
    "InferenceEngine", "EngineConfig", "BatchReport",
    "FairQueue", "Request", "EngineOverloaded",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "Arrival", "SimClock", "ServiceModel", "poisson_trace", "merge_traces",
    "run_load", "serial_baseline",
    "FleetRouter", "Replica", "rendezvous_order", "FleetConfig",
    "build_fleet", "ReplicaKill", "ReplicaDrain", "run_fleet_load",
    "REPLICA_UP", "REPLICA_DRAINING", "REPLICA_DOWN",
]
