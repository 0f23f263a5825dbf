"""``repro.serve`` — the inference serving stack.

One inference core, several front ends:

* :class:`Predictor` (:mod:`.predictor`) — the single truth for
  inference orchestration: tiles → sequences → micro-batches → stitch.
  Cached APF preprocessing, length bucketing, micro-batch formation,
  compiled per-signature plans (:mod:`repro.runtime`) and the drain live
  here and nowhere else; stitching calls :func:`repro.patching.stitch`,
  the one leaf-to-pixel transfer. The graph's nodes are in
  :mod:`.scheduler`. ``predict_batch`` is the synchronous drain.
* :class:`InferenceEngine` — the pump over a shared Predictor:
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
  — the bounded macro-tile feed over the same Predictor.
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
from .scheduler import MicroBatch, SequenceNode, TileNode, class_map

__all__ = [
    "SequenceNode", "MicroBatch", "TileNode",
    "class_map",
    "Predictor",
    "InferenceEngine", "EngineConfig", "BatchReport",
    "FairQueue", "Request", "EngineOverloaded",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "Arrival", "SimClock", "ServiceModel", "poisson_trace", "merge_traces",
    "run_load", "serial_baseline",
    "FleetRouter", "Replica", "rendezvous_order", "FleetConfig",
    "build_fleet", "ReplicaKill", "ReplicaDrain", "run_fleet_load",
    "REPLICA_UP", "REPLICA_DRAINING", "REPLICA_DOWN",
]
