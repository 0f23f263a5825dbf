"""Fleet serving benchmark + CI regression gate (simulated clock).

Drives a :class:`~repro.serve.router.FleetRouter` over N engine replicas
with the deterministic fleet DES
(:func:`~repro.serve.loadgen.run_fleet_load`): real model executions,
virtual service times, bit-exact metrics across runs and hosts.

Four scenarios, all written to ``BENCH_fleet.json`` (atomic) and gated
against the committed ``BENCH_fleet_baseline.json``:

* **scaling** — the same saturating open-loop trace against 1 and 4
  replicas (caching off, round-robin balance). Gate: ≥ 2.5x fleet
  throughput at 4 replicas, within the imbalance-adjusted bound from
  :func:`~repro.perf.serving.fleet_scaling_bound`.
* **affinity** — a repeating-payload trace against a 4-replica fleet and
  a single engine with the *same per-replica* cache budget. Rendezvous
  sharding spreads the key space, so the fleet's effective capacity is
  ~N× and its hit rate must be at least the single engine's.
* **kill_drain** — mid-run fail-stop of one replica plus a drain of
  another. Gates: zero lost requests (completed + rejected == offered,
  no failed futures), backlog re-homed, p99 stays bounded through the
  disruption.
* **drain_identity** — a request set submitted through the fleet and
  drained must be **bit-identical** to ``Predictor.predict_batch`` (and
  therefore to a single engine's drain) on the same set.
"""

import json
import os
import platform
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.data import SyntheticPAIP
from repro.models import ViTSegmenter
from repro.perf import (engine_capacity, fleet_capacity, fleet_scaling_bound,
                        replicas_for_rate, routing_imbalance,
                        write_json_atomic)
from repro.pipeline import PatchPipeline
from repro.serve import (InferenceEngine, Predictor, ReplicaDrain,
                         ReplicaKill, ServiceModel, SimClock, build_fleet,
                         merge_traces, poisson_trace, run_fleet_load,
                         run_load)
from tests.conftest import assert_quiescent

RES = 64
N_IMAGES = 12
SPLIT = 8.0
MODEL = dict(patch_size=4, channels=1, dim=32, depth=2, heads=4, max_len=512)
BUCKET = 32
MAX_BATCH = 8
DEADLINE = 0.02
QUEUE = 64
REPLICAS = 4

N_CLIENTS = 8
ARRIVALS_PER_CLIENT = 20
RATE_PER_CLIENT = 100.0   # total 800/s >> 4-replica capacity: service-bound

SCALING_FLOOR = 2.5       # ISSUE 6 acceptance: 4-replica vs 1-replica ratio
CACHE_ITEMS = 4           # < N_IMAGES: a single engine's LRU must thrash
P99_KILL_BOUND = 1.0      # virtual seconds, through the kill + drain run

HERE = Path(__file__).resolve().parent
RESULT_PATH = HERE / "BENCH_fleet.json"
BASELINE_PATH = HERE / "BENCH_fleet_baseline.json"


def _make_model():
    return ViTSegmenter(rng=np.random.default_rng(0), **MODEL).eval()


def _predictor_factory(model):
    def make(rank):
        pipe = PatchPipeline(patch_size=4, split_value=SPLIT, channels=1,
                             cache_items=4 * N_IMAGES)
        return Predictor(model, pipe, max_batch=MAX_BATCH, bucket=BUCKET)
    return make


def _make_fleet(model, clock, replicas, **overrides):
    opts = dict(flush_deadline=DEADLINE, max_queue=QUEUE,
                result_cache_items=0)
    opts.update(overrides)
    return build_fleet(_predictor_factory(model), replicas=replicas,
                       clock=clock.now, service_model=ServiceModel(), **opts)


def _lat(summary):
    return {k: round(summary[k], 6) for k in ("p50", "p95", "p99", "mean",
                                              "max", "count")}


@pytest.mark.bench
def test_fleet_load_and_regression_gate():
    ds = SyntheticPAIP(RES, N_IMAGES)
    imgs = [ds[i].image for i in range(N_IMAGES)]
    model = _make_model()
    sm = ServiceModel()
    wall_t0 = time.perf_counter()

    # ------------------------------------------------------------------
    # Drain identity: fleet drain == predict_batch, bit for bit
    # ------------------------------------------------------------------
    clock = SimClock()
    router = _make_fleet(model, clock, REPLICAS)
    futs = [router.submit(im) for im in imgs]
    router.drain_all()
    reference = _predictor_factory(model)(0).predict_batch(
        imgs, keys=list(range(N_IMAGES)))
    for fut, ref in zip(futs, reference):
        np.testing.assert_array_equal(fut.result(), ref)

    # ------------------------------------------------------------------
    # Scaling: the same saturating trace against 1 and 4 replicas
    # ------------------------------------------------------------------
    trace = merge_traces(*[
        poisson_trace(RATE_PER_CLIENT, ARRIVALS_PER_CLIENT,
                      seed=1000 + c, n_items=N_IMAGES)
        for c in range(N_CLIENTS)])
    scaling = {}
    imbalance = None
    for n in (1, REPLICAS):
        clock = SimClock()
        router = _make_fleet(model, clock, n)
        report = run_fleet_load(router, trace, imgs, clock)
        assert_quiescent(router)
        scaling[n] = report
        if n == REPLICAS:
            routed = [rep["routed"] for rep in report["per_replica"].values()]
            imbalance = routing_imbalance(routed)
    speedup = scaling[REPLICAS]["throughput"] / scaling[1]["throughput"]

    # capacity-planning view of the same numbers (repro.perf.serving)
    pred = _predictor_factory(model)(0)
    lengths = [pred.bucket_length(len(pred.pipeline.process([im], [i])[0]))
               for i, im in enumerate(imgs)]
    typical_len = int(np.median(lengths))
    offered_rate = N_CLIENTS * RATE_PER_CLIENT
    planning = {
        "typical_length": typical_len,
        "engine_capacity": round(engine_capacity(sm, MAX_BATCH, typical_len), 3),
        "fleet_capacity": round(
            fleet_capacity(sm, MAX_BATCH, typical_len, REPLICAS), 3),
        "offered_rate": offered_rate,
        "routing_imbalance": round(imbalance, 4),
        "scaling_bound": round(fleet_scaling_bound(REPLICAS,
                                                   [rep["routed"] for rep in
                                                    scaling[REPLICAS]
                                                    ["per_replica"].values()]),
                               3),
        "replicas_for_offered": replicas_for_rate(offered_rate, sm,
                                                  MAX_BATCH, typical_len),
    }

    # ------------------------------------------------------------------
    # Affinity: sharded caches vs one engine with the same per-replica
    # budget, on a repeating-payload trace
    # ------------------------------------------------------------------
    aff_trace = merge_traces(*[
        poisson_trace(20.0, 30, seed=5000 + c, n_items=N_IMAGES)
        for c in range(4)])
    clock = SimClock()
    aff_router = _make_fleet(model, clock, REPLICAS,
                             result_cache_items=CACHE_ITEMS)
    aff_fleet = run_fleet_load(aff_router, aff_trace, imgs, clock)
    assert_quiescent(aff_router)
    clock = SimClock()
    single = InferenceEngine(_predictor_factory(model)(0), clock=clock.now,
                             service_model=ServiceModel(),
                             flush_deadline=DEADLINE, max_queue=QUEUE,
                             result_cache_items=CACHE_ITEMS)
    aff_single = run_load(single, aff_trace, imgs, clock)
    assert_quiescent(single)
    single_hit_rate = aff_single["stats"]["result_cache"]["hit_rate"]

    # ------------------------------------------------------------------
    # Kill + drain: fail-stop rank 1 mid-run, drain rank 2 later
    # ------------------------------------------------------------------
    # near-capacity offered load, so replicas hold real backlogs when the
    # kill fires and the re-homing path is actually exercised
    kd_trace = merge_traces(*[
        poisson_trace(100.0, 30, seed=7000 + c, n_items=N_IMAGES)
        for c in range(4)])
    ordered = sorted(kd_trace, key=lambda a: (a.time, a.lane, a.item))
    kill_t = ordered[len(ordered) // 3].time
    drain_t = ordered[2 * len(ordered) // 3].time
    clock = SimClock()
    kd_router = _make_fleet(model, clock, REPLICAS,
                            result_cache_items=CACHE_ITEMS)
    kd = run_fleet_load(kd_router, kd_trace, imgs, clock,
                        events=[ReplicaKill(kill_t, 1),
                                ReplicaDrain(drain_t, 2)])
    assert_quiescent(kd_router)

    # ------------------------------------------------------------------
    # Report + gates
    # ------------------------------------------------------------------
    result = {
        "environment": {"cpus": os.cpu_count() or 1,
                        "machine": platform.machine()},
        "service_model": asdict(sm),
        "workload": {"images": N_IMAGES, "resolution": RES,
                     "split_value": SPLIT, "bucket": BUCKET,
                     "max_batch": MAX_BATCH, "flush_deadline": DEADLINE,
                     "max_queue": QUEUE, "replicas": REPLICAS,
                     "clients": N_CLIENTS,
                     "rate_per_client": RATE_PER_CLIENT, **MODEL},
        "capacity_planning": planning,
        "scaling": {
            "throughput_1": round(scaling[1]["throughput"], 3),
            "throughput_n": round(scaling[REPLICAS]["throughput"], 3),
            "speedup": round(speedup, 3),
            "offered": scaling[REPLICAS]["offered"],
            "completed_1": scaling[1]["requests_completed"],
            "completed_n": scaling[REPLICAS]["requests_completed"],
            "rejected_1": scaling[1]["rejected_submissions"],
            "rejected_n": scaling[REPLICAS]["rejected_submissions"],
            "latency_n": _lat(scaling[REPLICAS]["latency"]),
            "routing_imbalance": round(imbalance, 4),
        },
        "affinity": {
            "fleet_hit_rate": round(aff_fleet["cache_hit_rate"], 4),
            "single_hit_rate": round(single_hit_rate, 4),
            "cache_items_per_replica": CACHE_ITEMS,
            "fleet_throughput": round(aff_fleet["throughput"], 3),
            "single_throughput": round(aff_single["throughput"], 3),
            "spilled": aff_fleet["spilled"],
        },
        "kill_drain": {
            "offered": kd["offered"],
            "completed": kd["requests_completed"],
            "rejected": kd["rejected_submissions"],
            "failed": kd["failed"],
            "rerouted": kd["rerouted"],
            "kills": kd["kills"],
            "drains": kd["drains"],
            "throughput": round(kd["throughput"], 3),
            "latency": _lat(kd["latency"]),
            "replica_states": {rank: rep["state"] for rank, rep
                               in kd["per_replica"].items()},
        },
        "real_seconds": round(time.perf_counter() - wall_t0, 3),
    }
    write_json_atomic(RESULT_PATH, result)
    print("\n" + json.dumps(result, indent=2))

    # -- acceptance floors (ISSUE 6) -----------------------------------
    sc = result["scaling"]
    assert sc["speedup"] >= SCALING_FLOOR, (
        f"4-replica fleet is only {sc['speedup']}x a single engine "
        f"({sc['throughput_n']}/s vs {sc['throughput_1']}/s)")
    # the DES cannot beat what the shard balance permits (plus slack for
    # the single engine's queue-bound inefficiency inflating the ratio)
    assert sc["speedup"] <= 1.5 * REPLICAS
    aff = result["affinity"]
    assert aff["fleet_hit_rate"] >= aff["single_hit_rate"], (
        "digest sharding must not lose to one engine with the same "
        f"per-replica cache: {aff['fleet_hit_rate']} < "
        f"{aff['single_hit_rate']}")
    kd_r = result["kill_drain"]
    assert kd_r["failed"] == 0, "a replica kill must not fail futures"
    assert kd_r["completed"] + kd_r["rejected"] == kd_r["offered"], \
        "every offered request must be accounted for through kill + drain"
    assert kd_r["kills"] == 1 and kd_r["drains"] == 1
    assert kd_r["rerouted"] > 0, \
        "the kill must re-home a live backlog, not an empty queue"
    assert kd_r["replica_states"][1] == "down"
    assert kd_r["replica_states"][2] == "draining"
    assert kd_r["latency"]["p99"] <= P99_KILL_BOUND, (
        f"p99 {kd_r['latency']['p99']}s through kill+drain exceeds "
        f"{P99_KILL_BOUND}s")

    # -- regression gate vs committed baseline (>2x slowdown fails) ----
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        for section, key in [("scaling", "throughput_n"),
                             ("scaling", "speedup"),
                             ("kill_drain", "throughput")]:
            floor = baseline[section][key] / 2.0
            got = result[section][key]
            assert got >= floor, (
                f"{section}.{key} regressed >2x: {got} vs baseline "
                f"{baseline[section][key]} (floor {floor})")
        hit_floor = baseline["affinity"]["fleet_hit_rate"] / 2.0
        assert aff["fleet_hit_rate"] >= hit_floor, (
            f"affinity hit rate regressed >2x: {aff['fleet_hit_rate']} vs "
            f"baseline {baseline['affinity']['fleet_hit_rate']}")
        p99_ceiling = baseline["kill_drain"]["latency"]["p99"] * 2.0
        assert kd_r["latency"]["p99"] <= p99_ceiling, (
            f"kill+drain p99 regressed >2x: {kd_r['latency']['p99']} vs "
            f"baseline {baseline['kill_drain']['latency']['p99']}")
