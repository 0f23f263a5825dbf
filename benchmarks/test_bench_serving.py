"""Serving load benchmark + CI regression gate (simulated clock).

Drives the :class:`~repro.serve.engine.InferenceEngine` with seeded
open-loop arrival traces under the deterministic virtual clock
(:mod:`repro.serve.loadgen`): the engine executes the *real* model on
every batch, but service times come from the calibrated
:class:`ServiceModel`, so throughput and tail latency are bit-exact across
runs and hosts — real-time load tests are hopeless on shared 1-CPU CI.

Four scenarios, all written to ``BENCH_serving.json`` (atomic) and gated
against the committed ``BENCH_serving_baseline.json``:

* **continuous_batching** — 8 open-loop clients saturating the engine.
  Gates: throughput ≥ 2x the serial ``predict_image`` baseline on the
  same trace, p99 latency bounded, zero rejections, streamed results
  match ``Predictor.predict_batch`` to float tolerance.
* **drain_identity** — the acceptance contract: a request set submitted
  and drained must be **bit-identical** to ``predict_batch`` on the same
  set (FIFO bucket chunks of ``max_batch`` reproduce its grouping).
* **overload** — 3x-capacity burst against a small queue: admission
  control must shed (rejections > 0, retry-after hints > 0) while p99
  for *admitted* requests stays bounded by queue depth.
* **lanes** — interactive stream + bulk volume jobs: weighted fairness
  must keep interactive p95 at or below bulk p95.

Virtual metrics are deterministic, so the regression guard is the usual
>2x rule with plenty of slack for numpy-version drift in trace RNG.
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
from repro.perf import (batching_speedup_bound, engine_capacity,
                        serial_capacity, utilization, write_json_atomic)
from repro.pipeline import PatchPipeline
from repro.serve import (Arrival, InferenceEngine, Predictor, ServiceModel,
                         SimClock, merge_traces, poisson_trace, run_load,
                         serial_baseline)
from repro.train.tasks import prepare_image
from tests.conftest import assert_quiescent

RES = 64
N_IMAGES = 12
SPLIT = 8.0
MODEL = dict(patch_size=4, channels=1, dim=32, depth=2, heads=4, max_len=512)
BUCKET = 32
MAX_BATCH = 8
DEADLINE = 0.02
QUEUE = 64

N_CLIENTS = 8
ARRIVALS_PER_CLIENT = 12
RATE_PER_CLIENT = 12.0          # total 96/s ~ engine capacity (see ServiceModel)

P99_BOUND = 1.0                 # virtual seconds, saturated open-loop regime

HERE = Path(__file__).resolve().parent
RESULT_PATH = HERE / "BENCH_serving.json"
BASELINE_PATH = HERE / "BENCH_serving_baseline.json"


def _make_model():
    return ViTSegmenter(rng=np.random.default_rng(0), **MODEL).eval()


def _make_predictor(model):
    pipe = PatchPipeline(patch_size=4, split_value=SPLIT, channels=1,
                         cache_items=4 * N_IMAGES)
    return Predictor(model, pipe, max_batch=MAX_BATCH, bucket=BUCKET)


def _make_engine(predictor, clock, **overrides):
    opts = dict(flush_deadline=DEADLINE, max_queue=QUEUE,
                result_cache_items=0)   # honest throughput: no result reuse
    opts.update(overrides)
    return InferenceEngine(predictor, clock=clock.now,
                           service_model=ServiceModel(), **opts)


def _lat(summary):
    return {k: round(summary[k], 6) for k in ("p50", "p95", "p99", "mean",
                                              "max", "count")}


@pytest.mark.bench
def test_serving_load_and_regression_gate():
    ds = SyntheticPAIP(RES, N_IMAGES)
    imgs = [ds[i].image for i in range(N_IMAGES)]
    model = _make_model()
    sm = ServiceModel()
    wall_t0 = time.perf_counter()

    # ------------------------------------------------------------------
    # Drain identity: engine == predict_batch, bit for bit
    # ------------------------------------------------------------------
    pred = _make_predictor(model)
    clock = SimClock()
    engine = _make_engine(pred, clock)
    warm = engine.warmup()          # pre-compile the bucket ladder
    futs = [engine.submit(im) for im in imgs]
    engine.drain()
    reference = _make_predictor(model).predict_batch(
        imgs, keys=list(range(N_IMAGES)))
    for fut, ref in zip(futs, reference):
        np.testing.assert_array_equal(fut.result(), ref)

    # ------------------------------------------------------------------
    # Continuous batching under 8 open-loop clients
    # ------------------------------------------------------------------
    clock = SimClock()
    pred = _make_predictor(model)
    engine = _make_engine(pred, clock)
    trace = merge_traces(*[
        poisson_trace(RATE_PER_CLIENT, ARRIVALS_PER_CLIENT,
                      seed=1000 + c, n_items=N_IMAGES)
        for c in range(N_CLIENTS)])
    report = run_load(engine, trace, imgs, clock)
    assert_quiescent(engine)

    ordered = sorted(trace, key=lambda a: (a.time, a.lane, a.item))
    lengths = [pred.bucket_length(len(pred.pipeline.process(
                   [imgs[a.item]], [a.item])[0]))
               for a in ordered]
    serial = serial_baseline(trace, lengths, sm)
    speedup = report["throughput"] / serial["throughput"]

    # capacity-planning view of the same numbers (repro.perf.serving)
    typical_len = int(np.median(lengths))
    capacity = engine_capacity(sm, MAX_BATCH, typical_len)
    offered_rate = N_CLIENTS * RATE_PER_CLIENT
    planning = {
        "typical_length": typical_len,
        "engine_capacity": round(capacity, 3),
        "serial_capacity": round(serial_capacity(sm, typical_len), 3),
        "speedup_bound": round(
            batching_speedup_bound(sm, MAX_BATCH, typical_len), 3),
        "offered_rate": offered_rate,
        "utilization": round(utilization(offered_rate, capacity), 3),
    }

    # post-load results still agree with predict_batch to float tolerance
    # (chunk compositions depend on arrival timing; see engine docstring)
    futures = [engine.submit(im) for im in imgs]
    engine.drain()
    for fut, ref in zip(futures, reference):
        np.testing.assert_allclose(fut.result(), ref, atol=1e-5)

    # ------------------------------------------------------------------
    # Overload: 3x capacity into a small queue -> shed, bounded p99
    # ------------------------------------------------------------------
    clock = SimClock()
    pred_over = _make_predictor(model)
    over_engine = _make_engine(pred_over, clock, max_queue=16)
    over_trace = merge_traces(*[
        poisson_trace(3 * RATE_PER_CLIENT, ARRIVALS_PER_CLIENT,
                      seed=2000 + c, n_items=N_IMAGES)
        for c in range(N_CLIENTS)])
    over = run_load(over_engine, over_trace, imgs, clock)
    assert_quiescent(over_engine)

    # ------------------------------------------------------------------
    # Lanes: contended interactive stream + bulk volume jobs, weighted 4:1
    # ------------------------------------------------------------------
    n_vols, n_slices = 4, 8
    volumes = [np.stack([prepare_image(imgs[(k + j) % N_IMAGES], 1)[0]
                         for j in range(n_slices)]) for k in range(n_vols)]
    items = imgs + volumes
    clock = SimClock()
    pred_lane = _make_predictor(model)
    lane_engine = _make_engine(pred_lane, clock)
    lane_trace = merge_traces(
        *[poisson_trace(16.0, ARRIVALS_PER_CLIENT,
                        seed=3000 + c, n_items=N_IMAGES)
          for c in range(6)],
        [Arrival(a.time, N_IMAGES + i, "bulk", "volume")
         for i, a in enumerate(poisson_trace(6.0, n_vols, seed=3999))])
    lanes = run_load(lane_engine, lane_trace, items, clock)
    assert_quiescent(lane_engine)

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
                     "max_queue": QUEUE, "clients": N_CLIENTS,
                     "rate_per_client": RATE_PER_CLIENT, **MODEL},
        "warmup": {k: round(v, 3) if isinstance(v, float) else v
                   for k, v in warm.items()},
        "capacity_planning": planning,
        "continuous_batching": {
            "offered": report["offered"],
            "completed": report["requests_completed"],
            "rejected": report["rejected_submissions"],
            "throughput": round(report["throughput"], 3),
            "serial_throughput": round(serial["throughput"], 3),
            "speedup_vs_serial": round(speedup, 3),
            "mean_batch_size": round(report["mean_batch_size"], 3),
            "batches": report["batches"],
            "latency": _lat(report["latency"]),
            "serial_p99": round(serial["p99"], 6),
        },
        "overload": {
            "offered": over["offered"],
            "rejected": over["rejected_submissions"],
            "completed": over["requests_completed"],
            "throughput": round(over["throughput"], 3),
            "mean_retry_after": round(over["mean_retry_after"], 6),
            "latency": _lat(over["latency"]),
        },
        "lanes": {
            "interactive": _lat(lanes["latency_per_lane"]["interactive"]),
            "bulk": _lat(lanes["latency_per_lane"]["bulk"]),
            "volumes": n_vols,
            "slices_per_volume": n_slices,
        },
        "real_seconds": round(time.perf_counter() - wall_t0, 3),
    }
    write_json_atomic(RESULT_PATH, result)
    print("\n" + json.dumps(result, indent=2))

    # -- acceptance floors (ISSUE 4) -----------------------------------
    cb = result["continuous_batching"]
    assert cb["rejected"] == 0, "primary scenario must not shed"
    assert cb["speedup_vs_serial"] >= 2.0, (
        f"engine throughput {cb['throughput']}/s is only "
        f"{cb['speedup_vs_serial']}x the serial predict_image baseline "
        f"({cb['serial_throughput']}/s) at concurrency {N_CLIENTS}")
    assert cb["latency"]["p99"] <= P99_BOUND, (
        f"p99 {cb['latency']['p99']}s exceeds the {P99_BOUND}s bound")
    # the measured speedup can exceed the single-length bound slightly
    # (shorter buckets batch more favorably) but not wildly
    assert cb["speedup_vs_serial"] <= 1.5 * planning["speedup_bound"]
    assert result["overload"]["rejected"] > 0, \
        "overload burst must trigger admission control"
    assert result["overload"]["mean_retry_after"] > 0
    over_p99_bound = (QUEUE / MAX_BATCH + 2) * sm.cost(MAX_BATCH, max(lengths))
    assert result["overload"]["latency"]["p99"] <= over_p99_bound, (
        "admitted-request p99 must stay bounded by queue depth under "
        f"overload: {result['overload']['latency']['p99']} > {over_p99_bound}")
    assert (result["lanes"]["interactive"]["p95"]
            <= result["lanes"]["bulk"]["p95"]), \
        "weighted fairness should protect the interactive lane's tail"

    # -- regression gate vs committed baseline (>2x slowdown fails) ----
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        for section, key in [("continuous_batching", "throughput"),
                             ("continuous_batching", "speedup_vs_serial"),
                             ("overload", "throughput")]:
            floor = baseline[section][key] / 2.0
            got = result[section][key]
            assert got >= floor, (
                f"{section}.{key} regressed >2x: {got} vs baseline "
                f"{baseline[section][key]} (floor {floor})")
        p99_ceiling = baseline["continuous_batching"]["latency"]["p99"] * 2.0
        assert cb["latency"]["p99"] <= p99_ceiling, (
            f"p99 regressed >2x: {cb['latency']['p99']} vs baseline "
            f"{baseline['continuous_batching']['latency']['p99']}")
