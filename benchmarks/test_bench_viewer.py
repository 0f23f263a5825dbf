"""Interactive viewer benchmark + CI regression gate (simulated clock).

Drives the pyramid tile service (`repro.pyramid`) with seeded pan/zoom
session traces over a 16K² virtual WSI, through a DES-configured engine
(and a 2-replica fleet for the fault scenario). Real model executions,
virtual timeline — bit-exact numbers across runs and hosts.

Scenarios, all written to ``BENCH_viewer.json`` (atomic) and gated
against the committed ``BENCH_viewer_baseline.json``:

* **priority vs fifo** — the same 8-session trace served under
  viewport-priority scheduling (center-out dispatch + stale-viewport
  cancellation + hilbert-ordered prefetch) and under the row-major FIFO
  control. Gate: p99 time-to-first-tile strictly better under priority,
  and no session's *final* viewport ever starves (abandoned mid-pan
  viewports may — that is stale cancellation working as intended).
* **shared cache** — the 8 overlapping sessions vs a single session on
  the same event budget. Sharing = digest-cache hits + in-flight joins
  per visible-tile lookup; the multi-session rate must not lose.
* **identity** — every tile the service cached during the priority run
  is digest-checked bit-identical to ``Predictor.predict_image`` on the
  same pixels (the engine runs ``max_batch=1``, so each tile executes
  the same (1, L) plan signature as the direct call).
* **fleet kill-mid-pan** — 2 replicas, fail-stop one mid-trace while
  cancellations are in flight. Gates: failed=0, leaked=0, nothing
  outstanding (the ISSUE 9 cleanliness acceptance).
* **locality** — Morton-vs-Hilbert mean successive tile distance on the
  viewer's working grid (the delta the hilbert prefetch ordering buys).
"""

import json
import os
import platform
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.models import ViTSegmenter
from repro.perf import write_json_atomic
from repro.pipeline import PatchPipeline
from repro.pyramid import PyramidService, TilePyramid, run_viewer_load, \
    viewer_trace
from repro.quadtree.hilbert import hilbert_sort_order
from repro.quadtree.morton import morton_sort_order
from repro.serve import (InferenceEngine, Predictor, ReplicaKill,
                         ServiceModel, SimClock, build_fleet)
from repro.stream.source import VirtualWSISource
from tests.conftest import assert_quiescent

WSI_RES = 16384
TILE = 256
MAX_LEVEL = 3
MODEL = dict(patch_size=4, channels=1, dim=32, depth=2, heads=4, max_len=512)
SPLIT = 8.0
BUCKET = 32
DEADLINE = 0.02
QUEUE = 64

SESSIONS = 8
EVENTS_PER_SESSION = 6
VIEWPORT = (512, 512)
THINK_MEAN = 0.08
SEED = 23
PREFETCH = 4
CACHE_ITEMS = 512

HERE = Path(__file__).resolve().parent
RESULT_PATH = HERE / "BENCH_viewer.json"
BASELINE_PATH = HERE / "BENCH_viewer_baseline.json"


def _make_model():
    return ViTSegmenter(rng=np.random.default_rng(0), **MODEL).eval()


def _predictor(model):
    pipe = PatchPipeline(patch_size=4, split_value=SPLIT, channels=1,
                         cache_items=64)
    # max_batch=1: every tile runs as a (1, L) plan — bit-identical to
    # predict_image on the same pixels, the identity gate's foundation
    return Predictor(model, pipe, max_batch=1, bucket=BUCKET)


def _pyramid():
    # one pyramid is shared by every scenario arm: tile pixels are a pure
    # function of (source, address), so sharing the synthesis LRU and the
    # digest memo across arms only saves wall time, never leaks results
    src = VirtualWSISource(WSI_RES, seed=SEED, tile=TILE, cache_tiles=32)
    return TilePyramid(src, tile=TILE, max_level=MAX_LEVEL, cache_tiles=128)


def _engine_service(model, pyramid, **svc_kw):
    clock = SimClock()
    engine = InferenceEngine(_predictor(model), clock=clock.now,
                             service_model=ServiceModel(),
                             flush_deadline=DEADLINE, max_queue=QUEUE,
                             result_cache_items=64)
    svc = PyramidService(pyramid, engine, clock=clock.now,
                         prefetch_tiles=PREFETCH, cache_items=CACHE_ITEMS,
                         **svc_kw)
    return svc, clock


def _fleet_service(model, pyramid, replicas=2, **svc_kw):
    clock = SimClock()
    router = build_fleet(lambda rank: _predictor(model), replicas=replicas,
                         clock=clock.now, service_model=ServiceModel(),
                         flush_deadline=DEADLINE, max_queue=QUEUE,
                         result_cache_items=64)
    svc = PyramidService(pyramid, router, clock=clock.now,
                         prefetch_tiles=PREFETCH, cache_items=CACHE_ITEMS,
                         **svc_kw)
    return svc, clock


def _trace(sessions=SESSIONS, events=EVENTS_PER_SESSION):
    return viewer_trace((WSI_RES, WSI_RES), MAX_LEVEL + 1, sessions=sessions,
                        events_per_session=events, viewport=VIEWPORT,
                        tile=TILE, seed=SEED, think_mean=THINK_MEAN,
                        hotspots=3)


def _shared_rate(report):
    return (report["cache_hits"] + report["joined"]) \
        / max(report["tiles_visible"], 1)


def _final_starved(report):
    """Starved viewports that were their session's LAST viewport.

    A starved *superseded* viewport is cancellation doing its job — the
    viewer had already panned away, so its tiles were cancelled (or its
    submissions shed) in favor of where the viewer actually is. A starved
    *final* viewport is a user staring at a blank screen: always a defect.
    """
    last = {}
    for view in report["reports"]:
        prev = last.get(view.session)
        if prev is None or view.time > prev.time:
            last[view.session] = view
    return sum(1 for view in report["reports"]
               if view.time_to_first_tile() is None
               and last[view.session] is view)


def _summary(report):
    return {
        "viewports": report["viewports"],
        "tiles_visible": report["tiles_visible"],
        "cache_hits": report["cache_hits"],
        "joined": report["joined"],
        "submitted": report["submitted"],
        "rejected": report["rejected"],
        "cancelled_stale": report["cancelled_stale"],
        "prefetch_submitted": report["prefetch_submitted"],
        "prefetch_rejected": report["prefetch_rejected"],
        "starved_viewports": report["starved_viewports"],
        "final_starved": _final_starved(report),
        "failed": report["failed"],
        "leaked": report["leaked"],
        "shared_rate": round(_shared_rate(report), 4),
        "tile_cache_hit_rate": round(
            report["service"]["tile_cache"]["hit_rate"], 4),
        "makespan": round(report["makespan"], 4),
        "ttft": {k: (round(v, 6) if isinstance(v, float) else v)
                 for k, v in report["ttft"].items()},
    }


def _grid_locality(n):
    """Mean successive Euclidean distance over an n x n tile grid."""
    ys, xs = np.mgrid[0:n, 0:n]
    ys, xs = ys.ravel(), xs.ravel()

    def mean_step(order):
        return float(np.hypot(np.diff(ys[order].astype(float)),
                              np.diff(xs[order].astype(float))).mean())

    return {"hilbert": mean_step(hilbert_sort_order(ys, xs)),
            "morton": mean_step(morton_sort_order(ys, xs))}


@pytest.mark.bench
def test_viewer_load_and_regression_gate():
    model = _make_model()
    pyramid = _pyramid()
    trace = _trace()
    wall_t0 = time.perf_counter()

    # ------------------------------------------------------------------
    # Priority vs FIFO on the same trace
    # ------------------------------------------------------------------
    svc_p, clock = _engine_service(model, pyramid, policy="priority")
    priority = run_viewer_load(svc_p, trace, clock)
    assert_quiescent(svc_p)
    svc_f, clock = _engine_service(model, pyramid, policy="fifo")
    fifo = run_viewer_load(svc_f, trace, clock)
    assert_quiescent(svc_f)

    # ------------------------------------------------------------------
    # Identity: every cached tile == direct single-image prediction
    # ------------------------------------------------------------------
    reference = _predictor(model)
    checked = 0
    for report in priority["reports"]:
        for task in report.tasks:
            value = svc_p.cache.peek(task.digest)
            if value is None:
                continue
            ref = reference.predict_image(
                svc_p.pyramid.tile_pixels(task.tile))
            np.testing.assert_array_equal(value, ref)
            checked += 1

    # ------------------------------------------------------------------
    # Shared cache: 8 overlapping sessions vs 1 session, same budget
    # ------------------------------------------------------------------
    svc_s, clock = _engine_service(model, pyramid, policy="priority")
    single = run_viewer_load(
        svc_s, _trace(sessions=1, events=SESSIONS * EVENTS_PER_SESSION),
        clock)
    assert_quiescent(svc_s)

    # ------------------------------------------------------------------
    # Fleet kill mid-pan: cancellations in flight, a replica dies
    # ------------------------------------------------------------------
    kill_t = trace[len(trace) // 2].time
    svc_k, clock = _fleet_service(model, pyramid, policy="priority")
    kill = run_viewer_load(svc_k, trace, clock,
                           events=[ReplicaKill(kill_t, 0)])
    assert_quiescent(svc_k)

    # the viewers' working grid: the level-2 tile grid (start level)
    locality = _grid_locality((WSI_RES >> 2) // TILE)

    result = {
        "environment": {"cpus": os.cpu_count() or 1,
                        "machine": platform.machine()},
        "service_model": asdict(ServiceModel()),
        "workload": {
            "wsi_resolution": WSI_RES, "tile": TILE,
            "pyramid": svc_p.pyramid.describe(),
            "sessions": SESSIONS, "events_per_session": EVENTS_PER_SESSION,
            "viewport": list(VIEWPORT), "think_mean": THINK_MEAN,
            "seed": SEED, "prefetch_tiles": PREFETCH,
            "tile_cache_items": CACHE_ITEMS, "split_value": SPLIT,
            "bucket": BUCKET, "max_batch": 1, "flush_deadline": DEADLINE,
            "max_queue": QUEUE, **MODEL,
        },
        "priority": _summary(priority),
        "fifo": _summary(fifo),
        "comparison": {
            "p99_ttft_priority": round(priority["ttft"]["p99"], 6),
            "p99_ttft_fifo": round(fifo["ttft"]["p99"], 6),
            "p99_improvement": round(
                fifo["ttft"]["p99"] / max(priority["ttft"]["p99"], 1e-9), 4),
        },
        "shared_cache": {
            "multi_session_rate": round(_shared_rate(priority), 4),
            "single_session_rate": round(_shared_rate(single), 4),
            "single_session": _summary(single),
        },
        "identity": {"tiles_checked": checked},
        "fleet_kill": {
            **_summary(kill),
            "kills": kill["backend"]["router"]["kills"],
            "rerouted": kill["backend"]["router"].get("rerouted", 0),
            "outstanding": kill["outstanding"],
        },
        "locality": {
            **{k: round(v, 4) for k, v in locality.items()},
            "morton_over_hilbert": round(
                locality["morton"] / locality["hilbert"], 4),
            "prefetch_order": svc_p.prefetch_order,
        },
        "real_seconds": round(time.perf_counter() - wall_t0, 3),
    }
    write_json_atomic(RESULT_PATH, result)
    print("\n" + json.dumps(result, indent=2))

    # -- acceptance gates (ISSUE 9) ------------------------------------
    comp = result["comparison"]
    assert comp["p99_ttft_priority"] < comp["p99_ttft_fifo"], (
        "viewport priority must strictly beat FIFO on p99 TTFT: "
        f"{comp['p99_ttft_priority']} vs {comp['p99_ttft_fifo']}")
    # Starvation audit: under priority, stale cancellation abandons
    # viewports the session has already panned away from — those starve
    # by design (and their exclusion from the percentile is the benefit,
    # not flattery). What may NEVER starve is a session's final viewport:
    # the user is still looking at it, so a blank screen there is a bug
    # in either arm. A loose ceiling keeps abandonment honest overall.
    for arm in ("priority", "fifo"):
        assert result[arm]["final_starved"] == 0, (
            f"{arm}: a session's final viewport never landed a tile "
            f"({result[arm]['final_starved']} blank screens)")
        assert result[arm]["starved_viewports"] <= \
            result[arm]["viewports"] // 4, \
            f"{arm}: too many starved viewports to trust the percentile"
    assert result["priority"]["cancelled_stale"] > 0, \
        "the trace must actually exercise stale-viewport cancellation"
    assert result["fifo"]["cancelled_stale"] == 0
    for arm in ("priority", "fifo"):
        assert result[arm]["failed"] == 0 and result[arm]["leaked"] == 0

    shared = result["shared_cache"]
    assert shared["multi_session_rate"] >= shared["single_session_rate"], (
        "cross-session sharing must not lose to a single session: "
        f"{shared['multi_session_rate']} < {shared['single_session_rate']}")

    assert result["identity"]["tiles_checked"] > 0, \
        "the identity gate must check a non-trivial tile set"

    fk = result["fleet_kill"]
    assert fk["kills"] == 1
    assert fk["failed"] == 0, "a replica kill must not fail tile futures"
    assert fk["leaked"] == 0 and fk["outstanding"] == 0, \
        "kill-mid-pan must leave no orphaned in-flight tiles"

    loc = result["locality"]
    assert loc["hilbert"] < loc["morton"], \
        "hilbert ordering must improve tile locality over morton"

    # -- regression gate vs committed baseline (>2x fails) -------------
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        p99_ceiling = baseline["comparison"]["p99_ttft_priority"] * 2.0
        assert comp["p99_ttft_priority"] <= p99_ceiling, (
            f"priority p99 TTFT regressed >2x: {comp['p99_ttft_priority']} "
            f"vs baseline {baseline['comparison']['p99_ttft_priority']}")
        improve_floor = baseline["comparison"]["p99_improvement"] / 2.0
        assert comp["p99_improvement"] >= improve_floor, (
            f"priority-over-FIFO advantage regressed >2x: "
            f"{comp['p99_improvement']} vs baseline "
            f"{baseline['comparison']['p99_improvement']}")
        rate_floor = baseline["shared_cache"]["multi_session_rate"] / 2.0
        assert shared["multi_session_rate"] >= rate_floor, (
            f"shared-cache rate regressed >2x: "
            f"{shared['multi_session_rate']} vs baseline "
            f"{baseline['shared_cache']['multi_session_rate']}")
        makespan_ceiling = baseline["priority"]["makespan"] * 2.0
        assert result["priority"]["makespan"] <= makespan_ceiling, (
            f"viewer makespan regressed >2x: "
            f"{result['priority']['makespan']} vs baseline "
            f"{baseline['priority']['makespan']}")
