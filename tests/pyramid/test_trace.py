"""Tests for viewer traces and the viewer DES driver, including the
kill-mid-pan cleanliness gate (failed=0, leaked=0)."""

import numpy as np
import pytest

from repro.models.vit import ViTSegmenter
from repro.pipeline import PatchPipeline
from repro.pyramid import (PyramidService, TilePyramid, ViewportEvent,
                           run_viewer_load, viewer_trace)
from repro.serve import (InferenceEngine, Predictor, ReplicaDrain,
                         ReplicaKill, ServiceModel, SimClock, build_fleet)
from repro.stream.source import VirtualWSISource

RES = 1024
TILE = 32


def _pyramid():
    src = VirtualWSISource(RES, seed=7, tile=256, cache_tiles=8)
    return TilePyramid(src, tile=TILE, max_level=3)


def _model():
    return ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1, heads=2,
                        max_len=256, rng=np.random.default_rng(1)).eval()


def _predictor(model):
    pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                         cache_items=64)
    return Predictor(model, pipe, max_batch=1, bucket=16)


def _engine_service(**kw):
    clock = SimClock()
    engine = InferenceEngine(_predictor(_model()), clock=clock.now,
                             service_model=ServiceModel(), max_queue=64,
                             result_cache_items=64)
    svc = PyramidService(_pyramid(), engine, clock=clock.now, **kw)
    return svc, clock


def _fleet_service(replicas=2, **kw):
    clock = SimClock()
    model = _model()
    router = build_fleet(lambda rank: _predictor(model), replicas=replicas,
                         clock=clock.now, service_model=ServiceModel(),
                         max_queue=64, result_cache_items=64)
    svc = PyramidService(_pyramid(), router, clock=clock.now, **kw)
    return svc, clock


def _trace(**kw):
    args = dict(sessions=3, events_per_session=5, viewport=(64, 64),
                tile=TILE, seed=11)
    args.update(kw)
    return viewer_trace((RES, RES), 4, **args)


class TestViewerTrace:
    def test_deterministic(self):
        assert _trace() == _trace()
        assert _trace(seed=12) != _trace()

    def test_shape_and_bounds(self):
        events = _trace(sessions=4, events_per_session=6)
        assert len(events) == 24
        assert len({e.session for e in events}) == 4
        times = [e.time for e in events]
        assert times == sorted(times)
        for e in events:
            assert 0 <= e.level < 4
            lh, lw = RES >> e.level, RES >> e.level
            assert 0 <= e.origin[0] <= lh - e.size[0]
            assert 0 <= e.origin[1] <= lw - e.size[1]

    def test_sessions_overlap_on_hotspots(self):
        # The million-user shape: distinct sessions revisit shared regions.
        events = _trace(sessions=6, events_per_session=8, hotspots=2)
        first = {}
        for e in events:
            first.setdefault(e.session, (e.level, e.origin))
        starts = set(first.values())
        assert len(starts) < 6                  # some sessions collide

    def test_levels_move(self):
        events = _trace(sessions=6, events_per_session=10)
        assert len({e.level for e in events}) > 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            _trace(sessions=0)
        with pytest.raises(ValueError):
            _trace(start_level=7)
        with pytest.raises(ValueError):
            viewer_trace((RES, RES), 0)


class TestRunViewerLoad:
    def test_engine_run_clean_and_deterministic(self):
        def run():
            svc, clock = _engine_service(prefetch_tiles=2)
            return run_viewer_load(svc, _trace(), clock)

        one, two = run(), run()
        assert one["failed"] == 0 and one["leaked"] == 0
        assert one["outstanding"] == 0
        assert one["viewports"] == len(_trace())
        for key in ("viewports", "cache_hits", "joined", "submitted",
                    "cancelled_stale", "makespan"):
            assert one[key] == two[key]
        assert one["ttft"] == two["ttft"]

    def test_ttft_measured_per_viewport(self):
        svc, clock = _engine_service(prefetch_tiles=0)
        report = run_viewer_load(svc, _trace(), clock)
        ttft = report["ttft"]
        assert ttft["count"] + report["starved_viewports"] == \
            report["viewports"]
        assert ttft["count"] > 0
        assert 0.0 <= ttft["p50"] <= ttft["p95"] <= ttft["p99"]

    def test_empty_trace_rejected(self):
        svc, clock = _engine_service()
        with pytest.raises(ValueError):
            run_viewer_load(svc, [], clock)

    def test_events_need_fleet(self):
        svc, clock = _engine_service()
        with pytest.raises(ValueError):
            run_viewer_load(svc, _trace(), clock,
                            events=[ReplicaKill(0.1, 0)])

    def test_fleet_run_clean(self):
        svc, clock = _fleet_service(prefetch_tiles=2)
        report = run_viewer_load(svc, _trace(), clock)
        assert report["failed"] == 0 and report["leaked"] == 0
        assert report["outstanding"] == 0

    def test_kill_mid_pan_completes_clean(self):
        # The ISSUE acceptance gate: a replica dies mid-trace while
        # sessions pan (with stale cancellations in flight); the run must
        # finish with zero failed futures and zero leaked tiles.
        trace = _trace(sessions=4, events_per_session=6)
        mid = trace[len(trace) // 2].time
        svc, clock = _fleet_service(replicas=2, prefetch_tiles=2)
        report = run_viewer_load(svc, trace, clock,
                                 events=[ReplicaKill(mid, 0)])
        assert report["backend"]["router"]["kills"] == 1
        assert report["failed"] == 0
        assert report["leaked"] == 0
        assert report["outstanding"] == 0
        assert report["cancelled_stale"] >= 0
        assert report["ttft"]["count"] > 0

    def test_drain_mid_pan_completes_clean(self):
        # A drained replica stops admitting but retires its queue through
        # the normal batcher path: nothing fails, leaks or stays queued.
        trace = _trace(sessions=4, events_per_session=6)
        mid = trace[len(trace) // 2].time
        svc, clock = _fleet_service(replicas=2, prefetch_tiles=2)
        report = run_viewer_load(svc, trace, clock,
                                 events=[ReplicaDrain(mid, 1)])
        assert report["backend"]["router"]["drains"] == 1
        assert report["failed"] == 0
        assert report["leaked"] == 0
        assert report["outstanding"] == 0
        drained = report["backend"]["replicas"][1]
        assert drained["state"] == "draining"
        assert drained["queue_depth"] == 0

    def test_shared_cache_beats_single_session(self):
        # Same event budget: 4 overlapping sessions vs 1 session. Sharing
        # shows up two ways — digest-cache hits AND joins on tiles another
        # session already has in flight — so the gate is on their sum per
        # visible-tile lookup.
        def shared_rate(sessions):
            svc, clock = _engine_service(prefetch_tiles=0)
            trace = _trace(sessions=sessions, events_per_session=24 // sessions,
                           hotspots=1)
            report = run_viewer_load(svc, trace, clock)
            return ((report["cache_hits"] + report["joined"])
                    / report["tiles_visible"])

        assert shared_rate(4) >= shared_rate(1)


class TestViewportEvent:
    def test_frozen(self):
        ev = ViewportEvent(0.0, "s", 0, (0, 0), (64, 64))
        with pytest.raises(Exception):
            ev.time = 1.0
