"""Viewer and streaming instrumentation: the obs layer above the engine.

The pyramid service emits viewport/tile-ladder instants on the ``viewer``
track and the streaming runner emits read/retire/skip events on the
``stream`` track — all against the same tracer the backend engine uses,
so one timeline covers the whole request path.
"""

import numpy as np

from repro.models.vit import ViTSegmenter
from repro.obs import Tracer, chrome_trace, validate_trace
from repro.pipeline import PatchPipeline
from repro.pyramid import PyramidService, TilePyramid
from repro.serve import (InferenceEngine, Predictor, ServiceModel, SimClock)
from repro.stream import MemorySink, VirtualWSISource, plan_scene
from repro.stream.runner import StreamingRunner
from repro.stream.source import ArraySource

from ..conftest import assert_quiescent


def _model():
    return ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1, heads=2,
                        max_len=256, rng=np.random.default_rng(1))


def _predictor():
    pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                         cache_items=64)
    return Predictor(_model(), pipe, max_batch=4, bucket=16)


def _events(tracer, name):
    return [ev for ev in tracer.events if ev["name"] == name]


class TestViewerTrace:
    def _service(self, **engine_kw):
        clock = SimClock()
        tracer = Tracer(clock=clock.now)
        engine = InferenceEngine(_predictor(), clock=clock.now,
                                 service_model=ServiceModel(),
                                 result_cache_items=32, tracer=tracer,
                                 **engine_kw)
        rng = np.random.default_rng(0)
        pyramid = TilePyramid(ArraySource(rng.random((256, 256, 3))),
                              tile=32)
        svc = PyramidService(pyramid, engine, clock=clock.now,
                             prefetch_tiles=0)
        assert svc.tracer is tracer      # inherited from the backend
        return svc, engine, clock, tracer

    def test_viewport_and_submit_instants(self):
        svc, engine, clock, tracer = self._service()
        report = svc.request_viewport("a", 0, (0, 0), (64, 64))
        vps = _events(tracer, "viewport")
        assert len(vps) == 1 and vps[0]["track"] == "viewer"
        assert vps[0]["args"]["tiles"] == len(report.tasks)
        subs = _events(tracer, "tile.submit")
        assert len(subs) == report.submitted == 4
        assert all(ev["args"]["session"] == "a" and not ev["args"]["prefetch"]
                   for ev in subs)

    def test_submit_digests_join_engine_requests(self):
        """Regression: viewer instants printed ``str(content_key)[:12]``,
        the same ``((32, 32, 3)`` prefix for every tile."""
        svc, engine, clock, tracer = self._service()
        svc.request_viewport("a", 0, (0, 0), (64, 64))
        digests = []
        for i, ev in enumerate(tracer.events):
            if ev["name"] == "tile.submit":
                # the engine opened the request inside backend.submit
                begin = [e for e in tracer.events[:i]
                         if e["name"] == "request" and e["ph"] == "b"][-1]
                assert ev["args"]["digest"] == begin["args"]["digest"]
                digests.append(ev["args"]["digest"])
        assert len(set(digests)) == len(digests) == 4

    def test_cache_hit_and_join_instants(self):
        svc, engine, clock, tracer = self._service()
        svc.request_viewport("a", 0, (0, 0), (64, 64))
        joined = svc.request_viewport("b", 0, (0, 0), (64, 64))
        assert len(_events(tracer, "tile.join")) == joined.joined == 4
        engine.drain()
        hit = svc.request_viewport("a", 0, (0, 0), (64, 64))
        assert len(_events(tracer, "tile.cache_hit")) == hit.cache_hits == 4
        # viewer instants coexist with the engine's request intervals in
        # one structurally valid trace
        assert validate_trace(chrome_trace(tracer)) == []

    def test_pan_away_emits_cancel_instants(self):
        svc, engine, clock, tracer = self._service(max_batch=1)
        svc.request_viewport("a", 0, (0, 0), (64, 64))
        svc.request_viewport("a", 0, (128, 128), (64, 64))   # pan away
        cancels = _events(tracer, "tile.cancel")
        assert cancels and all(ev["track"] == "viewer" for ev in cancels)
        assert all(ev["args"]["session"] == "a" for ev in cancels)
        engine.drain()

    def test_overload_emits_reject_instants(self):
        svc, engine, clock, tracer = self._service(max_queue=2)
        report = svc.request_viewport("a", 0, (0, 0), (128, 128))
        assert report.rejected > 0
        rejects = _events(tracer, "tile.reject")
        assert len(rejects) == report.rejected
        engine.drain()

    def test_untraced_service_emits_nothing(self):
        clock = SimClock()
        engine = InferenceEngine(_predictor(), clock=clock.now,
                                 service_model=ServiceModel())
        rng = np.random.default_rng(0)
        pyramid = TilePyramid(ArraySource(rng.random((128, 128, 3))),
                              tile=32)
        svc = PyramidService(pyramid, engine, clock=clock.now,
                             prefetch_tiles=0)
        assert svc.tracer is None
        svc.request_viewport("a", 0, (0, 0), (64, 64))
        engine.drain()


class TestViewerDESTrace:
    def test_kill_mid_pan_marks_fault_on_loadgen_track(self):
        from repro.pyramid import run_viewer_load, viewer_trace
        from repro.serve import ReplicaKill, build_fleet
        from repro.stream.source import VirtualWSISource

        res, tile = 1024, 32
        clock = SimClock()
        tracer = Tracer(clock=clock.now)
        model = _model().eval()

        def factory(rank):
            pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                                 cache_items=64)
            return Predictor(model, pipe, max_batch=1, bucket=16)

        router = build_fleet(factory, replicas=2, clock=clock.now,
                             service_model=ServiceModel(), max_queue=64,
                             result_cache_items=64, tracer=tracer)
        pyramid = TilePyramid(VirtualWSISource(res, seed=7, tile=256,
                                               cache_tiles=8),
                              tile=tile, max_level=3)
        svc = PyramidService(pyramid, router, clock=clock.now,
                             prefetch_tiles=2)
        assert svc.tracer is tracer          # inherited through the router
        events = viewer_trace((res, res), 4, sessions=3,
                              events_per_session=5, viewport=(64, 64),
                              tile=tile, seed=11)
        mid = events[len(events) // 2].time
        report = run_viewer_load(svc, events, clock,
                                 events=[ReplicaKill(mid, 0)])
        assert_quiescent(svc)
        assert report["failed"] == 0 and report["leaked"] == 0
        faults = _events(tracer, "fault.kill")
        assert len(faults) == 1 and faults[0]["track"] == "loadgen"
        assert faults[0]["args"] == {"rank": 0}
        assert len(_events(tracer, "viewport")) == report["viewports"]
        assert validate_trace(chrome_trace(tracer)) == []


class TestStreamTrace:
    RES, TILE = 256, 128

    def _run(self, tracer, sink=None, resume=True, runner_kw=None):
        src = VirtualWSISource(self.RES, seed=5, organ=2, tile=self.TILE)
        plan = plan_scene((self.RES, self.RES, 3), tile=self.TILE,
                          max_len=256)
        runner = StreamingRunner(_predictor(), tracer=tracer,
                                 **(runner_kw or {}))
        assert runner.tracer is (tracer if tracer and tracer.enabled
                                 else None)
        report = runner.run(src, plan, sink if sink is not None
                            else MemorySink(), resume=resume)
        return report, plan

    def test_read_spans_and_retire_instants(self):
        tracer = Tracer()
        report, plan = self._run(tracer)
        reads = _events(tracer, "tile.read")
        assert len(reads) == report.tiles_run == len(plan.tiles)
        assert all(ev["ph"] == "X" and ev["track"] == "stream"
                   and ev["dur"] >= 0 and ev["args"]["bytes"] > 0
                   for ev in reads)
        retires = _events(tracer, "tile.retire")
        assert len(retires) == report.tiles_run
        assert validate_trace(chrome_trace(tracer)) == []

    def test_resume_emits_skip_instants(self):
        sink = MemorySink()
        self._run(None, sink=sink)               # first full pass
        tracer = Tracer()
        report, plan = self._run(tracer, sink=sink, resume=True)
        assert report.tiles_skipped == len(plan.tiles)
        skips = _events(tracer, "tile.skip")
        assert len(skips) == len(plan.tiles)
        assert not _events(tracer, "tile.read")

    def test_disabled_tracer_normalized_away(self):
        report, _ = self._run(Tracer(enabled=False))
        assert report.tiles_run > 0
