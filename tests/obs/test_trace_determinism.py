"""End-to-end tracing over the deterministic fleet DES.

The contracts the ISSUE's CI gate pins: two same-seed simulated runs
export byte-identical Chrome traces; a kill-mid-run trace carries the
eviction/adoption markers with correct request parentage; every opened
request interval closes; and per-request critical paths decompose into
queue / batch-form / plan / execute / stitch.
"""

import json

import numpy as np

from repro.data import SyntheticPAIP
from repro.models.vit import ViTSegmenter
from repro.obs import (Tracer, chrome_trace, critical_paths, flame_text,
                       validate_trace)
from repro.pipeline import PatchPipeline
from repro.serve import (InferenceEngine, Predictor, ReplicaKill,
                         ServiceModel, SimClock, build_fleet, merge_traces,
                         poisson_trace, run_fleet_load, run_load)

from ..conftest import assert_quiescent

N_IMGS = 6


def _model():
    return ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1, heads=2,
                        max_len=256, rng=np.random.default_rng(1))


def _images(n=N_IMGS):
    ds = SyntheticPAIP(64, n)
    return [ds[i].image for i in range(n)]


def _factory(model):
    def factory(rank):
        pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                             cache_items=32)
        return Predictor(model, pipe, max_batch=4, bucket=16)
    return factory


def _traced_fleet(replicas=3, **opts):
    clock = SimClock()
    tracer = Tracer(clock=clock.now)
    args = dict(service_model=ServiceModel(), flush_deadline=0.02,
                result_cache_items=16)
    args.update(opts)
    router = build_fleet(_factory(_model()), replicas=replicas,
                         clock=clock.now, tracer=tracer, **args)
    return router, clock, tracer


def _canonical(tracer):
    return json.dumps(chrome_trace(tracer), sort_keys=True,
                      separators=(",", ":")).encode()


def _arrivals():
    return merge_traces(*[poisson_trace(30.0, 10, seed=40 + c,
                                        n_items=N_IMGS) for c in range(3)])


class TestDeterminism:
    def test_same_seed_runs_export_identical_bytes(self):
        blobs = []
        for _ in range(2):
            router, clock, tracer = _traced_fleet()
            imgs = _images()
            run_fleet_load(router, _arrivals(), imgs, clock)
            assert_quiescent(router)
            blobs.append(_canonical(tracer))
        assert blobs[0] == blobs[1]

    def test_trace_validates_and_every_request_closes(self):
        router, clock, tracer = _traced_fleet()
        imgs = _images()
        report = run_fleet_load(router, _arrivals(), imgs, clock)
        assert_quiescent(router)
        trace = chrome_trace(tracer)
        assert validate_trace(trace) == []
        begins = [e for e in trace["traceEvents"]
                  if e["ph"] == "b" and e.get("cat") == "request"]
        ends = [e for e in trace["traceEvents"]
                if e["ph"] == "e" and e.get("cat") == "request"]
        # one interval per accepted submission (rejects never open one),
        # and all of them closed with an outcome
        assert len(begins) == report["offered"] \
            - report["rejected_submissions"]
        assert {e["id"] for e in ends} == {b["id"] for b in begins}
        outcomes = {(e.get("args") or {}).get("outcome") for e in ends}
        assert outcomes <= {"done", "cache_hit", "collapsed", "failed",
                            "cancelled"}
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"batch", "batch.form", "execute", "stitch",
                "route"} <= names

    def test_kill_mid_run_traces_eviction_and_adoption(self):
        # slow service -> a real backlog exists on the victim at kill time
        router, clock, tracer = _traced_fleet(
            service_model=ServiceModel(batch_seconds=0.2))
        imgs = _images()
        trace_in = poisson_trace(200.0, 40, seed=9, n_items=N_IMGS)
        kill_t = trace_in[len(trace_in) // 2].time
        report = run_fleet_load(router, trace_in, imgs, clock,
                                events=[ReplicaKill(kill_t, 1)])
        assert_quiescent(router)
        assert report["kills"] == 1 and report["failed"] == 0
        exported = chrome_trace(tracer)
        assert validate_trace(exported) == []
        by_name = {}
        for ev in tracer.events:
            by_name.setdefault(ev["name"], []).append(ev)
        assert any(ev["track"] == "loadgen" for ev in by_name["fault.kill"])
        assert any(ev["track"] == "router" for ev in by_name["kill"])
        # the victim's backlog left as evictions and landed as adoptions
        # under the SAME rids — parentage survives re-homing
        evicted = {ev["args"]["rid"] for ev in by_name.get("req.evict", [])}
        adopted = {ev["args"]["rid"] for ev in by_name.get("req.adopt", [])}
        rerouted = {ev["args"]["rid"] for ev in by_name.get("reroute", [])}
        assert evicted and evicted == adopted == rerouted
        assert all(ev["track"] == "replica1"
                   for ev in by_name["req.evict"])
        assert all(ev["track"] != "replica1"
                   for ev in by_name["req.adopt"])
        # every evicted request still closed (on the adopting replica)
        closed = {ev["id"] for ev in tracer.events
                  if ev["ph"] == "e" and ev.get("cat") == "request"}
        assert evicted <= closed

    def test_disabled_tracer_is_report_invisible(self):
        reports = []
        for tracer in (None, Tracer(enabled=False)):
            clock = SimClock()
            router = build_fleet(_factory(_model()), replicas=3,
                                 clock=clock.now, tracer=tracer,
                                 service_model=ServiceModel(),
                                 flush_deadline=0.02, result_cache_items=16)
            reports.append(run_fleet_load(router, _arrivals(), _images(),
                                          clock))
            assert_quiescent(router)
        assert reports[0] == reports[1]


class TestSingleEngineTrace:
    def _engine(self):
        clock = SimClock()
        tracer = Tracer(clock=clock.now)
        pred = _factory(_model())(0)
        engine = InferenceEngine(pred, clock=clock.now,
                                 service_model=ServiceModel(),
                                 flush_deadline=0.02, tracer=tracer)
        return engine, clock, tracer

    def test_critical_paths_decompose_latency(self):
        engine, clock, tracer = self._engine()
        imgs = _images()
        trace_in = poisson_trace(30.0, 12, seed=5, n_items=N_IMGS)
        run_load(engine, trace_in, imgs, clock)
        assert_quiescent(engine)
        paths = critical_paths(tracer)
        assert paths
        batched = [p for p in paths.values() if "queue" in p]
        assert batched
        for row in batched:
            assert row["outcome"] == "done"
            assert row["queue"] >= 0.0
            assert row["execute"] >= 0.0
            assert row["total"] >= row["queue"]
        # flame renders without error and shows the span hierarchy
        flame = flame_text(tracer)
        assert "batch" in flame and "execute" in flame

    def test_cancel_marks_outcome(self):
        engine, clock, tracer = self._engine()
        img = _images(1)[0]
        fut = engine.submit(img)
        assert engine.cancel(fut)
        ends = [e for e in tracer.events
                if e["ph"] == "e" and e.get("cat") == "request"]
        assert [e["args"]["outcome"] for e in ends] == ["cancelled"]
        assert any(e["name"] == "req.cancel" for e in tracer.events)
        assert validate_trace(chrome_trace(tracer)) == []


class TestKernelProfiling:
    def test_wall_mode_profile_joins_time_with_flops(self):
        tracer = Tracer(profile_kernels=True)
        pred = Predictor(_model(),
                         PatchPipeline(patch_size=4, split_value=8.0,
                                       channels=1, cache_items=32),
                         max_batch=4, bucket=16, tracer=tracer)
        img = _images(1)[0]
        pred.predict_image(img)
        summ = tracer.kernels.summary()
        assert summ, "profiled run must record per-op timings"
        assert all(v["calls"] >= 1 and v["seconds"] > 0.0
                   for v in summ.values())
        # the matmul-bearing kernels carry nonzero cost-model estimates,
        # so achieved GFLOP/s is computable
        heavy = [v for k, v in summ.items()
                 if k in ("matmul", "linear", "linear_gelu", "sdpa")]
        assert heavy
        assert all(v["gflops"] > 0.0 and v["gflop_per_s"] > 0.0
                   for v in heavy)

    def test_profile_absent_unless_requested(self):
        pred = Predictor(_model(),
                         PatchPipeline(patch_size=4, split_value=8.0,
                                       channels=1, cache_items=32),
                         max_batch=4, bucket=16, tracer=Tracer())
        pred.predict_image(_images(1)[0])
        assert pred._plans
        for cm in pred._plans.values():
            assert cm.plan.profile_hook is None
