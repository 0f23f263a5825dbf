"""Tests for the simulated-clock load harness (determinism above all)."""

import numpy as np
import pytest

from repro.data import SyntheticPAIP
from repro.models.vit import ViTSegmenter
from repro.pipeline import PatchPipeline
from repro.serve import (Arrival, InferenceEngine, Predictor, ReplicaDrain,
                         ReplicaKill, ServiceModel, SimClock, build_fleet,
                         merge_traces, poisson_trace, run_fleet_load,
                         run_load, serial_baseline)


def _setup(n=6, **engine_kw):
    ds = SyntheticPAIP(64, n)
    imgs = [ds[i].image for i in range(n)]
    model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1, heads=2,
                         max_len=256, rng=np.random.default_rng(1))
    pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                         cache_items=32)
    pred = Predictor(model, pipe, max_batch=4, bucket=16)
    clock = SimClock()
    args = dict(clock=clock.now, service_model=ServiceModel(),
                flush_deadline=0.02, result_cache_items=0)
    args.update(engine_kw)
    return imgs, InferenceEngine(pred, **args), clock


class TestTraces:
    def test_poisson_trace_is_seeded_and_sorted(self):
        a = poisson_trace(10.0, 20, seed=7, n_items=4)
        b = poisson_trace(10.0, 20, seed=7, n_items=4)
        assert a == b
        assert a != poisson_trace(10.0, 20, seed=8, n_items=4)
        times = [x.time for x in a]
        assert times == sorted(times)
        assert all(0 <= x.item < 4 for x in a)
        # mean inter-arrival ~ 1/rate
        gaps = np.diff([0.0] + times)
        assert 0.03 < gaps.mean() < 0.3

    def test_merge_traces_orders_by_time(self):
        a = poisson_trace(5.0, 5, seed=1)
        b = poisson_trace(5.0, 5, seed=2, lane="bulk")
        merged = merge_traces(a, b)
        assert len(merged) == 10
        assert [x.time for x in merged] == sorted(x.time for x in merged)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            poisson_trace(0.0, 5, seed=1)
        with pytest.raises(ValueError):
            poisson_trace(1.0, 0, seed=1)


class TestServiceModel:
    def test_cost_model_shape(self):
        sm = ServiceModel(batch_seconds=0.03, token_seconds=1e-5,
                          item_seconds=0.002)
        assert sm.serial(100) == pytest.approx(0.03 + 0.001 + 0.002)
        assert sm.cost(8, 100) == pytest.approx(0.03 + 8 * 0.003)
        # batching amortizes the fixed term: 8 items cheaper than 8 singles
        assert sm.cost(8, 100) < 8 * sm.serial(100)
        with pytest.raises(ValueError):
            sm.cost(0, 100)


class TestSimClock:
    def test_forward_only(self):
        c = SimClock(5.0)
        c.set(4.0)
        assert c.now() == 5.0
        c.advance(1.5)
        assert c.now() == 6.5
        with pytest.raises(ValueError):
            c.advance(-1.0)


class TestRunLoad:
    def test_deterministic_across_runs(self):
        reports = []
        for _ in range(2):
            imgs, engine, clock = _setup()
            trace = merge_traces(*[poisson_trace(8.0, 6, seed=10 + c,
                                                 n_items=len(imgs))
                                   for c in range(3)])
            reports.append(run_load(engine, trace, imgs, clock))
        a, b = reports
        assert a["throughput"] == b["throughput"]
        assert a["latency"] == b["latency"]
        assert a["batches"] == b["batches"]
        assert a["rejected_submissions"] == b["rejected_submissions"]

    def test_all_accepted_requests_complete(self):
        imgs, engine, clock = _setup()
        trace = poisson_trace(20.0, 15, seed=3, n_items=len(imgs))
        report = run_load(engine, trace, imgs, clock)
        assert report["offered"] == 15
        assert (report["requests_completed"] + report["rejected_submissions"]
                == 15)
        assert report["makespan"] > 0
        assert report["latency"]["count"] == report["requests_completed"]

    def test_overload_sheds_and_hints(self):
        imgs, engine, clock = _setup(max_queue=4)
        trace = poisson_trace(500.0, 40, seed=5, n_items=len(imgs))
        report = run_load(engine, trace, imgs, clock)
        assert report["rejected_submissions"] > 0
        assert report["mean_retry_after"] > 0

    def test_empty_trace_rejected(self):
        imgs, engine, clock = _setup()
        with pytest.raises(ValueError):
            run_load(engine, [], imgs, clock)

    def test_batching_beats_serial_baseline(self):
        imgs, engine, clock = _setup()
        pred = engine.predictor
        trace = merge_traces(*[poisson_trace(15.0, 8, seed=20 + c,
                                             n_items=len(imgs))
                               for c in range(4)])
        report = run_load(engine, trace, imgs, clock)
        ordered = sorted(trace, key=lambda a: (a.time, a.lane, a.item))
        lengths = [pred.bucket_length(len(pred._naturals([imgs[a.item]],
                                                         [a.item])[0]))
                   for a in ordered]
        serial = serial_baseline(trace, lengths, ServiceModel())
        assert report["throughput"] > serial["throughput"]


def _fleet_setup(n_imgs=6, replicas=3, **opts):
    ds = SyntheticPAIP(64, n_imgs)
    imgs = [ds[i].image for i in range(n_imgs)]
    model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1, heads=2,
                         max_len=256, rng=np.random.default_rng(1))

    def factory(rank):
        pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                             cache_items=32)
        return Predictor(model, pipe, max_batch=4, bucket=16)

    clock = SimClock()
    args = dict(service_model=ServiceModel(), flush_deadline=0.02,
                result_cache_items=16)
    args.update(opts)
    router = build_fleet(factory, replicas=replicas, clock=clock.now, **args)
    return imgs, router, clock


class TestRunFleetLoad:
    def test_deterministic_across_runs(self):
        reports = []
        for _ in range(2):
            imgs, router, clock = _fleet_setup()
            trace = merge_traces(*[poisson_trace(30.0, 10, seed=40 + c,
                                                 n_items=len(imgs))
                                   for c in range(3)])
            reports.append(run_fleet_load(router, trace, imgs, clock))
        a, b = reports
        assert a["throughput"] == b["throughput"]
        assert a["latency"] == b["latency"]
        assert a["per_replica"] == b["per_replica"]
        assert a["cache_hit_rate"] == b["cache_hit_rate"]

    def test_accounting_closes(self):
        imgs, router, clock = _fleet_setup()
        trace = poisson_trace(50.0, 30, seed=4, n_items=len(imgs))
        report = run_fleet_load(router, trace, imgs, clock)
        assert report["offered"] == 30
        assert (report["requests_completed"]
                + report["rejected_submissions"] == 30)
        assert report["failed"] == 0
        assert report["latency"]["count"] == report["requests_completed"]

    def test_replica_kill_loses_no_requests(self):
        """Regression: a mid-trace kill re-hashes the backlog; every
        accepted request still completes (the ISSUE's no-loss gate)."""
        imgs, router, clock = _fleet_setup()
        trace = poisson_trace(200.0, 40, seed=9, n_items=len(imgs))
        kill_t = trace[len(trace) // 2].time
        report = run_fleet_load(router, trace, imgs, clock,
                                events=[ReplicaKill(kill_t, 1)])
        assert report["kills"] == 1
        assert report["failed"] == 0
        assert (report["requests_completed"]
                + report["rejected_submissions"] == report["offered"])
        assert report["per_replica"][1]["state"] == "down"
        assert report["per_replica"][1]["queue_depth"] == 0

    def test_replica_drain_event(self):
        imgs, router, clock = _fleet_setup()
        trace = poisson_trace(100.0, 30, seed=11, n_items=len(imgs))
        drain_t = trace[len(trace) // 3].time
        report = run_fleet_load(router, trace, imgs, clock,
                                events=[ReplicaDrain(drain_t, 0)])
        assert report["drains"] == 1
        assert report["failed"] == 0
        assert report["per_replica"][0]["state"] == "draining"
        # the drained replica's queue still retired through the batcher
        assert report["per_replica"][0]["queue_depth"] == 0
        # no new work after the drain point: rank 0 routed less than peers
        routed = {rank: rep["routed"]
                  for rank, rep in report["per_replica"].items()}
        assert routed[0] <= max(routed[1], routed[2])

    def test_routing_delay_adds_latency(self):
        imgs, fast_router, clock0 = _fleet_setup()
        trace = poisson_trace(20.0, 12, seed=13, n_items=len(imgs))
        base = run_fleet_load(fast_router, trace, imgs, clock0)
        imgs2, slow_router, clock1 = _fleet_setup()
        slow_router.route_seconds = 0.05
        slow = run_fleet_load(slow_router, trace, imgs2, clock1)
        # a constant hop shifts every submission equally: engine-visible
        # latency (measured from post-hop submit) is unchanged, but the
        # timeline — and so the makespan from first *arrival* — stretches
        assert slow["latency"]["mean"] == pytest.approx(
            base["latency"]["mean"])
        assert slow["makespan"] > base["makespan"]

    def test_unknown_event_rejected(self):
        imgs, router, clock = _fleet_setup()
        trace = poisson_trace(10.0, 3, seed=2, n_items=len(imgs))
        with pytest.raises(TypeError):
            run_fleet_load(router, trace, imgs, clock,
                           events=[Arrival(0.0, 0)])

    def test_empty_trace_rejected(self):
        imgs, router, clock = _fleet_setup()
        with pytest.raises(ValueError):
            run_fleet_load(router, [], imgs, clock)

    def test_fleet_outscales_single_engine(self):
        trace = merge_traces(*[poisson_trace(60.0, 25, seed=60 + c, n_items=6)
                               for c in range(4)])
        throughput = {}
        for n in (1, 4):
            imgs, router, clock = _fleet_setup(replicas=n,
                                               result_cache_items=0)
            throughput[n] = run_fleet_load(router, trace, imgs,
                                           clock)["throughput"]
        assert throughput[4] > throughput[1]


class TestOneServerFleet:
    """A single engine is a one-server fleet: ``run_fleet_load`` over one
    replica must reproduce ``run_load`` field for field."""

    SHARED = ("offered", "accepted", "rejected_submissions",
              "mean_retry_after", "requests_completed", "makespan",
              "throughput", "batches", "mean_batch_size", "latency",
              "latency_per_lane")

    @pytest.mark.parametrize("opts", [
        dict(result_cache_items=0),
        dict(result_cache_items=16),
        dict(result_cache_items=0, max_queue=4),
    ], ids=["cache-off", "cache-on", "max-queue-4"])
    def test_one_replica_fleet_equals_run_load(self, opts):
        rate = 500.0 if "max_queue" in opts else 30.0
        trace = merge_traces(*[poisson_trace(rate, 12, seed=70 + c, n_items=6)
                               for c in range(3)])
        imgs, engine, clock = _setup(**opts)
        single = run_load(engine, trace, imgs, clock)
        imgs, router, fleet_clock = _fleet_setup(replicas=1, **opts)
        fleet = run_fleet_load(router, trace, imgs, fleet_clock)
        for key in self.SHARED:
            assert fleet[key] == single[key], key
        assert fleet_clock.now() == clock.now()
        if "max_queue" in opts:
            assert single["rejected_submissions"] > 0


class TestSerialBaseline:
    def test_fifo_queueing_math(self):
        sm = ServiceModel(batch_seconds=0.03, token_seconds=0.0,
                          item_seconds=0.01)
        trace = [Arrival(0.0, 0), Arrival(0.01, 0), Arrival(10.0, 0)]
        out = serial_baseline(trace, [32, 32, 32], sm)
        # svc = 0.04: req2 queues behind req1; req3 arrives to an idle server
        assert out["p50"] == pytest.approx(0.04)
        assert out["mean"] == pytest.approx((0.04 + 0.07 + 0.04) / 3)
        assert out["makespan"] == pytest.approx(10.04)
        assert out["completed"] == 3

    def test_queue_bound_sheds(self):
        sm = ServiceModel(batch_seconds=1.0, token_seconds=0.0,
                          item_seconds=0.0)
        trace = [Arrival(0.0, 0), Arrival(0.1, 0), Arrival(0.2, 0)]
        out = serial_baseline(trace, [32, 32, 32], sm, queue_bound=1)
        assert out["shed"] == 1
        assert out["completed"] == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            serial_baseline([Arrival(0.0, 0)], [32, 32], ServiceModel())
