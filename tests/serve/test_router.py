"""Tests for the fleet router: rendezvous affinity, lifecycle, re-homing."""

import numpy as np
import pytest

from repro.data import SyntheticPAIP
from repro.distributed import SimCluster
from repro.models.vit import ViTSegmenter
from repro.obs import Tracer, chrome_trace, validate_trace
from repro.pipeline import PatchPipeline
from repro.pipeline.engine import content_key
from repro.serve import (REPLICA_DOWN, REPLICA_DRAINING, REPLICA_UP,
                         EngineOverloaded, FleetRouter, InferenceEngine,
                         Predictor, ServiceModel, SimClock, build_fleet,
                         rendezvous_order)

N_IMAGES = 8


def _images(n=N_IMAGES):
    ds = SyntheticPAIP(64, n)
    return [ds[i].image for i in range(n)]


def _model():
    return ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1, heads=2,
                        max_len=256, rng=np.random.default_rng(1))


def _fleet(n=3, model=None, threaded=False, **engine_kw):
    model = model or _model()
    clock = SimClock()
    engines = []
    for _ in range(n):
        pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                             cache_items=32)
        pred = Predictor(model, pipe, max_batch=4, bucket=16)
        if threaded:
            args = dict(flush_deadline=0.005, result_cache_items=16)
        else:
            args = dict(clock=clock.now, service_model=ServiceModel(),
                        flush_deadline=0.02, result_cache_items=16)
        args.update(engine_kw)
        engines.append(InferenceEngine(pred, **args))
    return FleetRouter(engines), clock


class TestRendezvous:
    def test_deterministic_and_order_insensitive(self):
        key = ("k", 1)
        assert rendezvous_order(key, [0, 1, 2, 3]) == \
            rendezvous_order(key, [3, 2, 1, 0])

    def test_minimal_disruption_on_removal(self):
        # dropping a rank only re-homes the keys that rank owned
        keys = [("img", i) for i in range(200)]
        full = {k: rendezvous_order(k, [0, 1, 2, 3])[0] for k in keys}
        reduced = {k: rendezvous_order(k, [0, 1, 3])[0] for k in keys}
        for k in keys:
            if full[k] != 2:
                assert reduced[k] == full[k]
            else:
                assert reduced[k] in (0, 1, 3)

    def test_spreads_keys(self):
        owners = {rendezvous_order(("img", i), [0, 1, 2, 3])[0]
                  for i in range(100)}
        assert owners == {0, 1, 2, 3}


class TestRouting:
    def test_affinity_same_digest_same_replica(self):
        router, _ = _fleet()
        imgs = _images()
        first = {}
        for rep in range(3):
            for i, im in enumerate(imgs):
                router.submit(im)
                digest = content_key(np.asarray(im))
                rank = router.preference(digest)[0]
                first.setdefault(i, rank)
                assert first[i] == rank
            router.drain_all()
        # repeats of a payload are cache hits on its home replica
        stats = router.stats()
        assert stats["result_cache"]["hits"] == 2 * len(imgs)
        assert stats["router"]["affinity_hit"] == 3 * len(imgs)

    def test_volume_routes_whole_to_one_replica(self):
        router, _ = _fleet()
        vol = np.random.default_rng(0).random((4, 64, 64))
        fut = router.submit_volume(vol)
        routed = [r for r in router.replicas if r.engine.pending > 0]
        assert len(routed) == 1
        assert routed[0].engine.pending == vol.shape[0]
        router.drain_all()
        assert fut.result(timeout=5).shape == vol.shape

    def test_spill_on_overloaded_home(self):
        router, _ = _fleet(max_queue=1)
        imgs = _images()
        # same digest twice: second submission collapses in-flight (not a
        # spill); a *different* digest overflowing the home replica spills
        home = {i: router.preference(content_key(np.asarray(im)))[0]
                for i, im in enumerate(imgs)}
        by_home = {}
        for i, im in enumerate(imgs):
            by_home.setdefault(home[i], []).append(i)
        crowd = max(by_home.values(), key=len)
        assert len(crowd) >= 2, "need two digests sharing a home replica"
        router.submit(imgs[crowd[0]])
        router.submit(imgs[crowd[1]])          # home full -> spills
        assert router.metrics.counter("spilled").value >= 1
        router.drain_all()

    def test_fleet_wide_rejection_carries_min_hint(self):
        router, _ = _fleet(n=2, max_queue=1)
        imgs = _images(6)
        with pytest.raises(EngineOverloaded) as exc_info:
            for im in imgs:
                router.submit(im)
        assert exc_info.value.retry_after >= 0
        assert router.metrics.counter("rejected").value == 1
        router.drain_all()

    def test_no_digest_round_robins(self):
        router, _ = _fleet(result_cache_items=0)
        for im in _images(6):
            router.submit(im)
        loads = [r.engine.pending for r in router.replicas]
        assert all(n == 2 for n in loads)
        router.drain_all()

    def test_strict_affinity_rejects_without_spill(self):
        router, _ = _fleet(max_queue=1)
        router.spill = False
        imgs = _images()
        home = {i: router.preference(content_key(np.asarray(im)))[0]
                for i, im in enumerate(imgs)}
        by_home = {}
        for i in range(len(imgs)):
            by_home.setdefault(home[i], []).append(i)
        crowd = max(by_home.values(), key=len)
        assert len(crowd) >= 2
        router.submit(imgs[crowd[0]])
        with pytest.raises(EngineOverloaded):
            router.submit(imgs[crowd[1]])
        router.drain_all()


class TestLifecycle:
    def test_drain_stops_admission_but_retires_work(self):
        router, _ = _fleet()
        imgs = _images()
        target = router.preference(content_key(np.asarray(imgs[0])))[0]
        router.submit(imgs[0])
        router.drain(target)
        assert router.replicas[target].state == REPLICA_DRAINING
        assert target not in router.live_ranks()
        # same digest now re-homes to the next preference
        router.submit(imgs[0])
        assert router.preference(content_key(np.asarray(imgs[0])))[0] != target
        assert not router.is_drained(target)
        router.replicas[target].engine.drain()
        assert router.is_drained(target)
        retired = router.retire(target)
        assert retired.state == REPLICA_DOWN
        router.drain_all()

    def test_restore_returns_to_pool(self):
        router, _ = _fleet()
        router.drain(1)
        assert 1 not in router.live_ranks()
        router.restore(1)
        assert 1 in router.live_ranks()
        assert router.replicas[1].state == REPLICA_UP

    def test_retire_refuses_backlog(self):
        router, _ = _fleet()
        router.submit(_images(1)[0])
        busy = [r.rank for r in router.replicas if r.engine.pending][0]
        with pytest.raises(RuntimeError):
            router.retire(busy)
        router.drain_all()

    def test_down_replica_cannot_drain_or_restore(self):
        router, _ = _fleet()
        router.kill(2)
        with pytest.raises(ValueError):
            router.drain(2)
        with pytest.raises(ValueError):
            router.restore(2)
        assert router.kill(2) == 0          # idempotent

    def test_rank_validation(self):
        router, _ = _fleet(n=2)
        with pytest.raises(ValueError):
            router.drain(5)

    def test_topology_mismatch_rejected(self):
        router, _ = _fleet(n=2)
        engines = [r.engine for r in router.replicas]
        with pytest.raises(ValueError):
            FleetRouter(engines, cluster=SimCluster(3))
        with pytest.raises(ValueError):
            FleetRouter([])


class TestKillRehoming:
    def test_kill_rehomes_backlog_no_request_lost(self):
        """Regression: a replica kill must re-hash its queue, losing nothing."""
        router, _ = _fleet()
        imgs = _images()
        futures = [router.submit(im) for im in imgs]
        victim = max(router.replicas, key=lambda r: r.engine.pending)
        backlog = victim.engine.pending
        assert backlog > 0
        rerouted = router.kill(victim.rank)
        assert rerouted == backlog
        assert victim.engine.pending == 0
        router.drain_all()
        for fut in futures:
            assert fut.exception() is None
            assert fut.result().ndim == 3
        snap = router.stats()
        assert snap["router"]["rerouted"] == backlog
        assert snap["router"].get("reroute_failed", 0) == 0

    def test_kill_keeps_results_identical(self):
        imgs = _images()
        model = _model()
        router, _ = _fleet(model=model)
        futures = [router.submit(im) for im in imgs]
        victim = max(router.replicas, key=lambda r: r.engine.pending)
        router.kill(victim.rank)
        router.drain_all()
        pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                             cache_items=32)
        reference = Predictor(model, pipe, max_batch=4,
                              bucket=16).predict_batch(imgs)
        for fut, ref in zip(futures, reference):
            np.testing.assert_array_equal(fut.result(), ref)

    def test_kill_transfers_collapsed_twins(self):
        router, _ = _fleet()
        im = _images(1)[0]
        first = router.submit(im)
        twin = router.submit(im)            # collapses onto the in-flight first
        victim = [r for r in router.replicas if r.engine.pending][0]
        router.kill(victim.rank)
        router.drain_all()
        np.testing.assert_array_equal(first.result(), twin.result())

    def test_kill_with_no_survivors_fails_futures(self):
        router, _ = _fleet(n=1)
        fut = router.submit(_images(1)[0])
        router.kill(0)
        assert isinstance(fut.exception(), EngineOverloaded)
        with pytest.raises(EngineOverloaded):
            router.submit(_images(1)[0])


    def test_reroute_failure_fails_twins_on_the_dead_track(self):
        clock = SimClock()
        tracer = Tracer(clock=clock.now)
        pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                             cache_items=32)
        router = build_fleet(
            lambda rank: Predictor(_model(), pipe, max_batch=4, bucket=16),
            replicas=1, clock=clock.now, tracer=tracer,
            service_model=ServiceModel(), result_cache_items=16)
        im = _images(1)[0]
        first = router.submit(im)
        twin = router.submit(im)            # collapses onto the in-flight first
        assert router.kill(0) == 0
        for fut in (first, twin):
            assert isinstance(fut.exception(timeout=0), EngineOverloaded)
        trace = chrome_trace(tracer)
        assert validate_trace(trace) == []
        ends = [e for e in tracer.events
                if e["ph"] == "e" and e.get("cat") == "request"]
        assert [(e["args"]["outcome"], e["track"]) for e in ends] \
            == [("failed", "replica0")] * 2
        stats = router.stats()
        assert stats["router"]["reroute_failed"] == 1
        assert stats["fleet"]["failed"] == 2


class _Fatal(BaseException):
    pass


def _kill_batcher(engine, monkeypatch):
    """Start ``engine`` and let its batcher die on its first batch, the
    way a crash looks before :meth:`FleetRouter.check` marks it down."""

    def die(seqs):
        raise _Fatal("batcher killed")

    monkeypatch.setattr(engine.predictor, "predict_sequences", die)
    engine.start(warmup=False)
    fut = engine.submit(_images(N_IMAGES + 1)[-1])
    engine._thread.join(timeout=60)
    assert not engine._thread.is_alive()
    assert isinstance(fut.exception(timeout=0), _Fatal)


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
class TestKillOntoDeadBatcher:
    """Regression: ``kill`` used to re-home a backlog onto a survivor whose
    batcher had died but was still marked up, and the requests hung."""

    def test_dead_only_survivor_fails_backlog(self, monkeypatch):
        router, _ = _fleet(n=2, threaded=True)
        _kill_batcher(router.replicas[1].engine, monkeypatch)
        # replica 0 is never started: its backlog waits for the kill
        futs = [router.replicas[0].engine.submit(im) for im in _images(5)]
        try:
            assert router.kill(0) == 0
            for fut in futs:
                assert isinstance(fut.exception(timeout=5), EngineOverloaded)
            assert router.stats()["router"]["reroute_failed"] == len(futs)
            assert router.replicas[1].engine.pending == 0
        finally:
            router.stop()

    def test_backlog_skips_dead_survivor_for_healthy_one(self, monkeypatch):
        router, _ = _fleet(n=3, threaded=True)
        _kill_batcher(router.replicas[1].engine, monkeypatch)
        router.replicas[2].engine.start(warmup=False)
        imgs = _images(5)
        futs = [router.replicas[0].engine.submit(im) for im in imgs]
        try:
            assert router.kill(0) == len(futs)
            # some of the backlog prefers the dead replica and must move on
            assert any(router.preference(content_key(im))[0] == 1
                       for im in imgs)
            for fut in futs:
                assert fut.result(timeout=60).shape == (1, 64, 64)
            assert router.replicas[2].adopted == len(futs)
            assert router.stats()["router"].get("reroute_failed", 0) == 0
        finally:
            router.stop()


class TestThreadedFleet:
    def test_start_stop_and_check(self):
        router, _ = _fleet(threaded=True)
        router.start(warmup=False)
        imgs = _images(4)
        futs = [router.submit(im) for im in imgs]
        for fut in futs:
            assert fut.result(timeout=30).ndim == 3
        assert router.check() == {0: REPLICA_UP, 1: REPLICA_UP, 2: REPLICA_UP}
        router.stop()

    def test_check_autokills_dead_batcher(self):
        router, _ = _fleet(threaded=True)
        router.start(warmup=False)
        victim = router.replicas[1].engine
        # simulate a crashed batcher: stop the thread without clearing it
        with victim._cond:
            victim._running = False
            victim._cond.notify_all()
        victim._thread.join()
        states = router.check()
        assert states[1] == REPLICA_DOWN
        router.stop()


class TestFleetStats:
    def test_merged_latency_is_fleet_wide(self):
        router, _ = _fleet()
        imgs = _images()
        for im in imgs:
            router.submit(im)
        router.drain_all()
        snap = router.stats()
        per_counts = [r.engine.metrics.histogram("latency").count
                      for r in router.replicas]
        assert snap["fleet"]["latency"]["count"] == sum(per_counts)
        assert snap["fleet"]["completed"] == len(imgs)
        assert set(snap["replicas"]) == {0, 1, 2}
        assert snap["topology"] == {"world_size": 3, "live": [0, 1, 2]}

    def test_lane_wise_queue_wait_merges_across_replicas(self):
        """stats() exposes per-lane queue-wait both per replica and merged
        fleet-wide (bucket counts add, so percentiles are true fleet
        percentiles, never averages of averages)."""
        router, _ = _fleet()
        imgs = _images()
        for i, im in enumerate(imgs):
            router.submit(im, lane="interactive" if i % 2 == 0 else "bulk")
        router.drain_all()
        snap = router.stats()
        fleet_lanes = snap["queue"]["wait_per_lane"]
        assert set(fleet_lanes) <= {"interactive", "bulk"}
        for lane, merged in fleet_lanes.items():
            per = [r["queue_wait_per_lane"].get(lane, {"count": 0})["count"]
                   for r in snap["replicas"].values()]
            assert merged["count"] == sum(per) > 0
        total = sum(m["count"] for m in fleet_lanes.values())
        assert total == len(imgs)

    def test_cache_shards_aggregate(self):
        router, _ = _fleet()
        imgs = _images(4)
        for _ in range(2):
            for im in imgs:
                router.submit(im)
            router.drain_all()
        snap = router.stats()
        cache = snap["result_cache"]
        assert cache["hits"] == len(imgs)
        assert cache["hit_rate"] == pytest.approx(0.5)
        assert cache["items"] == len(imgs)          # sharded, not duplicated
