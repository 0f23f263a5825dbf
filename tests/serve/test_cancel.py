"""Tests for the cancellation path: FairQueue.find/remove, engine.cancel,
router.cancel — the stale-viewport machinery the pyramid service rides on."""

import numpy as np
import pytest

from repro.data import SyntheticPAIP
from repro.models.vit import ViTSegmenter
from repro.pipeline import PatchPipeline
from repro.serve import (InferenceEngine, Predictor, ServiceModel, SimClock,
                         build_fleet)
from repro.serve.queueing import FairQueue, Request

from ..conftest import assert_quiescent


def _model(**kw):
    args = dict(patch_size=4, channels=1, dim=16, depth=1, heads=2,
                max_len=256, rng=np.random.default_rng(1))
    args.update(kw)
    return ViTSegmenter(**args)


def _predictor(model, **kw):
    args = dict(max_batch=3, bucket=16)
    args.update(kw)
    pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                         cache_items=64)
    return Predictor(model, pipe, **args)


def _images(n, res=64, offset=0):
    ds = SyntheticPAIP(res, n + offset)
    return [ds[i].image for i in range(offset, n + offset)]


def _sim_engine(pred, **kw):
    clock = SimClock()
    args = dict(clock=clock.now, service_model=ServiceModel())
    args.update(kw)
    return InferenceEngine(pred, **args), clock


class TestFairQueueFindRemove:
    def _req(self, bucket=16, lane="interactive"):
        return Request(seq=None, bucket=bucket, lane=lane, submit_t=0.0)

    def test_find_and_remove(self):
        q = FairQueue()
        reqs = [self._req(bucket=b) for b in (16, 16, 32)]
        q.push_all(reqs)
        assert q.find(reqs[1].future) is reqs[1]
        assert q.remove(reqs[1].future) is reqs[1]
        assert len(q) == 2
        assert q.find(reqs[1].future) is None
        assert q.remove(reqs[1].future) is None

    def test_remove_unknown_future_is_none(self):
        from concurrent.futures import Future
        q = FairQueue()
        q.push(self._req())
        assert q.remove(Future()) is None
        assert len(q) == 1

    def test_remove_clears_empty_bucket(self):
        q = FairQueue()
        r = self._req(bucket=32)
        q.push(r)
        q.remove(r.future)
        assert q.depths()["per_bucket"] == {}
        # capacity actually freed: we can fill the queue again
        q.push_all([self._req() for _ in range(q.max_depth)])

    def test_removed_request_not_dispatched(self):
        q = FairQueue()
        keep, drop = self._req(), self._req()
        q.push_all([keep, drop])
        q.remove(drop.future)
        batch = q.collect(now=100.0, max_batch=4, deadline=0.0)
        assert batch == [keep]
        assert q.collect(now=100.0, max_batch=4, deadline=0.0) is None


class TestEngineCancel:
    def test_cancel_waiting_request(self):
        engine, _ = _sim_engine(_predictor(_model()))
        img = _images(1)[0]
        fut = engine.submit(img)
        assert engine.cancel(fut) is True
        assert fut.cancelled()
        assert engine.pending == 0
        assert engine.stats()["engine"].get("cancelled") == 1
        assert_quiescent(engine)

    def test_cancel_resolved_request_is_false(self):
        engine, _ = _sim_engine(_predictor(_model()))
        fut = engine.submit(_images(1)[0])
        engine.drain()
        assert fut.done() and not fut.cancelled()
        assert engine.cancel(fut) is False

    def test_cancel_foreign_future_is_false(self):
        from concurrent.futures import Future
        engine, _ = _sim_engine(_predictor(_model()))
        engine.submit(_images(1)[0])
        assert engine.cancel(Future()) is False
        engine.drain()

    def test_cancel_refuses_collapsed_primary(self):
        # Two identical submissions collapse onto one primary; cancelling
        # the primary would orphan the twin riding on its execution.
        engine, _ = _sim_engine(_predictor(_model()), result_cache_items=8)
        img = _images(1)[0]
        primary = engine.submit(img)
        twin = engine.submit(img)
        assert twin is not primary
        assert engine.cancel(primary) is False
        engine.drain()
        np.testing.assert_array_equal(primary.result(), twin.result())
        assert_quiescent(engine)

    def test_cancel_releases_inflight_reservation(self):
        # After cancelling, an identical resubmission must execute fresh
        # (not join a dead reservation) and still match the direct path.
        model = _model()
        engine, _ = _sim_engine(_predictor(model), result_cache_items=8)
        img = _images(1)[0]
        fut = engine.submit(img)
        assert engine.cancel(fut) is True
        fresh = engine.submit(img)
        engine.drain()
        ref = _predictor(model).predict_image(img, key=0)
        np.testing.assert_array_equal(fresh.result(), ref)
        assert_quiescent(engine)

    def test_cancel_frees_queue_capacity(self):
        engine, _ = _sim_engine(_predictor(_model()), max_queue=2)
        imgs = _images(3)
        futs = [engine.submit(im) for im in imgs[:2]]
        with pytest.raises(Exception):
            engine.submit(imgs[2])
        assert engine.cancel(futs[0]) is True
        fut = engine.submit(imgs[2])          # slot actually freed
        engine.drain()
        assert fut.done()
        assert_quiescent(engine)

    def test_cancelled_request_never_runs(self):
        engine, _ = _sim_engine(_predictor(_model()))
        imgs = _images(2)
        keep = engine.submit(imgs[0])
        drop = engine.submit(imgs[1])
        engine.cancel(drop)
        engine.drain()
        assert keep.done() and not keep.cancelled()
        eng = engine.stats()["engine"]
        assert eng["completed"] == 1

    def test_queue_wait_per_lane_in_stats(self):
        engine, _ = _sim_engine(_predictor(_model()))
        imgs = _images(3)
        engine.submit(imgs[0], lane="interactive")
        engine.submit(imgs[1], lane="bulk")
        engine.submit(imgs[2], lane="bulk")
        engine.drain()
        waits = engine.stats()["queue"]["wait_per_lane"]
        assert set(waits) == {"interactive", "bulk"}
        assert waits["interactive"]["count"] == 1
        assert waits["bulk"]["count"] == 2
        assert all(w["max"] >= 0.0 for w in waits.values())


class TestFleetCancel:
    def _fleet(self, clock, replicas=2, **overrides):
        model = _model()

        def factory(rank):
            return _predictor(model)

        opts = dict(clock=clock.now, service_model=ServiceModel(),
                    result_cache_items=8)
        opts.update(overrides)
        return build_fleet(factory, replicas=replicas, **opts)

    def test_cancel_finds_owning_replica(self):
        clock = SimClock()
        router = self._fleet(clock)
        imgs = _images(4)
        futs = [router.submit(im) for im in imgs]
        assert router.cancel(futs[2]) is True
        assert futs[2].cancelled()
        router.drain_all()
        for i, fut in enumerate(futs):
            assert fut.cancelled() == (i == 2)
        assert router.stats()["router"]["cancelled"] == 1

    def test_cancel_after_drain_is_false(self):
        clock = SimClock()
        router = self._fleet(clock)
        fut = router.submit(_images(1)[0])
        router.drain_all()
        assert router.cancel(fut) is False

    def test_cancel_then_kill_leaves_fleet_clean(self):
        # A cancelled future must not be re-homed by the kill path.
        clock = SimClock()
        router = self._fleet(clock, replicas=2)
        imgs = _images(6)
        futs = [router.submit(im) for im in imgs]
        cancelled = [f for f in futs if router.cancel(f)]
        assert cancelled
        router.kill(0)
        router.drain_all()
        for fut in futs:
            assert fut.done()
            if not fut.cancelled():
                assert fut.exception() is None
