"""Tests for the async InferenceEngine — bit-identity, caching, lanes,
admission control, warmup, and the threaded batcher."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import SyntheticPAIP, generate_ct_volume
from repro.models.vit import ViTSegmenter, VolumeViTSegmenter
from repro.patching import VolumeAPFConfig
from repro.pipeline import PatchPipeline
from repro.serve import (EngineOverloaded, InferenceEngine, Predictor,
                         ServiceModel, SimClock)
from repro.train.tasks import prepare_image

settings.register_profile("engine", max_examples=8, deadline=None)
settings.load_profile("engine")


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


class TestDrainBitIdentity:
    """Acceptance: submit a request set, drain -> bit-identical to
    Predictor.predict_batch on the same set (same FIFO bucket chunks)."""

    @given(st.integers(0, 10 ** 6), st.integers(1, 6),
           st.sampled_from([1, 2, 3]), st.sampled_from([8, 16, 32]))
    def test_engine_matches_predict_batch_2d(self, seed, n, max_batch,
                                             bucket):
        rng = np.random.default_rng(seed)
        imgs = _images(n, offset=int(rng.integers(0, 4)))
        model = _model()
        engine, _ = _sim_engine(
            _predictor(model, max_batch=max_batch, bucket=bucket))
        futs = [engine.submit(im) for im in imgs]
        engine.drain()
        ref = _predictor(model, max_batch=max_batch,
                         bucket=bucket).predict_batch(imgs,
                                                      keys=list(range(n)))
        for fut, expected in zip(futs, ref):
            np.testing.assert_array_equal(fut.result(), expected)

    @given(st.integers(0, 100))
    @settings(max_examples=3, deadline=None)
    def test_engine_matches_predict_batch_3d(self, seed):
        vols = [generate_ct_volume(32, 32, seed=seed + s).volume
                for s in range(3)]
        model = VolumeViTSegmenter(patch_size=4, dim=16, depth=1, heads=2,
                                   max_len=512, rng=np.random.default_rng(2))

        def mk():
            return Predictor(model, PatchPipeline(
                VolumeAPFConfig(patch_size=4, split_value=8.0)),
                max_batch=2, bucket=32)

        engine, _ = _sim_engine(mk())
        futs = [engine.submit(v) for v in vols]
        engine.drain()
        for fut, expected in zip(futs, mk().predict_batch(vols,
                                                          keys=[0, 1, 2])):
            np.testing.assert_array_equal(fut.result(), expected)


class TestResultCache:
    def test_identical_payload_served_from_cache(self):
        imgs = _images(1)
        engine, _ = _sim_engine(_predictor(_model()))
        first = engine.submit(imgs[0])
        engine.drain()
        again = engine.submit(imgs[0])
        assert again.done()                 # no inference, resolved at submit
        np.testing.assert_array_equal(first.result(), again.result())
        s = engine.stats()
        assert s["engine"]["cache_hits"] == 1
        assert s["engine"]["completed"] == 1
        assert s["result_cache"]["items"] == 1

    def test_all_results_writable_and_cache_unpoisonable(self):
        img = _images(1)[0]
        engine, _ = _sim_engine(_predictor(_model()))
        fut = engine.submit(img)
        engine.drain()
        fresh = fut.result()
        fresh[0, 0, 0] = 99.0               # predict_batch parity: writable
        hit1 = engine.submit(img).result()  # private copy of the cache entry
        assert hit1[0, 0, 0] != 99.0        # caller mutation didn't poison it
        hit1[0, 0, 0] = 77.0                # hits are writable too
        hit2 = engine.submit(img).result()
        assert hit2[0, 0, 0] != 77.0        # and can't poison later hits

    def test_inflight_duplicates_collapse_onto_one_execution(self):
        imgs = _images(1)
        engine, _ = _sim_engine(_predictor(_model()))
        a = engine.submit(imgs[0])
        b = engine.submit(imgs[0])          # queued twin -> collapsed
        engine.drain()
        np.testing.assert_array_equal(a.result(), b.result())
        # twins get private copies: mutating one cannot corrupt the other
        assert a.result() is not b.result()
        b.result()[0, 0, 0] = -1.0
        assert a.result()[0, 0, 0] != -1.0
        s = engine.stats()
        assert s["engine"]["collapsed"] == 1
        assert s["engine"]["completed"] == 1
        # twins contribute to the per-lane latency histogram too
        assert s["engine"]["latency.interactive"]["count"] == 2

    def test_preprocessing_failure_clears_reservation(self):
        imgs = _images(1)
        engine, _ = _sim_engine(_predictor(_model()))
        with pytest.raises(Exception):
            engine.submit(np.zeros((7, 7, 7, 7)))   # pipeline rejects 4-D
        assert engine.stats()["result_cache"]["inflight"] == 0
        # the same engine still serves clean traffic afterwards
        fut = engine.submit(imgs[0])
        engine.drain()
        assert fut.result().shape == (1, 64, 64)

    def test_cache_disabled(self):
        imgs = _images(1)
        engine, _ = _sim_engine(_predictor(_model()), result_cache_items=0)
        engine.submit(imgs[0])
        engine.drain()
        engine.submit(imgs[0])
        engine.drain()
        s = engine.stats()
        assert s["engine"].get("cache_hits", 0) == 0
        assert s["engine"]["completed"] == 2

    def test_lru_eviction(self):
        imgs = _images(3)
        engine, _ = _sim_engine(_predictor(_model()), result_cache_items=2)
        for im in imgs:
            engine.submit(im)
        engine.drain()
        s = engine.stats()
        assert s["result_cache"]["items"] == 2
        assert s["engine"]["result_cache_evictions"] == 1


class TestAdmissionControl:
    def test_overflow_rejects_with_retry_hint(self):
        imgs = _images(3)
        engine, _ = _sim_engine(_predictor(_model()), max_queue=2)
        engine.submit(imgs[0])
        engine.submit(imgs[1])
        with pytest.raises(EngineOverloaded) as exc:
            engine.submit(imgs[2])
        assert exc.value.retry_after > 0
        assert engine.stats()["engine"]["rejected"] == 1
        engine.drain()                      # admitted work still completes
        assert engine.stats()["engine"]["completed"] == 2

    def test_volume_admission_is_atomic(self):
        imgs = _images(4)
        vol = np.stack([prepare_image(im, 1)[0] for im in imgs])
        engine, _ = _sim_engine(_predictor(_model()), max_queue=3)
        with pytest.raises(EngineOverloaded):
            engine.submit_volume(vol)       # 4 slices > 3 slots: all-or-none
        assert engine.stats()["queue"]["total"] == 0

    def test_rejected_volume_rolls_back_all_bookkeeping(self):
        imgs = _images(4)
        slices = [prepare_image(im, 1)[0] for im in imgs]
        engine, _ = _sim_engine(_predictor(_model()), max_queue=2)
        engine.submit(slices[0])
        engine.drain()                      # slice 0 now in the result cache
        with pytest.raises(EngineOverloaded):
            engine.submit_volume(np.stack(slices))   # 3 fresh > 2 slots
        s = engine.stats()
        # the partial hit/collapse accounting of the rejected call is undone
        assert s["engine"].get("cache_hits", 0) == 0
        assert s["engine"].get("collapsed", 0) == 0
        assert s["engine"]["rejected"] == 3
        assert s["result_cache"]["inflight"] == 0
        assert s["queue"]["total"] == 0

    def test_rejected_volume_unchains_twins_from_foreign_primaries(self):
        # Regression: a rejected volume used to roll back only its *own*
        # reservations — a slice that collapsed onto an in-flight primary
        # from an EARLIER submission left a phantom twin future chained
        # there, which later resolved into thin air (latency observed for
        # a request that was never admitted). All-or-nothing admission
        # must unchain those too.
        imgs = _images(4)
        slices = [prepare_image(im, 1)[0] for im in imgs]
        engine, _ = _sim_engine(_predictor(_model()), max_queue=3)
        primary = engine.submit(slices[0])       # queued, in flight
        with pytest.raises(EngineOverloaded):
            # duplicate of slices[0] chains onto the queued primary; the
            # 3 fresh slices then overflow (1 occupied + 3 > 3 slots)
            engine.submit_volume(np.stack([slices[0], slices[1],
                                           slices[2], slices[3]]))
        assert not engine._collapsed             # no phantom twins left
        s = engine.stats()
        assert s["engine"]["rejected"] == 4      # 3 fresh + 1 chained twin
        assert s["engine"].get("collapsed", 0) == 0
        engine.drain()                           # the foreign primary is
        assert primary.result() is not None      # untouched and completes
        assert engine.stats()["engine"]["completed"] == 1


class TestVolumePath:
    def test_submit_volume_matches_predict_volume(self):
        imgs = _images(5)
        model = _model()
        # one bucket for every slice -> chunking matches predict_volume's
        pred = _predictor(model, max_batch=2, bucket=256)
        engine, _ = _sim_engine(pred)
        vol = np.stack([prepare_image(im, 1)[0] for im in imgs])
        fut = engine.submit_volume(vol)
        engine.drain()
        got = fut.result()
        ref = _predictor(model, max_batch=2,
                         bucket=256).predict_volume(vol, batch_size=2)
        np.testing.assert_array_equal(got, ref)
        assert got.shape == vol.shape
        assert engine.stats()["engine"]["volumes"] == 1

    def test_repeated_slices_collapse_within_one_volume(self):
        imgs = _images(3)
        slices = [prepare_image(im, 1)[0] for im in imgs]
        vol = np.stack([slices[0], slices[1], slices[0], slices[2]])
        engine, _ = _sim_engine(_predictor(_model()))
        fut = engine.submit_volume(vol)
        engine.drain()
        assert fut.result().shape == vol.shape
        s = engine.stats()
        assert s["engine"]["completed"] == 3      # 3 unique slices executed
        assert s["engine"]["collapsed"] == 1      # duplicate rode along

    def test_volume_validation(self):
        engine, _ = _sim_engine(_predictor(_model()))
        with pytest.raises(ValueError):
            engine.submit_volume(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            engine.submit_volume(np.empty((0, 8, 8)))   # would never resolve

    def test_unknown_lane_rejected_even_on_cache_hit(self):
        img = _images(1)[0]
        engine, _ = _sim_engine(_predictor(_model()))
        engine.submit(img)
        engine.drain()                      # img now in the result cache
        with pytest.raises(ValueError):
            engine.submit(img, lane="vip")  # must not bypass validation


class TestContinuousBatching:
    def test_deadline_flush_serves_partial_batches(self):
        imgs = _images(2)
        pred = _predictor(_model(), max_batch=8)
        engine, clock = _sim_engine(pred, flush_deadline=0.05)
        engine.submit(imgs[0])
        assert engine.step(now=0.01) is None        # under deadline: wait
        clock.set(0.06)
        report = engine.step()                       # deadline expired
        assert report is not None and report.size == 1
        assert report.cost == ServiceModel().cost(1, report.length)

    def test_full_batch_flushes_before_deadline(self):
        imgs = _images(3)
        pred = _predictor(_model(), max_batch=3, bucket=256)
        engine, _ = _sim_engine(pred, flush_deadline=100.0)
        for im in imgs:
            engine.submit(im)
        report = engine.step(now=0.0)               # full: no deadline wait
        assert report.size == 3

    def test_latency_metrics_use_virtual_time(self):
        imgs = _images(1)
        engine, clock = _sim_engine(_predictor(_model()),
                                    flush_deadline=0.5)
        clock.set(10.0)
        engine.submit(imgs[0])
        report = engine.step(now=10.5)
        lat = engine.stats()["engine"]["latency"]
        assert lat["count"] == 1
        assert lat["max"] == pytest.approx(0.5 + report.cost)

    def test_stats_shape(self):
        engine, _ = _sim_engine(_predictor(_model()))
        s = engine.stats()
        assert set(s) == {"engine", "queue", "result_cache", "predictor",
                          "pipeline"}
        assert s["queue"]["total"] == 0

    def test_config_validation(self):
        pred = _predictor(_model())
        with pytest.raises(TypeError):
            InferenceEngine(pred, frobnicate=1)
        with pytest.raises(ValueError):
            InferenceEngine(pred, max_batch=0)
        with pytest.raises(ValueError):
            InferenceEngine(pred, lanes={"a": -1.0})

    def test_shared_config_not_mutated(self):
        from repro.serve import EngineConfig
        cfg = EngineConfig()
        a = InferenceEngine(_predictor(_model(), max_batch=3), cfg,
                            clock=SimClock().now,
                            service_model=ServiceModel())
        b = InferenceEngine(_predictor(_model(), max_batch=2), cfg,
                            clock=SimClock().now,
                            service_model=ServiceModel())
        assert cfg.max_batch is None            # caller's object untouched
        assert a.config.max_batch == 3
        assert b.config.max_batch == 2          # inherits its own predictor
        a.config.lanes["extra"] = 1.0
        assert "extra" not in b.config.lanes    # lane dicts not shared


class TestWarmup:
    def test_warmup_precompiles_bucket_ladder(self):
        pred = _predictor(_model(), max_batch=2, bucket=16)
        report = pred.warmup(lengths=(16, 32), batch_sizes=(1, 2))
        assert report["compiled"] == 4
        assert pred.stats["plans"] == 4
        # warming again is a no-op
        assert pred.warmup(lengths=(16, 32), batch_sizes=(1, 2))["compiled"] == 0

    def test_warmup_normalizes_to_bucket_grid(self):
        pred = _predictor(_model(), max_batch=2, bucket=16)
        pred.warmup(lengths=(17, 30), batch_sizes=(1,))   # both -> 32
        assert pred.stats["plans"] == 1

    def test_first_request_hits_warm_plan(self):
        imgs = _images(1)
        pred = _predictor(_model(), max_batch=1, bucket=16)
        seq = pred._naturals(imgs, [0])[0]
        pred.warmup(lengths=(len(seq),), batch_sizes=(1,))
        plans = pred.stats["plans"]
        pred.predict_batch(imgs, keys=[0])
        assert pred.stats["plans"] == plans     # no compile on first request

    def test_warmup_noop_in_eager_mode(self):
        pred = _predictor(_model(), compiled=False)
        assert pred.warmup()["compiled"] == 0

    def test_warmup_validation(self):
        with pytest.raises(ValueError):
            _predictor(_model()).warmup(lengths=(0,))

    def test_engine_start_warms_configured_lengths(self):
        pred = _predictor(_model(), max_batch=2, bucket=16)
        engine, _ = _sim_engine(pred, warmup_lengths=(16,))
        assert engine.warmup()["compiled"] == 2       # batch sizes 1 and 2
        assert pred.stats["plans"] == 2


class TestThreadedEngine:
    def test_start_submit_stop_real_clock(self):
        imgs = _images(4)
        model = _model()
        pred = _predictor(model, max_batch=2, bucket=16)
        engine = InferenceEngine(pred, flush_deadline=0.005, max_queue=32,
                                 warmup_lengths=(16,))
        engine.start(warmup=True)
        try:
            futs = [engine.submit(im) for im in imgs]
            maps = [f.result(timeout=60) for f in futs]
        finally:
            engine.stop()
        ref = _predictor(model, max_batch=2,
                         bucket=16).predict_batch(imgs, keys=list(range(4)))
        for got, expected in zip(maps, ref):
            assert got.shape == expected.shape
            np.testing.assert_allclose(got, expected, atol=1e-5)
        assert engine.stats()["engine"]["completed"] == 4
        with pytest.raises(RuntimeError):
            engine._thread = threading.Thread(target=lambda: None)
            engine.start()

    def test_stop_drains_pending_requests(self):
        imgs = _images(2)
        pred = _predictor(_model(), max_batch=8)
        engine = InferenceEngine(pred, flush_deadline=120.0)  # never flushes
        engine.start(warmup=False)
        futs = [engine.submit(im) for im in imgs]
        time.sleep(0.05)
        assert not any(f.done() for f in futs)      # waiting on the deadline
        engine.stop()                               # force-drains
        assert all(f.done() for f in futs)

    def test_concurrent_submitters(self):
        imgs = _images(6)
        pred = _predictor(_model(), max_batch=4, bucket=16)
        engine = InferenceEngine(pred, flush_deadline=0.005, max_queue=64)
        engine.start(warmup=False)
        results = [None] * len(imgs)

        def client(i):
            results[i] = engine.submit(imgs[i]).result(timeout=60)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(imgs))]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            engine.stop()
        assert all(r is not None and r.shape == (1, 64, 64) for r in results)
        assert engine.stats()["engine"]["completed"] + \
            engine.stats()["engine"].get("cache_hits", 0) == len(imgs)


def _fail_first_execute(engine, monkeypatch):
    """Make the engine's next ``scheduler.execute`` raise, then recover."""
    real = engine.scheduler.execute
    calls = []

    def execute(seqs):
        calls.append(len(seqs))
        if len(calls) == 1:
            raise RuntimeError("injected execute failure")
        return real(seqs)

    monkeypatch.setattr(engine.scheduler, "execute", execute)


class TestFailedBatch:
    """A batch whose execution raises fails its futures and twins and
    leaves no reservation behind, so the same payload can run again."""

    def test_drain_mode_resubmission_resolves(self, monkeypatch):
        img = _images(1)[0]
        engine, _ = _sim_engine(_predictor(_model()))
        _fail_first_execute(engine, monkeypatch)
        primary = engine.submit(img)
        twin = engine.submit(img)               # collapses onto primary
        with pytest.raises(RuntimeError):
            engine.drain()                      # callers still see the error
        for fut in (primary, twin):
            assert isinstance(fut.exception(timeout=0), RuntimeError)
        s = engine.stats()
        assert s["result_cache"]["inflight"] == 0 and engine.pending == 0
        assert s["engine"]["failed"] == 2
        again = engine.submit(img)              # not chained to a dead primary
        engine.drain()
        assert again.result(timeout=0).shape == (1, 64, 64)

    def test_threaded_batcher_survives(self, monkeypatch):
        img = _images(1)[0]
        engine = InferenceEngine(_predictor(_model()), flush_deadline=0.005)
        _fail_first_execute(engine, monkeypatch)
        engine.start(warmup=False)
        try:
            with pytest.raises(RuntimeError):
                engine.submit(img).result(timeout=60)
            assert engine.is_running
            again = engine.submit(img)
            assert again.result(timeout=60).shape == (1, 64, 64)
        finally:
            engine.stop()
        assert engine.stats()["result_cache"]["inflight"] == 0


class TestObservabilityGauges:
    """ISSUE 5 satellite: result-cache hit rate + peak queue depth in stats()."""

    def test_peak_queue_depth_tracks_high_water_mark(self):
        engine, _ = _sim_engine(_predictor(_model()), result_cache_items=0)
        for im in _images(5):
            engine.submit(im)
        assert engine.stats()["queue"]["peak_depth"] == 5
        engine.drain()
        stats = engine.stats()
        assert stats["queue"]["total"] == 0
        assert stats["queue"]["peak_depth"] == 5     # peak survives the drain
        assert stats["engine"]["queue_depth"]["value"] == 0

    def test_result_cache_hit_rate(self):
        engine, _ = _sim_engine(_predictor(_model()), result_cache_items=8)
        img = _images(1)[0]
        engine.submit(img)
        engine.drain()
        engine.submit(img)                           # served from the cache
        engine.drain()
        stats = engine.stats()
        assert stats["result_cache"]["hits"] == 1
        assert stats["result_cache"]["hit_rate"] == pytest.approx(0.5)

    def test_hit_rate_zero_without_traffic(self):
        engine, _ = _sim_engine(_predictor(_model()))
        assert engine.stats()["result_cache"]["hit_rate"] == 0.0

    def test_is_running_reflects_thread_liveness(self):
        engine = InferenceEngine(_predictor(_model()))
        assert not engine.is_running
        engine.start(warmup=False)
        assert engine.is_running
        engine.stop()
        assert not engine.is_running
        # a crashed batcher must read as not-running, not merely started
        dead = threading.Thread(target=lambda: None)
        dead.start()
        dead.join()
        engine._thread = dead
        assert not engine.is_running
        engine._thread = None


class TestEvictAdopt:
    """Fleet-membership primitives: evicting a backlog and adopting it on a
    peer engine (what FleetRouter.kill is built from)."""

    def test_evict_returns_backlog_and_clears_queue(self):
        engine, _ = _sim_engine(_predictor(_model()), result_cache_items=8)
        imgs = _images(4)
        futs = [engine.submit(im) for im in imgs]
        reqs, chains = engine.evict_pending()
        assert len(reqs) == 4
        assert engine.pending == 0
        assert all(not f.done() for f in futs)          # unresolved, not failed
        assert engine.metrics.counter("evicted").value == 4
        assert all(chains[id(r)] == [] for r in reqs)
        # reservations are gone: resubmitting the payload starts fresh
        assert engine.stats()["result_cache"]["inflight"] == 0

    def test_adopt_runs_foreign_requests_to_completion(self):
        model = _model()
        src, _ = _sim_engine(_predictor(model), result_cache_items=8)
        dst, _ = _sim_engine(_predictor(model), result_cache_items=8)
        imgs = _images(3)
        futs = [src.submit(im) for im in imgs]
        reqs, chains = src.evict_pending()
        dst.adopt(reqs, chains)
        assert dst.pending == 3
        assert dst.metrics.counter("adopted").value == 3
        dst.drain()
        ref = _predictor(model).predict_batch(imgs)
        for fut, r in zip(futs, ref):
            np.testing.assert_array_equal(fut.result(), r)

    def test_adopt_transfers_collapsed_twins(self):
        model = _model()
        src, _ = _sim_engine(_predictor(model), result_cache_items=8)
        dst, _ = _sim_engine(_predictor(model), result_cache_items=8)
        img = _images(1)[0]
        first = src.submit(img)
        twin = src.submit(img)             # collapses onto first, not queued
        reqs, chains = src.evict_pending()
        assert len(reqs) == 1
        assert len(chains[id(reqs[0])]) == 1
        dst.adopt(reqs, chains)
        dst.drain()
        np.testing.assert_array_equal(first.result(), twin.result())
        # a later duplicate on the adoptive engine hits its cache
        third = dst.submit(img)
        assert third.done()
        assert dst.metrics.counter("cache_hits").value == 1

    def test_adopt_is_atomic_on_overflow(self):
        model = _model()
        src, _ = _sim_engine(_predictor(model))
        dst, _ = _sim_engine(_predictor(model), max_queue=2)
        for im in _images(4):
            src.submit(im)
        reqs, chains = src.evict_pending()
        with pytest.raises(EngineOverloaded):
            dst.adopt(reqs, chains)
        assert dst.pending == 0            # nothing partially admitted
        assert all(not r.future.done() for r in reqs)

    def test_adopt_nothing_is_noop(self):
        engine, _ = _sim_engine(_predictor(_model()))
        engine.adopt([])
        assert engine.pending == 0

    def test_pending_tracks_queue_depth(self):
        engine, _ = _sim_engine(_predictor(_model()), result_cache_items=0)
        assert engine.pending == 0
        for im in _images(3):
            engine.submit(im)
        assert engine.pending == 3
        engine.drain()
        assert engine.pending == 0
