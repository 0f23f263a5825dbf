"""Tests for PyramidService: cache/join/submit ladder, priority ordering,
speculative prefetch, and stale-viewport cancellation hygiene."""

import numpy as np
import pytest

from repro.models.vit import ViTSegmenter
from repro.pipeline import PatchPipeline
from repro.pyramid import PyramidService, PyramidTile, TilePyramid
from repro.quadtree.hilbert import hilbert_encode
from repro.serve import InferenceEngine, Predictor, ServiceModel, SimClock
from repro.stream.source import ArraySource


def _pyramid(res=256, tile=32, seed=0):
    rng = np.random.default_rng(seed)
    return TilePyramid(ArraySource(rng.random((res, res, 3))), tile=tile)


def _engine(clock, **kw):
    model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1, heads=2,
                         max_len=256, rng=np.random.default_rng(1))
    pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                         cache_items=64)
    pred = Predictor(model, pipe, max_batch=kw.pop("max_batch", 4), bucket=16)
    args = dict(clock=clock.now, service_model=ServiceModel(),
                result_cache_items=32)
    args.update(kw)
    return InferenceEngine(pred, **args)


def _service(**kw):
    clock = SimClock()
    pyramid = kw.pop("pyramid", None) or _pyramid()
    engine = _engine(clock, **{k: kw.pop(k) for k in ("max_queue", "max_batch")
                               if k in kw})
    svc = PyramidService(pyramid, engine, clock=clock.now, **kw)
    return svc, engine, clock


class TestTileCache:
    """The service's tile-result cache: ``svc.cache``, reported as
    ``stats()["tile_cache"]``."""

    def test_lru_and_stats(self):
        svc, _, _ = _service(cache_items=2)
        a, b, c = (np.full((2, 2), v) for v in (1.0, 2.0, 3.0))
        svc.cache.put("a", a)
        svc.cache.put("b", b)
        assert svc.cache.get("a") is not None  # refresh a
        svc.cache.put("c", c)                  # evicts b
        assert svc.cache.get("b") is None
        assert svc.cache.get("c") is not None
        stats = svc.stats()["tile_cache"]
        assert stats["evictions"] == 1
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert 0 < stats["hit_rate"] < 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            _service(cache_items=0)


class TestResolveLadder:
    def test_submit_then_cache_hit(self):
        svc, engine, _ = _service(prefetch_tiles=0)
        first = svc.request_viewport("a", 0, (0, 0), (64, 64))
        assert first.submitted == len(first.tasks) == 4
        engine.drain()
        again = svc.request_viewport("a", 0, (0, 0), (64, 64))
        assert again.cache_hits == 4 and again.submitted == 0
        assert all(t.cached and t.done_t == t.submit_t for t in again.tasks)
        assert svc.outstanding == 0

    def test_cached_results_are_frozen_private_copies(self):
        svc, engine, _ = _service(prefetch_tiles=0)
        task = svc.request_viewport("a", 0, (0, 0), (32, 32)).tasks[0]
        engine.drain()
        fresh = task.future.result()
        cached = svc.cache.peek(task.digest)
        np.testing.assert_array_equal(cached, fresh)
        fresh[0, 0, 0] = 99.0              # the future's array stays writable
        assert cached[0, 0, 0] != 99.0     # and does not alias the cache
        with pytest.raises(ValueError):
            cached[0, 0, 0] = 1.0
        assert svc.stats()["tile_cache"]["hits"] == 0   # peek counts nothing

    def test_cross_session_join(self):
        svc, engine, _ = _service(prefetch_tiles=0)
        a = svc.request_viewport("a", 0, (0, 0), (64, 64))
        b = svc.request_viewport("b", 0, (0, 0), (64, 64))
        assert b.joined == 4 and b.submitted == 0
        assert {id(t) for t in a.tasks} == {id(t) for t in b.tasks}
        assert all(t.sessions == {"a", "b"} for t in b.tasks)
        # one execution serves both: engine saw exactly 4 submissions
        assert engine.stats()["engine"]["submitted"] == 4
        engine.drain()
        assert svc.outstanding == 0

    def test_results_bit_identical_to_direct_prediction(self):
        svc, engine, _ = _service(prefetch_tiles=0, max_batch=1)
        report = svc.request_viewport("a", 1, (0, 0), (64, 64))
        engine.drain()
        for task in report.tasks:
            ref = engine.predictor.predict_image(
                svc.pyramid.tile_pixels(task.tile))
            np.testing.assert_array_equal(svc.tile_result(task), ref)

    def test_visible_rejection_surfaces(self):
        svc, engine, _ = _service(prefetch_tiles=0, max_queue=2)
        report = svc.request_viewport("a", 0, (0, 0), (128, 128))
        assert report.submitted == 2
        assert report.rejected == len(report.tasks) - 2
        rejected = [t for t in report.tasks if t.rejected]
        assert all(t.future is None for t in rejected)
        engine.drain()
        # re-request: completed tiles hit the cache, the rest resubmit
        again = svc.request_viewport("a", 0, (0, 0), (128, 128))
        assert again.cache_hits == 2 and again.submitted == 2
        engine.drain()

    def test_tile_result_without_result_raises(self):
        svc, _, _ = _service(prefetch_tiles=0, max_queue=1)
        report = svc.request_viewport("a", 0, (0, 0), (64, 64))
        dropped = [t for t in report.tasks if t.rejected]
        with pytest.raises(LookupError):
            svc.tile_result(dropped[0])


class TestOrdering:
    def test_priority_is_center_out(self):
        svc, _, _ = _service(prefetch_tiles=0)
        report = svc.request_viewport("a", 0, (0, 0), (96, 96))
        first = report.tasks[0].tile
        assert (first.ty, first.tx) == (1, 1)   # center tile of a 3x3 cover
        # window center (48, 48) = tile coordinate (1, 1) in tile units
        dist = [(t.tile.ty - 1) ** 2 + (t.tile.tx - 1) ** 2
                for t in report.tasks]
        assert dist == sorted(dist)

    def test_fifo_is_row_major(self):
        svc, _, _ = _service(policy="fifo", prefetch_tiles=0)
        report = svc.request_viewport("a", 0, (0, 0), (96, 96))
        order = [(t.tile.ty, t.tile.tx) for t in report.tasks]
        assert order == sorted(order)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            _service(policy="lifo")
        with pytest.raises(ValueError):
            _service(prefetch_order="zorder")


class TestPrefetch:
    def test_pan_direction_extrapolation(self):
        svc, engine, _ = _service(prefetch_tiles=8)
        svc.request_viewport("a", 0, (0, 0), (64, 64))
        engine.drain()
        report = svc.request_viewport("a", 0, (0, 32), (64, 64))
        # motion is +x: speculation covers the next shift (0, 64)..(64, 128)
        assert report.prefetched
        assert {t.tile for t in report.prefetched} == {
            PyramidTile(0, 0, 3), PyramidTile(0, 1, 3)}
        assert all(t.lane == "bulk" and t.prefetch
                   for t in report.prefetched)
        engine.drain()
        assert svc.outstanding == 0

    def test_zoom_adjacent_without_motion(self):
        svc, engine, _ = _service(prefetch_tiles=8)
        report = svc.request_viewport("a", 0, (0, 0), (64, 64))
        # no pan history: speculate the parent level (zoom-out is one
        # click away) and the center tile's children (none at level 0)
        assert {t.tile.level for t in report.prefetched} == {1}
        engine.drain()

    def test_prefetch_order_follows_curve(self):
        pyramid = _pyramid(res=512)
        svc, engine, _ = _service(pyramid=pyramid, prefetch_tiles=16)
        svc.request_viewport("a", 0, (128, 128), (64, 64))
        engine.drain()
        report = svc.request_viewport("a", 0, (160, 160), (64, 64))
        tiles = [t.tile for t in report.prefetched]
        assert len(tiles) >= 2
        codes = hilbert_encode(np.array([t.ty for t in tiles]),
                               np.array([t.tx for t in tiles]))
        assert list(codes) == sorted(codes)
        engine.drain()

    def test_prefetch_rejection_is_silent(self):
        svc, engine, _ = _service(prefetch_tiles=8, max_queue=4)
        report = svc.request_viewport("a", 0, (0, 0), (64, 64))
        assert report.rejected == 0             # visible tiles all admitted
        assert report.prefetch_rejected > 0     # speculation shed silently
        engine.drain()

    def test_prefetch_never_duplicates_visible_or_cached(self):
        svc, engine, _ = _service(prefetch_tiles=16)
        first = svc.request_viewport("a", 1, (0, 0), (64, 64))
        engine.drain()
        report = svc.request_viewport("a", 1, (0, 0), (64, 64))
        visible = {t.tile for t in report.tasks}
        speculative = {t.tile for t in report.prefetched}
        assert not (visible & speculative)
        cached = {t.tile for t in first.tasks}
        assert not (cached & speculative)
        engine.drain()


class TestStaleCancellation:
    def test_pan_away_cancels_queued_tiles(self):
        svc, engine, _ = _service(prefetch_tiles=0)
        first = svc.request_viewport("a", 0, (0, 0), (64, 64))
        report = svc.request_viewport("a", 0, (160, 160), (64, 64))
        assert report.cancelled_stale == len(first.tasks)
        assert all(t.cancelled and t.future.cancelled()
                   for t in first.tasks)
        engine.drain()
        assert svc.outstanding == 0
        assert engine.stats()["engine"]["cancelled"] == len(first.tasks)

    def test_overlap_is_kept(self):
        svc, engine, _ = _service(prefetch_tiles=0)
        first = svc.request_viewport("a", 0, (0, 0), (64, 64))
        report = svc.request_viewport("a", 0, (32, 32), (64, 64))
        kept = {t.tile for t in first.tasks} & {t.tile for t in report.tasks}
        assert kept                              # overlapping pan
        assert report.cancelled_stale == len(first.tasks) - len(kept)
        assert report.joined == len(kept)
        engine.drain()
        assert svc.outstanding == 0

    def test_shared_tiles_survive_other_sessions(self):
        svc, engine, _ = _service(prefetch_tiles=0)
        a = svc.request_viewport("a", 0, (0, 0), (64, 64))
        svc.request_viewport("b", 0, (0, 0), (64, 64))
        moved = svc.request_viewport("a", 0, (160, 160), (64, 64))
        # session b still wants those tiles: nothing may be cancelled
        assert moved.cancelled_stale == 0
        assert all(not t.cancelled for t in a.tasks)
        engine.drain()
        assert all(t.future.done() and not t.future.cancelled()
                   for t in a.tasks)

    def test_no_poisoned_cache_after_cancel(self):
        # A cancelled tile, when requested again, re-executes and matches
        # the direct prediction bit for bit (reservations torn down).
        svc, engine, _ = _service(prefetch_tiles=0, max_batch=1)
        first = svc.request_viewport("a", 0, (0, 0), (32, 32))
        svc.request_viewport("a", 0, (224, 224), (32, 32))
        assert first.tasks[0].cancelled
        again = svc.request_viewport("a", 0, (0, 0), (32, 32))
        assert again.submitted == 1
        engine.drain()
        ref = engine.predictor.predict_image(
            svc.pyramid.tile_pixels(first.tasks[0].tile))
        np.testing.assert_array_equal(svc.tile_result(again.tasks[0]), ref)
        assert svc.outstanding == 0

    def test_fifo_never_cancels(self):
        svc, engine, _ = _service(policy="fifo", prefetch_tiles=0)
        first = svc.request_viewport("a", 0, (0, 0), (64, 64))
        report = svc.request_viewport("a", 0, (160, 160), (64, 64))
        assert report.cancelled_stale == 0
        engine.drain()
        assert all(t.future.done() and not t.future.cancelled()
                   for t in first.tasks)

    def test_dispatched_work_is_not_cancelled(self):
        svc, engine, clock = _service(prefetch_tiles=0)
        first = svc.request_viewport("a", 0, (0, 0), (32, 32))
        engine.drain()                           # already executed
        report = svc.request_viewport("a", 0, (224, 224), (32, 32))
        assert report.cancelled_stale == 0
        assert not first.tasks[0].cancelled

    def test_stats_shape(self):
        svc, engine, _ = _service()
        svc.request_viewport("a", 0, (0, 0), (64, 64))
        engine.drain()
        stats = svc.stats()
        assert stats["outstanding"] == 0
        assert stats["policy"] == "priority"
        assert stats["tile_cache"]["capacity"] == 512
        assert stats["service"]["viewports"] == 1
