"""PatchPipeline: cache behaviour, worker determinism, collation, and the
end-to-end dataset→loader→trainer pathway."""

import numpy as np
import pytest

from repro import nn
from repro.data import DataLoader, SyntheticPAIP, generate_wsi
from repro.models import ViTSegmenter
from repro.patching import AdaptivePatcher
from repro.pipeline import CollatedBatch, PatchPipeline, collate_batch
from repro.train import TokenSegmentationTask, Trainer


def images(res, n, start=0):
    return [generate_wsi(res, seed=start + s).image for s in range(n)]


class TestLRUCache:
    """The pipeline's sequence cache is least-recently-used: a hit
    refreshes its entry, so eviction drops the entry used longest ago."""

    def test_eviction_order(self):
        pipe = PatchPipeline(patch_size=4, split_value=2.0, cache_items=2)
        a, b, c = images(64, 3)
        pipe.process([a, b], keys=["a", "b"])
        pipe.process([a], keys=["a"])      # refreshes a
        pipe.process([c], keys=["c"])      # evicts b (least recently used)
        assert pipe.cache.peek("b") is None
        assert pipe.cache.peek("a") is not None
        assert pipe.cache.peek("c") is not None
        assert pipe.stats["evictions"] == 1

    def test_get_or_build_lru(self):
        pipe = PatchPipeline(patch_size=4, split_value=2.0, cache_items=1)
        x, y = images(64, 2)
        pipe.process([x], keys=["x"])
        [built] = pipe.process([y], keys=["y"])
        assert pipe.stats["evictions"] == 1
        assert pipe.process([y], keys=["y"])[0] is built
        assert pipe.stats["hits"] == 1


class TestPipelineCache:
    def test_hits_on_repeat_keys(self):
        pipe = PatchPipeline(patch_size=4, split_value=2.0, cache_items=8)
        imgs = images(64, 4)
        pipe.process(imgs, keys=[0, 1, 2, 3])
        pipe.process(imgs, keys=[0, 1, 2, 3])
        assert pipe.stats["misses"] == 4
        assert pipe.stats["hits"] == 4
        assert pipe.stats["hit_rate"] == pytest.approx(0.5)
        assert pipe.stats["build_seconds"] > 0

    def test_content_keys_without_ids(self):
        pipe = PatchPipeline(patch_size=4, split_value=2.0, cache_items=8)
        imgs = images(64, 2)
        pipe.process(imgs)
        pipe.process(imgs)
        assert pipe.stats["hits"] == 2

    def test_cached_results_identical(self):
        pipe = PatchPipeline(patch_size=4, split_value=2.0, cache_items=8)
        imgs = images(64, 3)
        first = pipe.process(imgs, keys=[0, 1, 2])
        second = pipe.process(imgs, keys=[0, 1, 2])
        for a, b in zip(first, second):
            assert a is b   # cache returns the same object

    def test_cache_disabled(self):
        pipe = PatchPipeline(patch_size=4, split_value=2.0, cache_items=0)
        imgs = images(64, 2)
        pipe.process(imgs)
        assert pipe.stats == {}

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            PatchPipeline(patch_size=4, cache_items=-1)

    def test_eviction_under_capacity_pressure(self):
        pipe = PatchPipeline(patch_size=4, split_value=2.0, cache_items=2)
        imgs = images(64, 4)
        pipe.process(imgs, keys=[0, 1, 2, 3])
        assert pipe.stats["evictions"] == 2
        assert pipe.stats["items"] == 2

    def test_warm_precomputes_dataset(self):
        pipe = PatchPipeline(patch_size=4, split_value=2.0, target_length=64,
                             cache_items=16)
        ds = SyntheticPAIP(64, 5)
        stats = pipe.warm(ds, batch_size=2)
        assert stats["misses"] == 5
        # A full epoch through the loader is now all hits.
        loader = DataLoader(ds, batch_size=2, pipeline=pipe)
        for _ in loader:
            pass
        assert pipe.stats["hits"] >= 5


class TestSingleImageDropIn:
    """The task-adapter pathway: ``pipe(image)`` is a cached natural
    sequence plus a fresh drop, a drop-in for a plain patcher."""

    def test_same_geometry_as_uncached(self):
        img = images(64, 1)[0]
        plain = AdaptivePatcher(patch_size=4, split_value=2.0)(img)
        piped = PatchPipeline(patch_size=4, split_value=2.0)(img)
        np.testing.assert_array_equal(plain.ys, piped.ys)
        np.testing.assert_array_equal(plain.patches, piped.patches)

    def test_second_call_hits_cache(self):
        pipe = PatchPipeline(patch_size=4, split_value=2.0)
        img = images(64, 1)[0]
        pipe(img, keys="x")
        pipe(img, keys="x")
        assert pipe.stats["hits"] == 1 and pipe.stats["misses"] == 1
        assert pipe.stats["build_seconds"] > 0

    def test_content_keying_without_explicit_key(self):
        pipe = PatchPipeline(patch_size=4, split_value=2.0)
        a, b = images(64, 2)
        pipe(a)
        pipe(a)                            # same content, same key
        pipe(b)
        assert pipe.stats["hits"] == 1 and pipe.stats["misses"] == 2

    def test_drops_still_random_after_cache(self):
        # The cached natural sequence is shared but the drop step must stay
        # stochastic across calls (training-time augmentation).
        pipe = PatchPipeline(patch_size=2, split_value=0.5, target_length=10)
        img = images(64, 1)[0]
        s1 = pipe(img, keys="k")
        s2 = pipe(img, keys="k")
        assert pipe.stats["misses"] == 1
        assert len(s1) == len(s2) == 10
        # Different drops almost surely pick different leaves.
        assert (not np.array_equal(s1.ys, s2.ys)
                or not np.array_equal(s1.xs, s2.xs))

    def test_extract_natural_cached(self):
        pipe = PatchPipeline(patch_size=4, split_value=2.0, target_length=32)
        img = images(64, 1)[0]
        assert pipe.extract_natural(img) is pipe.extract_natural(img)

    def test_works_in_token_task(self):
        sample = generate_wsi(64, seed=0)
        pipe = PatchPipeline(patch_size=4, split_value=2.0, target_length=128)
        model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1,
                             heads=2, max_len=256)
        task = TokenSegmentationTask(model, pipe, channels=1)
        loss1 = task.val_loss([sample])
        loss2 = task.val_loss([sample])
        assert np.isfinite(loss1) and np.isfinite(loss2)
        assert pipe.stats["hits"] >= 1
        # Evaluation path must use the natural (no-drop) sequence.
        assert task.predict_probs(sample).shape == (1, 64, 64)


class TestKeying:
    """Content-hash vs caller-id cache keying must agree on results and
    differ only in how entries are addressed."""

    def test_content_and_id_keying_identical_sequences(self):
        imgs = images(64, 3)
        by_content = PatchPipeline(patch_size=4, split_value=2.0,
                                   cache_items=8)
        by_id = PatchPipeline(patch_size=4, split_value=2.0, cache_items=8)
        a = by_content.process(imgs)                   # content hashes
        b = by_id.process(imgs, keys=[10, 11, 12])     # caller ids
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.patches, y.patches)
            np.testing.assert_array_equal(x.ys, y.ys)

    def test_content_keying_dedupes_identical_images(self):
        img = images(64, 1)[0]
        pipe = PatchPipeline(patch_size=4, split_value=2.0, cache_items=8)
        pipe.process([img])
        # A byte-identical copy hits the cache — content addressing, not
        # object identity.
        pipe.process([img.copy()])
        assert pipe.stats["misses"] == 1
        assert pipe.stats["hits"] == 1

    def test_id_keying_trusts_caller_over_content(self):
        imgs = images(64, 2)
        pipe = PatchPipeline(patch_size=4, split_value=2.0, cache_items=8)
        first = pipe.process([imgs[0]], keys=[0])
        # Same key, different image: the cache serves the keyed entry.
        second = pipe.process([imgs[1]], keys=[0])
        assert second[0] is first[0]
        assert pipe.stats["hits"] == 1

    @pytest.mark.parametrize("cache_items", [0, 8])
    @pytest.mark.parametrize("keys", [[9, 10], [9, 10, 11, 12], []])
    def test_key_count_must_match_image_count(self, cache_items, keys):
        # Fewer keys used to return None for the trailing images (and a
        # short collated batch); more keys raised a bare IndexError.
        pipe = PatchPipeline(patch_size=4, split_value=2.0,
                             target_length=16, cache_items=cache_items)
        imgs = images(64, 3)
        with pytest.raises(ValueError, match="keys for 3 images"):
            pipe.process(imgs, keys=keys)
        with pytest.raises(ValueError, match="keys for 3 images"):
            pipe.collate(imgs, keys=keys)
        assert pipe.stats.get("misses", 0) == 0
        assert len(pipe.collate(imgs, keys=[9, 10, 11]).tokens) == 3

    def test_key_seed_stability_across_types(self):
        from repro.pipeline.engine import _key_seed
        assert _key_seed(42) == 42
        assert _key_seed(-7) == 7
        # Non-int keys hash identically across processes (blake2b, not the
        # salted builtin) — same key, same seed, every run.
        assert _key_seed("subject-3/slice-9") == _key_seed("subject-3/slice-9")
        assert _key_seed(("a", 1)) != _key_seed(("a", 2))

    def test_content_keys_differ_for_different_images(self):
        from repro.pipeline.engine import content_key
        a, b = images(64, 2)
        assert content_key(a) != content_key(b)
        assert content_key(a) == content_key(a.copy())


class TestWorkerDeterminism:
    @pytest.mark.parametrize("workers", [0, 2, 4])
    def test_worker_count_invariant(self, workers):
        imgs = images(64, 7)
        base = PatchPipeline(patch_size=4, split_value=2.0, cache_items=0,
                             target_length=64)
        pipe = PatchPipeline(patch_size=4, split_value=2.0, cache_items=0,
                             target_length=64, workers=workers)
        a = base.collate(imgs, epoch=2)
        b = pipe.collate(imgs, epoch=2)
        np.testing.assert_array_equal(a.tokens, b.tokens)
        np.testing.assert_array_equal(a.valid, b.valid)
        np.testing.assert_array_equal(a.coords, b.coords)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_process_executor_matches(self, workers):
        imgs = images(64, 5)
        base = PatchPipeline(patch_size=4, split_value=2.0, cache_items=0)
        procs = PatchPipeline(patch_size=4, split_value=2.0, cache_items=0,
                              workers=workers, executor="process")
        for a, b in zip(base.process(imgs), procs.process(imgs)):
            np.testing.assert_array_equal(a.patches, b.patches)
            np.testing.assert_array_equal(a.ys, b.ys)

    def test_drops_invariant_to_batch_composition(self):
        # Same key + epoch => same drop pattern regardless of where the
        # image lands in a batch or how large the batch is.
        imgs = images(64, 3, start=40)
        pipe = PatchPipeline(patch_size=2, split_value=0.5, target_length=12,
                             cache_items=8)
        full = pipe.collate(imgs, keys=[10, 11, 12], epoch=1)
        solo = pipe.collate([imgs[2]], keys=[12], epoch=1)
        np.testing.assert_array_equal(full.tokens[2], solo.tokens[0])
        reordered = pipe.collate(imgs[::-1], keys=[12, 11, 10], epoch=1)
        np.testing.assert_array_equal(full.tokens[2], reordered.tokens[0])

    def test_epoch_changes_drops_deterministically(self):
        imgs = images(64, 3, start=20)
        pipe = PatchPipeline(patch_size=2, split_value=0.5, target_length=12,
                             cache_items=8)
        e0 = pipe.collate(imgs, keys=[0, 1, 2], epoch=0)
        e0_again = pipe.collate(imgs, keys=[0, 1, 2], epoch=0)
        e1 = pipe.collate(imgs, keys=[0, 1, 2], epoch=1)
        np.testing.assert_array_equal(e0.tokens, e0_again.tokens)
        assert not np.array_equal(e0.tokens, e1.tokens)

    def test_invalid_options(self):
        with pytest.raises(ValueError):
            PatchPipeline(workers=-1)
        with pytest.raises(ValueError):
            PatchPipeline(executor="mpi")


class TestCollation:
    def test_shapes_and_mask(self):
        imgs = images(64, 5)
        pipe = PatchPipeline(patch_size=4, split_value=2.0, target_length=32,
                             cache_items=0)
        batch = pipe.collate(imgs)
        assert isinstance(batch, CollatedBatch)
        assert batch.tokens.shape == (5, 32, 3 * 16)
        assert batch.valid.shape == (5, 32)
        assert batch.coords.shape == (5, 32, 3)
        assert batch.batch_size == 5 and batch.length == 32
        assert len(batch) == 5
        # Padded slots carry zero tokens.
        assert np.all(batch.tokens[~batch.valid] == 0.0)

    def test_collate_requires_length(self):
        pipe = PatchPipeline(patch_size=4, split_value=2.0, cache_items=0)
        with pytest.raises(ValueError):
            pipe.collate(images(64, 1))

    def test_collate_batch_rejects_mixed_lengths(self):
        pipe = PatchPipeline(patch_size=4, split_value=1.0, cache_items=0)
        seqs = pipe.process(images(64, 2))
        if len(seqs[0]) != len(seqs[1]):
            with pytest.raises(ValueError):
                collate_batch(seqs)

    def test_channel_adaptation(self):
        pipe = PatchPipeline(patch_size=4, split_value=2.0, target_length=32,
                             cache_items=0, channels=1)
        batch = pipe.collate(images(64, 2))
        assert batch.tokens.shape[2] == 16    # 1 channel * 4 * 4


class TestEndToEnd:
    def test_loader_yields_collated_batches(self):
        ds = SyntheticPAIP(64, 4)
        pipe = PatchPipeline(patch_size=4, split_value=2.0, target_length=64,
                             cache_items=16, channels=1)
        loader = DataLoader(ds, batch_size=2, pipeline=pipe)
        batches = list(loader)
        assert len(batches) == 2
        assert all(isinstance(b, CollatedBatch) for b in batches)
        assert batches[0].samples is not None
        # Second epoch: all patching served from cache.
        misses = pipe.stats["misses"]
        list(loader)
        assert pipe.stats["misses"] == misses

    def test_trainer_consumes_pipeline_loader(self):
        ds = SyntheticPAIP(64, 4)
        pipe = PatchPipeline(patch_size=4, split_value=2.0, target_length=96,
                             cache_items=16, channels=1)
        loader = DataLoader(ds, batch_size=2, shuffle=True, pipeline=pipe)
        model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1,
                             heads=2, max_len=128)
        task = TokenSegmentationTask(model, pipe, channels=1)
        trainer = Trainer(task, nn.SGD(task.parameters(), lr=0.05))
        history = trainer.fit_loader(loader, [ds[0]], epochs=2)
        assert history.epochs == 2
        assert all(np.isfinite(v) for v in history.train_loss)
        # Patching ran once per train image (4, keyed by dataset index) plus
        # once for the val sample (content-hash key) — not once per epoch.
        assert pipe.stats["misses"] == 5
        assert pipe.stats["hits"] >= 4

    def test_collated_loss_matches_finiteness(self):
        ds = SyntheticPAIP(64, 2)
        pipe = PatchPipeline(patch_size=4, split_value=2.0, target_length=64,
                             cache_items=4, channels=1)
        model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1,
                             heads=2, max_len=128)
        task = TokenSegmentationTask(model, pipe, channels=1)
        batch = pipe.collate_samples([ds[0], ds[1]])
        loss = task.batch_loss(batch)
        assert np.isfinite(float(loss.data))

    def test_collated_loss_requires_samples(self):
        pipe = PatchPipeline(patch_size=4, split_value=2.0, target_length=64,
                             cache_items=0, channels=1)
        model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1,
                             heads=2, max_len=128)
        task = TokenSegmentationTask(model, pipe, channels=1)
        batch = pipe.collate(images(64, 2))
        with pytest.raises(ValueError):
            task.batch_loss(batch)

    def test_train_epoch_loader_empty_raises(self):
        pipe = PatchPipeline(patch_size=4, split_value=2.0, target_length=64,
                             cache_items=0, channels=1)
        model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1,
                             heads=2, max_len=128)
        task = TokenSegmentationTask(model, pipe, channels=1)
        trainer = Trainer(task, nn.SGD(task.parameters(), lr=0.05))
        with pytest.raises(ValueError):
            trainer.train_epoch_loader([])
