"""Batched-vs-single volumetric equivalence: the batched octree engine must
reproduce the reference per-volume patcher bit-for-bit, including the random
drop stream — plus the dimension-generic pipeline/loader/trainer pathway."""

import numpy as np
import pytest

from repro import nn
from repro.data import DataLoader, SyntheticVolumes, generate_ct_volume
from repro.models import VolumeViTSegmenter
from repro.patching import VolumeAPFConfig, VolumetricAdaptivePatcher
from repro.pipeline import (BatchedVolumetricPatcher, CollatedBatch,
                            PatchPipeline)
from repro.quadtree import build_octree, build_tree_batch
from repro.train import (Trainer, VolumeSegmentationTask, predict_volume,
                         predict_volume_batched)


def volumes(res, n, start=0):
    return [generate_ct_volume(res, res, seed=start + s).volume
            for s in range(n)]


def assert_vseq_identical(a, b):
    np.testing.assert_array_equal(a.patches, b.patches)
    np.testing.assert_array_equal(a.zs, b.zs)
    np.testing.assert_array_equal(a.ys, b.ys)
    np.testing.assert_array_equal(a.xs, b.xs)
    np.testing.assert_array_equal(a.sizes, b.sizes)
    np.testing.assert_array_equal(a.valid, b.valid)
    assert a.volume_size == b.volume_size
    assert a.patch_size == b.patch_size
    assert a.n_real == b.n_real
    assert a.n_dropped == b.n_dropped


class TestExactKernels:
    def test_detail_map_batch_bit_identical(self):
        vols = volumes(32, 4)
        for overrides in (dict(), dict(blur_sigma=2.0),
                          dict(detail_quantile=0.9),
                          dict(detail_quantile=0.5)):
            cfg = VolumeAPFConfig(**overrides)
            ref = VolumetricAdaptivePatcher(cfg)
            batch = BatchedVolumetricPatcher(cfg).detail_map_batch(vols)
            for i, v in enumerate(vols):
                np.testing.assert_array_equal(batch[i], ref.detail_map(v))

    def test_detail_map_flat_volume(self):
        # A constant volume has zero gradient everywhere: threshold 0 and
        # strict comparison leave the mask empty in both implementations.
        flat = [np.full((16, 16, 16), 0.5)]
        ref = VolumetricAdaptivePatcher().detail_map(flat[0])
        bat = BatchedVolumetricPatcher().detail_map_batch(flat)[0]
        np.testing.assert_array_equal(bat, ref)

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            BatchedVolumetricPatcher().detail_map_batch([np.zeros((8, 8))])

    def test_empty_batch_returns_empty_stack(self):
        out = BatchedVolumetricPatcher().detail_map_batch([])
        assert isinstance(out, np.ndarray)
        assert out.size == 0

    def test_invalid_config_raises_like_reference(self):
        # The batched path must reject exactly what the per-volume
        # reference rejects — not silently diverge.
        vols = volumes(32, 1)
        cfg = VolumeAPFConfig(split_value=-1.0)
        with pytest.raises(ValueError):
            VolumetricAdaptivePatcher(cfg).extract(vols[0])
        with pytest.raises(ValueError):
            BatchedVolumetricPatcher(cfg).extract_batch(vols)


class TestBatchedOctree:
    def test_batch_matches_single_builds(self):
        rng = np.random.default_rng(0)
        details = [(rng.random((16, 16, 16)) > 0.95).astype(float)
                   for _ in range(5)]
        batch = build_tree_batch(details, 2.0, 3, min_size=2)
        for d, t in zip(details, batch):
            ref = build_octree(d, 2.0, 3, min_size=2)
            np.testing.assert_array_equal(t.zs, ref.zs)
            np.testing.assert_array_equal(t.ys, ref.ys)
            np.testing.assert_array_equal(t.xs, ref.xs)
            np.testing.assert_array_equal(t.sizes, ref.sizes)
            np.testing.assert_array_equal(t.depths, ref.depths)
            assert t.nodes_visited == ref.nodes_visited
            assert t.size == ref.size

    def test_empty_batch(self):
        assert build_tree_batch([], 1.0, 3) == []

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            build_tree_batch([np.zeros((8, 8, 8)), np.zeros((16, 16, 16))],
                             1.0, 3)

    def test_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            build_tree_batch([np.zeros((12, 12, 12))], 1.0, 3)


CONFIGS = [
    dict(patch_size=4, split_value=8.0),
    dict(patch_size=4, split_value=2.0, target_length=200),
    dict(patch_size=8, split_value=8.0, target_length=64),
    dict(patch_size=4, split_value=1.0, target_length=150,
         drop_strategy="coarsest-first"),
    dict(patch_size=2, split_value=4.0, max_depth=3),
    dict(patch_size=4, split_value=8.0, blur_sigma=0.5, detail_quantile=0.9),
]


class TestBatchedEquivalence:
    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_byte_identical_to_reference(self, overrides):
        vols = volumes(32, 4)
        cfg = VolumeAPFConfig(seed=7, **overrides)
        # Fresh patchers: both consume their drop RNG in volume order.
        ref = VolumetricAdaptivePatcher(cfg)
        singles = [ref.extract(v) for v in vols]
        batched = BatchedVolumetricPatcher(cfg).extract_batch(vols)
        assert len(batched) == len(vols)
        for a, b in zip(singles, batched):
            assert_vseq_identical(a, b)

    def test_natural_batch_skips_drop(self):
        vols = volumes(32, 3)
        bp = BatchedVolumetricPatcher(patch_size=4, split_value=1.0,
                                      target_length=10)
        nat = bp.extract_natural_batch(vols)
        assert all(s.valid.all() for s in nat)
        assert any(len(s) != 10 for s in nat)

    def test_single_volume_api_unchanged(self):
        v = volumes(32, 1)[0]
        cfg = VolumeAPFConfig(patch_size=4, split_value=8.0)
        assert_vseq_identical(VolumetricAdaptivePatcher(cfg)(v),
                              BatchedVolumetricPatcher(cfg)(v))

    def test_empty_batch(self):
        assert BatchedVolumetricPatcher(patch_size=4).extract_batch([]) == []

    def test_rejects_mixed_shapes(self):
        bp = BatchedVolumetricPatcher(patch_size=4)
        with pytest.raises(ValueError):
            bp.extract_batch([np.zeros((16, 16, 16)), np.zeros((32, 32, 32))])


class TestVolumetricPipeline:
    def test_collate_shapes(self):
        vols = volumes(32, 3)
        pipe = PatchPipeline(VolumeAPFConfig(patch_size=4, split_value=4.0,
                                             target_length=96),
                             cache_items=8)
        batch = pipe.collate(vols)
        assert isinstance(batch, CollatedBatch)
        assert batch.tokens.shape == (3, 96, 64)      # Pm³ = 64
        assert batch.coords.shape == (3, 96, 4)       # (cz, cy, cx, scale)
        assert batch.valid.shape == (3, 96)
        assert np.all(batch.tokens[~batch.valid] == 0.0)

    def test_cache_hits_on_repeat_keys(self):
        vols = volumes(32, 3)
        pipe = PatchPipeline(VolumeAPFConfig(patch_size=4, split_value=4.0),
                             cache_items=8)
        pipe.process(vols, keys=[0, 1, 2])
        pipe.process(vols, keys=[0, 1, 2])
        assert pipe.stats["misses"] == 3
        assert pipe.stats["hits"] == 3

    def test_channels_rejected(self):
        with pytest.raises(ValueError):
            PatchPipeline(VolumeAPFConfig(), channels=1)

    def test_overrides_rejected_with_config(self):
        with pytest.raises(ValueError):
            PatchPipeline(VolumeAPFConfig(), patch_size=4)

    def test_single_volume_call_applies_target_length(self):
        pipe = PatchPipeline(VolumeAPFConfig(patch_size=4, split_value=4.0,
                                             target_length=64),
                             cache_items=4)
        seq = pipe(volumes(32, 1)[0])
        assert len(seq) == 64


class TestVolumetricTraining:
    def test_loader_yields_collated_batches(self):
        ds = SyntheticVolumes(32, 4)
        pipe = PatchPipeline(VolumeAPFConfig(patch_size=4, split_value=4.0,
                                             target_length=96),
                             cache_items=16)
        loader = DataLoader(ds, batch_size=2, pipeline=pipe)
        batches = list(loader)
        assert len(batches) == 2
        assert all(isinstance(b, CollatedBatch) for b in batches)
        # Second epoch: all patching served from cache.
        misses = pipe.stats["misses"]
        list(loader)
        assert pipe.stats["misses"] == misses

    def test_trainer_fit_loader_volumetric(self):
        ds = SyntheticVolumes(32, 4)
        pipe = PatchPipeline(VolumeAPFConfig(patch_size=4, split_value=4.0,
                                             target_length=96),
                             cache_items=16)
        loader = DataLoader(ds, batch_size=2, shuffle=True, pipeline=pipe)
        model = VolumeViTSegmenter(patch_size=4, dim=16, depth=1, heads=2,
                                   max_len=512)
        task = VolumeSegmentationTask(model, pipe)
        trainer = Trainer(task, nn.SGD(task.parameters(), lr=0.05))
        history = trainer.fit_loader(loader, [ds[0]], epochs=2)
        assert history.epochs == 2
        assert all(np.isfinite(v) for v in history.train_loss)
        # Octree preprocessing ran once per train volume plus once for the
        # val volume — not once per epoch.
        assert pipe.stats["misses"] == 5

    def test_task_non_collated_path_matches_finiteness(self):
        ds = SyntheticVolumes(32, 2)
        pipe = PatchPipeline(VolumeAPFConfig(patch_size=4, split_value=4.0,
                                             target_length=96),
                             cache_items=4)
        model = VolumeViTSegmenter(patch_size=4, dim=16, depth=1, heads=2,
                                   max_len=512)
        task = VolumeSegmentationTask(model, pipe)
        loss = task.batch_loss([ds[0], ds[1]])
        assert np.isfinite(float(loss.data))
        assert 0.0 <= task.evaluate([ds[0]]) <= 100.0

    def test_collated_loss_requires_samples(self):
        pipe = PatchPipeline(VolumeAPFConfig(patch_size=4, split_value=4.0,
                                             target_length=96),
                             cache_items=0)
        model = VolumeViTSegmenter(patch_size=4, dim=16, depth=1, heads=2,
                                   max_len=512)
        task = VolumeSegmentationTask(model, pipe)
        batch = pipe.collate(volumes(32, 2))
        with pytest.raises(ValueError):
            task.batch_loss(batch)


class TestPredictVolumeBatched:
    def test_matches_per_slice_loop(self):
        vol = generate_ct_volume(32, 10, seed=0).volume
        f = lambda s: (s > 0.5).astype(int)
        a = predict_volume(f, vol)
        for bs in (1, 3, 8, 16):
            b = predict_volume_batched(lambda chunk: [f(s) for s in chunk],
                                       vol, batch_size=bs)
            np.testing.assert_array_equal(a, b)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            predict_volume_batched(lambda c: c, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            predict_volume_batched(lambda c: c, np.zeros((4, 4, 4)),
                                   batch_size=0)

    def test_rejects_wrong_prediction_count(self):
        with pytest.raises(ValueError):
            predict_volume_batched(lambda chunk: chunk[:-1],
                                   np.zeros((4, 4, 4)), batch_size=4)
