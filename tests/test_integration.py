"""Cross-module integration tests: full pipelines from synthetic data to
metrics, exercising the public API the examples use."""

import numpy as np
import pytest

from repro import nn
from repro.data import (SyntheticBTCV, SyntheticPAIP, generate_wsi,
                        train_val_test_split)
from repro.models import UNETR2D, ViTClassifier, ViTSegmenter
from repro.patching import AdaptivePatcher, UniformPatcher
from repro.pipeline import PatchPipeline
from repro.train import (SequenceClassificationTask, TokenSegmentationTask,
                         Trainer, UNETRTask, load_checkpoint, save_checkpoint)


def paip(n=6, z=32):
    return [generate_wsi(z, seed=i) for i in range(n)]


class TestSegmentationPipeline:
    def test_apf_vit_learns(self):
        samples = paip(6, 64)
        patcher = AdaptivePatcher(patch_size=4, split_value=2.0,
                                  target_length=96)
        model = ViTSegmenter(patch_size=4, channels=1, dim=24, depth=2,
                             heads=2, max_len=144,
                             rng=np.random.default_rng(0))
        task = TokenSegmentationTask(model, patcher, channels=1)
        tr = Trainer(task, nn.AdamW(task.parameters(), lr=3e-3), batch_size=3)
        hist = tr.fit(samples[:4], samples[4:], epochs=6)
        assert hist.train_loss[-1] < hist.train_loss[0]
        assert hist.best_metric > 0

    def test_cached_patcher_end_to_end_matches_eval(self):
        samples = paip(4, 32)
        base = AdaptivePatcher(patch_size=4, split_value=2.0, target_length=48)
        cached = PatchPipeline(patch_size=4, split_value=2.0,
                               target_length=48)
        m1 = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1, heads=2,
                          max_len=64, rng=np.random.default_rng(1))
        m2 = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1, heads=2,
                          max_len=64, rng=np.random.default_rng(1))
        t1 = TokenSegmentationTask(m1, base, channels=1)
        t2 = TokenSegmentationTask(m2, cached, channels=1)
        # Same weights → same eval dice (eval path has no randomness).
        assert t1.evaluate(samples) == pytest.approx(t2.evaluate(samples))
        assert cached.stats["misses"] == len(samples)

    def test_unetr_pipeline_with_dataset_splits(self):
        ds = SyntheticPAIP(32, n=8)
        tr_s, va_s, te_s = train_val_test_split(ds)
        train = [tr_s[i] for i in range(len(tr_s))]
        val = [va_s[i] for i in range(len(va_s))] or train[-1:]
        model = UNETR2D(patch_size=4, channels=1, dim=16, depth=2, heads=2,
                        max_len=64, decoder_ch=8)
        task = UNETRTask(model, UniformPatcher(4), channels=1)
        trainer = Trainer(task, nn.AdamW(task.parameters(), lr=3e-3),
                          batch_size=2)
        hist = trainer.fit(train, val, epochs=2)
        assert hist.epochs == 2
        probs = task.predict_probs(train[0])
        assert probs.shape == (1, 32, 32)


class TestClassificationPipeline:
    def test_apf_classifier_learns_training_set(self):
        # Maximal class contrast: organ 0 (few big lesions) vs 5 (specks).
        samples = [generate_wsi(64, seed=i, organ=(i % 2) * 5)
                   for i in range(8)]
        for s in samples:
            s.organ = s.organ // 5  # relabel {0,5} → {0,1}
        patcher = AdaptivePatcher(patch_size=4, split_value=2.0,
                                  target_length=192)
        model = ViTClassifier(patch_size=4, channels=3, dim=24, depth=1,
                              heads=2, max_len=192, num_classes=2,
                              rng=np.random.default_rng(2))
        task = SequenceClassificationTask(model, patcher, channels=3)
        tr = Trainer(task, nn.AdamW(task.parameters(), lr=1e-2), batch_size=4)
        losses = [tr.train_epoch(samples) for _ in range(10)]
        assert losses[-1] < losses[0]


class TestCheckpointedTraining:
    def test_trainer_resume_continues_improving(self, tmp_path):
        samples = paip(4, 32)
        patcher = UniformPatcher(8)

        def fresh():
            m = ViTSegmenter(patch_size=8, channels=1, dim=16, depth=1,
                             heads=2, max_len=16, rng=np.random.default_rng(7))
            t = TokenSegmentationTask(m, patcher, channels=1)
            return m, t, nn.AdamW(t.parameters(), lr=3e-3)

        model, task, opt = fresh()
        tr = Trainer(task, opt, batch_size=2, seed=1)
        tr.fit(samples[:3], samples[3:], epochs=2)
        path = str(tmp_path / "mid.npz")
        save_checkpoint(path, model, opt, epoch=2)

        model2, task2, opt2 = fresh()
        meta = load_checkpoint(path, model2, opt2)
        assert meta["epoch"] == 2
        tr2 = Trainer(task2, opt2, batch_size=2, seed=2)
        hist = tr2.fit(samples[:3], samples[3:], epochs=2)
        assert np.isfinite(hist.train_loss).all()


class TestBTCVVolumetricPipeline:
    def test_unet_volume_inference(self):
        from repro.models import UNet
        from repro.train import ImageSegmentationTask
        from repro.train.volumetric import slices_to_volume_task

        ds = SyntheticBTCV(32, n_subjects=2, slices_per_subject=3)
        train = [ds[i] for i in range(3)]        # subject 0's slices
        task = ImageSegmentationTask(
            UNet(channels=1, out_channels=14, widths=(8, 16)),
            channels=1, multiclass=14)
        trainer = Trainer(task, nn.AdamW(task.parameters(), lr=3e-3),
                          batch_size=3)
        trainer.fit(train, train, epochs=2)
        vol_score = slices_to_volume_task(task, [ds[i] for i in range(3, 6)])
        assert 0.0 <= vol_score <= 100.0


class TestDistributedPipeline:
    def test_multi_step_dp_training_loop(self):
        from repro.distributed import DataParallelSimulator

        samples = paip(8, 32)
        patcher = UniformPatcher(8)
        model = ViTSegmenter(patch_size=8, channels=1, dim=16, depth=1,
                             heads=2, max_len=16, rng=np.random.default_rng(3))
        task = TokenSegmentationTask(model, patcher, channels=1)
        sim = DataParallelSimulator(task, nn.AdamW(task.parameters(), lr=3e-3),
                                    world_size=4)
        losses = [sim.step(samples).loss for _ in range(4)]
        assert losses[-1] < losses[0]
        # Simulated timing fields stay sane across steps.
        report = sim.step(samples)
        assert report.simulated_step_seconds > report.simulated_comm_seconds
