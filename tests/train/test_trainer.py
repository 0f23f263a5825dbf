"""Tests for the trainer, history bookkeeping, and task adapters."""

import numpy as np
import pytest

from repro import nn
from repro.data import generate_ct_slice, generate_wsi
from repro.models import (HIPTLite, UNet, UNETR2D, ViTClassifier, ViTSegmenter)
from repro.patching import AdaptivePatcher, UniformPatcher
from repro.train import (ImageClassificationTask, ImageSegmentationTask,
                         SequenceClassificationTask, TokenSegmentationTask,
                         Trainer, TrainingHistory, UNETRTask, prepare_image)


def paip_samples(n=4, z=32):
    return [generate_wsi(z, seed=i) for i in range(n)]


class TestHistory:
    def test_record_and_best(self):
        h = TrainingHistory()
        for i, m in enumerate([50.0, 70.0, 65.0]):
            h.record(1.0 - i * 0.1, 1.0, m, 0.5, 1e-4)
        assert h.epochs == 3
        assert h.best_metric == 70.0

    def test_convergence_epoch(self):
        h = TrainingHistory()
        for m in [10, 40, 68, 69, 70, 70]:
            h.record(0, 0, m, 2.0, 1e-4)
        assert h.convergence_epoch(fraction=0.95) == 3  # 68 ≥ 0.95*70

    def test_time_to_convergence(self):
        h = TrainingHistory()
        for m in [10, 70, 70]:
            h.record(0, 0, m, 3.0, 1e-4)
        assert h.time_to_convergence(0.98) == 6.0

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            TrainingHistory().best_metric
        with pytest.raises(ValueError):
            TrainingHistory().convergence_epoch()
        with pytest.raises(ValueError):
            TrainingHistory().loss_stability()

    def test_stability(self):
        h = TrainingHistory()
        for v in [1.0, 1.0, 1.0]:
            h.record(0, v, 0, 0, 0)
        assert h.loss_stability() == 0.0

    def test_to_dict_roundtrip(self):
        h = TrainingHistory()
        h.record(1, 2, 3, 4, 5)
        d = h.to_dict()
        assert d["train_loss"] == [1.0] and d["lr"] == [5.0]


class TestPrepareImage:
    def test_gray_to_chw(self):
        out = prepare_image(np.zeros((8, 8)), 1)
        assert out.shape == (1, 8, 8)

    def test_rgb_to_gray(self):
        img = np.ones((8, 8, 3)) * np.array([0.2, 0.4, 0.6])
        out = prepare_image(img, 1)
        np.testing.assert_allclose(out, 0.4)

    def test_gray_to_rgb(self):
        assert prepare_image(np.zeros((8, 8)), 3).shape == (3, 8, 8)

    def test_rgb_passthrough(self):
        assert prepare_image(np.zeros((8, 8, 3)), 3).shape == (3, 8, 8)

    def test_impossible_adaptation(self):
        with pytest.raises(ValueError):
            prepare_image(np.zeros((8, 8, 3)), 2)

    @staticmethod
    def _layouts(base):
        """``base`` (Z, Z, C) in contiguous and strided memory layouts."""
        z, _, c = base.shape
        slide = np.zeros((2 * z, 2 * z, c))
        slide[z:, :z] = base
        spaced = np.zeros((z, 2 * z, 2 * c))
        spaced[:, ::2, ::2] = base
        return {
            "contiguous": base,
            "tile_of_slide": slide[z:, :z],
            "channel_first": np.ascontiguousarray(
                base.transpose(2, 0, 1)).transpose(1, 2, 0),
            "fortran": np.asfortranarray(base),
            "reversed": np.ascontiguousarray(
                base[::-1, :, ::-1])[::-1, :, ::-1],
            "spaced": spaced[:, ::2, ::2],
        }

    @pytest.mark.parametrize("c", range(2, 11))
    def test_gray_matches_mean_bytes(self, c):
        # The channel adapt replays NumPy's mean as per-channel adds; it
        # must give the same bytes in every layout, specials included
        # (a NaN's payload bits are not pinned: NumPy's own loops differ).
        rng = np.random.default_rng(c)
        pool = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e308, -1e308,
                         5e-324, 1e16, 1.0, -3.0, 0.1])
        z = 24
        base = rng.standard_normal((z, z, c)) * 10.0 ** rng.integers(
            -8, 17, (z, z, c))
        special = rng.random((z, z, c)) < 0.3
        base[special] = rng.choice(pool, int(special.sum()))
        base[0, 0] = -0.0                  # all −0.0 channels give +0.0
        base[0, 1] = [1e16] + [1.0] * (c - 1)   # order-sensitive sum

        def bits(a):
            a = np.array(a, dtype=np.float64)
            a[np.isnan(a)] = np.nan
            return a.view(np.uint64)

        with np.errstate(invalid="ignore", over="ignore"):
            for name, img in self._layouts(base).items():
                np.testing.assert_array_equal(img, base)
                out = prepare_image(img, 1)
                assert out.shape == (1, z, z) and out.dtype == np.float64
                want = img.mean(axis=2, keepdims=True).transpose(2, 0, 1)
                np.testing.assert_array_equal(bits(out), bits(want),
                                              err_msg=name)


class TestTrainerCore:
    def _quick_task(self):
        model = ViTSegmenter(patch_size=8, channels=1, dim=16, depth=1,
                             heads=2, max_len=32)
        patcher = UniformPatcher(8)
        return TokenSegmentationTask(model, patcher, channels=1)

    def test_fit_records_history(self):
        task = self._quick_task()
        samples = paip_samples(4)
        tr = Trainer(task, nn.AdamW(task.parameters(), lr=1e-3), batch_size=2)
        hist = tr.fit(samples[:3], samples[3:], epochs=2)
        assert hist.epochs == 2
        assert all(np.isfinite(hist.train_loss))
        assert all(0 <= m <= 100 for m in hist.val_metric)

    def test_scheduler_steps_per_epoch(self):
        task = self._quick_task()
        opt = nn.AdamW(task.parameters(), lr=1e-3)
        sched = nn.MultiStepLR(opt, milestones=[1], gamma=0.1)
        tr = Trainer(task, opt, scheduler=sched, batch_size=2)
        hist = tr.fit(paip_samples(3)[:2], paip_samples(3)[2:], epochs=2)
        assert hist.lr[-1] == pytest.approx(1e-4)

    def test_loss_decreases_on_fixed_data(self):
        task = self._quick_task()
        samples = paip_samples(3)
        tr = Trainer(task, nn.AdamW(task.parameters(), lr=3e-3), batch_size=3,
                     seed=1)
        hist = tr.fit(samples, samples, epochs=6)
        assert hist.train_loss[-1] < hist.train_loss[0]

    def test_validation_args(self):
        task = self._quick_task()
        tr = Trainer(task, nn.AdamW(task.parameters(), lr=1e-3))
        with pytest.raises(ValueError):
            tr.fit([], paip_samples(1), epochs=1)
        with pytest.raises(ValueError):
            tr.fit(paip_samples(1), paip_samples(1), epochs=0)
        with pytest.raises(ValueError):
            Trainer(task, nn.AdamW(task.parameters(), lr=1e-3), batch_size=0)

    def test_seconds_per_image_positive(self):
        task = self._quick_task()
        tr = Trainer(task, nn.AdamW(task.parameters(), lr=1e-3), batch_size=2)
        spi = tr.seconds_per_image(paip_samples(2))
        assert spi > 0


class TestTaskAdapters:
    def test_token_task_uniform_and_adaptive(self):
        samples = paip_samples(2)
        for patcher in (UniformPatcher(8),
                        AdaptivePatcher(patch_size=8, split_value=8.0,
                                        target_length=16)):
            model = ViTSegmenter(patch_size=8, channels=1, dim=16, depth=1,
                                 heads=2, max_len=32)
            task = TokenSegmentationTask(model, patcher, channels=1)
            loss = task.batch_loss(samples)
            assert np.isfinite(float(loss.data))
            assert 0 <= task.evaluate(samples) <= 100

    def test_unetr_task(self):
        samples = paip_samples(2)
        model = UNETR2D(patch_size=8, channels=1, dim=16, depth=2, heads=2,
                        max_len=32, decoder_ch=8)
        task = UNETRTask(model, UniformPatcher(8), channels=1)
        assert np.isfinite(task.val_loss(samples))
        assert 0 <= task.evaluate(samples) <= 100

    def test_image_seg_task_binary(self):
        samples = paip_samples(2)
        task = ImageSegmentationTask(UNet(channels=1, widths=(8, 16)), channels=1)
        assert np.isfinite(task.val_loss(samples))
        assert 0 <= task.evaluate(samples) <= 100

    def test_image_seg_task_multiclass_btcv(self):
        samples = [generate_ct_slice(32, seed=i) for i in range(2)]
        task = ImageSegmentationTask(UNet(channels=1, out_channels=14,
                                          widths=(8, 16)),
                                     channels=1, multiclass=14)
        assert np.isfinite(task.val_loss(samples))
        score = task.evaluate(samples)
        assert 0 <= score <= 100

    def test_sequence_classification_task(self):
        samples = [generate_wsi(32, seed=i, organ=i % 6) for i in range(3)]
        model = ViTClassifier(patch_size=8, channels=3, dim=16, depth=1,
                              heads=2, max_len=32, num_classes=6)
        task = SequenceClassificationTask(
            model, AdaptivePatcher(patch_size=8, split_value=8.0,
                                   target_length=16), channels=3)
        assert np.isfinite(task.val_loss(samples))
        assert 0 <= task.evaluate(samples) <= 100

    def test_image_classification_task_hipt(self):
        samples = [generate_wsi(32, seed=i, organ=i % 6) for i in range(2)]
        model = HIPTLite(image_size=32, channels=3, region_size=16,
                         patch_size=4, dim=16, num_classes=6)
        task = ImageClassificationTask(model, channels=3)
        assert np.isfinite(task.val_loss(samples))
        assert 0 <= task.evaluate(samples) <= 100


class TestTrainerNanGuard:
    def test_nonfinite_loss_raises(self):
        class BadTask:
            def __init__(self):
                self.w = nn.Parameter(np.ones(1))

            def parameters(self):
                return [self.w]

            def batch_loss(self, batch):
                return (self.w * np.nan).sum()

            def val_loss(self, batch):
                return 0.0

            def evaluate(self, batch):
                return 0.0

        task = BadTask()
        tr = Trainer(task, nn.SGD(task.parameters(), lr=0.1), batch_size=1)
        with pytest.raises(FloatingPointError):
            tr.train_epoch([0])
