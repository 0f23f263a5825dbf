"""Tests for the volumetric (octree) adaptive patcher extension."""

import numpy as np
import pytest

from repro.data.synthetic_volume import generate_ct_volume
from repro.patching import (VolumeAPFConfig, VolumetricAdaptivePatcher,
                            patchify_labels)


@pytest.fixture(scope="module")
def ct():
    return generate_ct_volume(32, 32, seed=0)


class TestConfig:
    def test_bad_patch(self):
        with pytest.raises(ValueError):
            VolumeAPFConfig(patch_size=3)

    def test_bad_quantile(self):
        with pytest.raises(ValueError):
            VolumeAPFConfig(detail_quantile=1.5)

    def test_config_or_kwargs(self):
        with pytest.raises(ValueError):
            VolumetricAdaptivePatcher(VolumeAPFConfig(), patch_size=2)


class TestVolumeGenerator:
    def test_shapes(self, ct):
        assert ct.volume.shape == (32, 32, 32)
        assert ct.mask.shape == (32, 32, 32)

    def test_deterministic(self, ct):
        again = generate_ct_volume(32, 32, seed=0)
        np.testing.assert_array_equal(ct.volume, again.volume)

    def test_organs_shrink_toward_edges(self, ct):
        center = (ct.mask[16] > 0).sum()
        edge = (ct.mask[0] > 0).sum()
        assert edge < center

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_ct_volume(32, 0, seed=0)


class TestVolumetricPatcher:
    def test_detail_map_sparsity(self, ct):
        p = VolumetricAdaptivePatcher(patch_size=4, split_value=8.0)
        d = p.detail_map(ct.volume)
        assert d.shape == ct.volume.shape
        assert 0.0 < d.mean() < 0.06  # ~3% of voxels at quantile 0.97

    def test_sequence_shorter_than_uniform(self, ct):
        p = VolumetricAdaptivePatcher(patch_size=4, split_value=8.0)
        seq = p(ct.volume)
        uniform = (32 // 4) ** 3
        assert len(seq) < uniform
        assert seq.patches.shape[1:] == (4, 4, 4)

    def test_morton_ordering(self, ct):
        from repro.quadtree import morton3d_encode
        seq = VolumetricAdaptivePatcher(patch_size=4, split_value=8.0)(ct.volume)
        codes = morton3d_encode(seq.zs, seq.ys, seq.xs).astype(np.int64)
        assert (np.diff(codes) > 0).all()

    def test_scatter_roundtrip_mean(self, ct):
        seq = VolumetricAdaptivePatcher(patch_size=4, split_value=8.0)(ct.volume)
        rec = seq.scatter_to_volume(seq.patches)
        assert rec.shape == (32, 32, 32)
        assert rec.mean() == pytest.approx(ct.volume.mean(), rel=1e-9)

    def test_scatter_scalars(self, ct):
        seq = VolumetricAdaptivePatcher(patch_size=4, split_value=8.0)(ct.volume)
        rec = seq.scatter_to_volume(np.ones(len(seq)))
        np.testing.assert_allclose(rec, 1.0)  # full coverage

    def test_tokens_and_coords(self, ct):
        seq = VolumetricAdaptivePatcher(patch_size=4, split_value=8.0)(ct.volume)
        assert seq.tokens().shape == (len(seq), 64)
        c = seq.coords()
        assert c.shape == (len(seq), 4)
        assert (c >= 0).all() and (c <= 1 + 1e-9).all()

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            VolumetricAdaptivePatcher(patch_size=4)(np.zeros((8, 8)))

    def test_tokens_feed_vit(self, ct):
        # The volumetric tokens slot straight into the 2-D-agnostic backbone.
        from repro.models import ViTBackbone
        seq = VolumetricAdaptivePatcher(patch_size=4, split_value=8.0)(ct.volume)
        model = ViTBackbone(token_dim=64, dim=16, depth=1, heads=2,
                            max_len=len(seq), use_coords=False)
        out = model(seq.tokens()[None].astype(np.float32))
        assert out.shape == (1, len(seq), 16)


class TestFitLength:
    def test_drop_to_target(self, ct):
        p = VolumetricAdaptivePatcher(patch_size=4, split_value=8.0,
                                      target_length=20)
        seq = p(ct.volume)
        assert len(seq) == 20
        assert seq.valid.all()
        assert seq.n_dropped == seq.n_real - 20
        assert seq.coverage_fraction() < 1.0

    def test_pad_to_target(self, ct):
        p = VolumetricAdaptivePatcher(patch_size=4, split_value=8.0,
                                      target_length=4096)
        seq = p(ct.volume)
        assert len(seq) == 4096
        assert not seq.valid.all()
        assert seq.n_dropped == 0
        # Padded slots: zero patches, zero sizes, zero coords.
        pad = ~seq.valid
        assert np.all(seq.patches[pad] == 0.0)
        assert np.all(seq.sizes[pad] == 0)
        assert np.all(seq.coords()[pad] == 0.0)

    def test_extract_natural_skips_drop(self, ct):
        p = VolumetricAdaptivePatcher(patch_size=4, split_value=8.0,
                                      target_length=20)
        nat = p.extract_natural(ct.volume)
        assert len(nat) != 20
        assert nat.valid.all()
        assert p.config.target_length == 20   # shared config untouched

    def test_coarsest_first_drops_large_cubes(self, ct):
        p = VolumetricAdaptivePatcher(patch_size=4, split_value=8.0,
                                      drop_strategy="coarsest-first")
        nat = p.extract_natural(ct.volume)
        target = len(nat) - 5
        fitted = p.fit_length(nat, target)
        # The retained set keeps the smallest (most detailed) cubes.
        assert fitted.sizes.max() <= nat.sizes.max()
        assert sorted(fitted.sizes)[:target] == sorted(nat.sizes)[:target]

    def test_explicit_rng_overrides_stream(self, ct):
        p = VolumetricAdaptivePatcher(patch_size=4, split_value=8.0)
        nat = p.extract_natural(ct.volume)
        a = p.fit_length(nat, 20, rng=np.random.default_rng(3))
        b = p.fit_length(nat, 20, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a.zs, b.zs)

    def test_bad_drop_strategy(self):
        with pytest.raises(ValueError):
            VolumeAPFConfig(drop_strategy="mystery")


class TestPatchifyLabels:
    def test_shapes_and_alignment(self, ct):
        p = VolumetricAdaptivePatcher(patch_size=4, split_value=8.0)
        seq = p(ct.volume)
        targets = patchify_labels((ct.mask > 0).astype(float), seq)
        assert targets.shape == (len(seq), 1, 4, 4, 4)
        assert targets.min() >= 0.0 and targets.max() <= 1.0
        # Scattering the targets back reconstructs the mask's mean exactly
        # at leaf granularity.
        rec = seq.scatter_to_volume(targets[:, 0])
        assert rec.mean() == pytest.approx((ct.mask > 0).mean(), rel=1e-9)

    def test_padded_slots_zero(self, ct):
        p = VolumetricAdaptivePatcher(patch_size=4, split_value=8.0,
                                      target_length=2048)
        seq = p(ct.volume)
        targets = patchify_labels((ct.mask > 0).astype(float), seq)
        assert np.all(targets[~seq.valid] == 0.0)

    def test_rejects_2d_mask(self, ct):
        p = VolumetricAdaptivePatcher(patch_size=4, split_value=8.0)
        seq = p(ct.volume)
        with pytest.raises(ValueError):
            patchify_labels(np.zeros((32, 32)), seq)
