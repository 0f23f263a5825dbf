"""Tests for the Adaptive Patch Framework: pipeline stages, invariants,
round trips, and the paper's headline sequence-length reduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.patching import (AdaptivePatcher, APFConfig, UniformPatcher,
                            patchify_labels)


def blob_image(z=64, seed=0, n_blobs=3):
    """Sparse-detail image: smooth background + a few sharp blobs."""
    rng = np.random.default_rng(seed)
    img = np.full((z, z), 0.3)
    yy, xx = np.mgrid[0:z, 0:z]
    for _ in range(n_blobs):
        cy, cx = rng.integers(z // 4, 3 * z // 4, 2)
        r = rng.integers(3, max(4, z // 10))
        img[(yy - cy) ** 2 + (xx - cx) ** 2 < r * r] = 0.9
    return img


class TestConfig:
    def test_rejects_non_pow2_patch(self):
        with pytest.raises(ValueError):
            APFConfig(patch_size=3)

    def test_rejects_unknown_criterion(self):
        with pytest.raises(ValueError):
            APFConfig(criterion="entropy")

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            APFConfig(order="zigzag")

    def test_config_or_kwargs_not_both(self):
        with pytest.raises(ValueError):
            AdaptivePatcher(APFConfig(), patch_size=8)

    def test_kwargs_constructor(self):
        p = AdaptivePatcher(patch_size=8, split_value=4.0)
        assert p.config.patch_size == 8


class TestPipeline:
    def test_detail_map_is_edge_mask(self):
        p = AdaptivePatcher(patch_size=4)
        d = p.detail_map(blob_image())
        assert d.shape == (64, 64)
        assert set(np.unique(d)).issubset({0.0, 1.0})
        assert d.sum() > 0  # blobs produce edges

    def test_flat_image_one_token(self):
        p = AdaptivePatcher(patch_size=4, split_value=0.0)
        seq = p(np.full((32, 32), 0.5))
        assert len(seq) == 1
        assert seq.sizes[0] == 32

    def test_leaves_not_below_patch_size(self):
        p = AdaptivePatcher(patch_size=4, split_value=1.0)
        seq = p(blob_image())
        assert seq.sizes[seq.valid].min() >= 4

    def test_sequence_shorter_than_uniform(self):
        # Fig. 1's headline: ~10x fewer patches on detail-sparse images.
        img = blob_image(128)
        apf = AdaptivePatcher(patch_size=4, split_value=8.0)
        uni = UniformPatcher(4)
        assert len(apf(img)) < len(uni(img)) / 4

    def test_patches_same_size_after_projection(self):
        seq = AdaptivePatcher(patch_size=4, split_value=4.0)(blob_image())
        assert seq.patches.shape[1:] == (1, 4, 4)

    def test_large_leaf_content_is_area_mean(self):
        # A flat image has one 32x32 leaf; its 4x4 patch must equal the mean.
        img = np.full((32, 32), 0.7)
        seq = AdaptivePatcher(patch_size=4, split_value=0.0)(img)
        np.testing.assert_allclose(seq.patches[0, 0], 0.7)

    def test_morton_order_applied(self):
        from repro.quadtree import morton_encode
        seq = AdaptivePatcher(patch_size=4, split_value=2.0)(blob_image())
        codes = morton_encode(seq.ys, seq.xs).astype(np.int64)
        assert (np.diff(codes) > 0).all()

    def test_rowmajor_order_ablation(self):
        seq = AdaptivePatcher(patch_size=4, split_value=2.0, order="rowmajor")(
            blob_image())
        # Row-major build order: ys nondecreasing within each size level is not
        # guaranteed, but the sequence must be a permutation of the morton one.
        seq_m = AdaptivePatcher(patch_size=4, split_value=2.0)(blob_image())
        assert len(seq) == len(seq_m)
        assert sorted(zip(seq.ys, seq.xs)) == sorted(zip(seq_m.ys, seq_m.xs))

    def test_variance_criterion_ablation(self):
        seq = AdaptivePatcher(patch_size=4, split_value=2.0,
                              criterion="variance")(blob_image())
        assert len(seq) >= 1
        assert seq.coverage_fraction() == pytest.approx(1.0)

    def test_balance_flag(self):
        cfg = APFConfig(patch_size=2, split_value=1.0, balance=True)
        seq = AdaptivePatcher(cfg)(blob_image())
        assert seq.coverage_fraction() == pytest.approx(1.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            AdaptivePatcher(patch_size=4)(np.zeros((16, 32)))


class TestFitLength:
    def test_pad_short_sequence(self):
        p = AdaptivePatcher(patch_size=4, split_value=0.0, target_length=16)
        seq = p(np.full((32, 32), 0.5))
        assert len(seq) == 16
        assert seq.valid.sum() == 1
        assert seq.n_real == 1
        np.testing.assert_array_equal(seq.patches[1:], 0.0)

    def test_drop_long_sequence(self):
        img = blob_image(64, n_blobs=8)
        p = AdaptivePatcher(patch_size=2, split_value=0.5, target_length=10)
        seq = p(img)
        assert len(seq) == 10
        assert seq.n_dropped > 0
        assert seq.coverage_fraction() < 1.0

    def test_drop_is_deterministic_per_seed(self):
        img = blob_image(64, n_blobs=8)
        s1 = AdaptivePatcher(patch_size=2, split_value=0.5, target_length=10, seed=7)(img)
        s2 = AdaptivePatcher(patch_size=2, split_value=0.5, target_length=10, seed=7)(img)
        np.testing.assert_array_equal(s1.ys, s2.ys)

    def test_exact_length_noop(self):
        p = AdaptivePatcher(patch_size=4, split_value=0.0)
        seq = p(np.full((32, 32), 0.5))
        assert len(p.fit_length(seq, 1)) == 1


class TestRoundTrip:
    def test_scatter_reconstructs_at_leaf_granularity(self):
        img = blob_image(64)
        p = AdaptivePatcher(patch_size=4, split_value=4.0)
        seq = p(img)
        rec = seq.scatter_to_image(seq.patches)[0]
        # Reconstruction is exact on Pm-sized leaves and an area-mean
        # approximation on larger ones → bounded error, identical means.
        assert rec.shape == (64, 64)
        assert rec.mean() == pytest.approx(img.mean(), rel=1e-6)
        fine = seq.sizes[seq.valid] == 4
        for i in np.flatnonzero(seq.valid)[:10]:
            if seq.sizes[i] == 4:
                y, x = seq.ys[i], seq.xs[i]
                np.testing.assert_allclose(rec[y:y + 4, x:x + 4], img[y:y + 4, x:x + 4])

    def test_label_patchify_alignment(self):
        img = blob_image(64)
        mask = (img > 0.5).astype(float)
        p = AdaptivePatcher(patch_size=4, split_value=4.0)
        seq = p(img)
        targets = patchify_labels(mask, seq)
        assert targets.shape == (len(seq), 1, 4, 4)
        # Scattering targets back must reproduce mask at leaf granularity.
        rec = seq.scatter_to_image(targets)[0]
        assert rec.mean() == pytest.approx(mask.mean(), rel=1e-6)
        assert np.abs(rec - mask).mean() < 0.2

    def test_scatter_shape_validation(self):
        seq = AdaptivePatcher(patch_size=4, split_value=4.0)(blob_image())
        with pytest.raises(ValueError):
            seq.scatter_to_image(np.zeros((len(seq) + 1, 1, 4, 4)))

    def test_coords_normalized(self):
        seq = AdaptivePatcher(patch_size=4, split_value=4.0)(blob_image())
        c = seq.coords()
        assert c.shape == (len(seq), 3)
        assert (c >= 0).all() and (c <= 1.0 + 1e-9).all()


class TestProperties:
    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 4, 8]),
           st.floats(0.0, 64.0))
    @settings(max_examples=25, deadline=None)
    def test_property_full_coverage_without_drop(self, seed, pm, v):
        img = blob_image(64, seed=seed)
        seq = AdaptivePatcher(patch_size=pm, split_value=v)(img)
        assert seq.coverage_fraction() == pytest.approx(1.0)
        # Leaf geometry stays inside the image.
        assert (seq.ys + seq.sizes <= 64).all()
        assert (seq.xs + seq.sizes <= 64).all()

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_property_token_count_vs_uniform_bound(self, seed):
        # APF sequence is never longer than uniform at the same patch size.
        img = blob_image(64, seed=seed)
        apf = AdaptivePatcher(patch_size=4, split_value=0.0)(img)
        assert len(apf) <= (64 // 4) ** 2
