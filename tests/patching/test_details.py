"""Per-leaf detail scores riding the quadtree/octree into sequences.

ISSUE 8: the Eq. 6 region mass that decided *not* to split a leaf is now
retained as ``details`` on the leaves and propagated through extraction,
batch kernels, and length fitting — the signal the sparsity fast path
grounds its background claims on. Zero must mean provably flat.
"""

import numpy as np

from repro.data import generate_wsi
from repro.patching import AdaptivePatcher, VolumetricAdaptivePatcher
from repro.quadtree import (balance_2to1, build_octree, build_quadtree,
                            build_tree_batch)


def corner_image(z=64, seed=0):
    img = np.full((z, z), 0.25)
    img[:8, :8] = np.random.default_rng(seed).random((8, 8))
    return img


def detail_map(img):
    return AdaptivePatcher(patch_size=4, split_value=8.0).detail_map(img)


class TestQuadtreeDetails:
    def test_details_are_the_leaf_region_sums(self):
        d = detail_map(generate_wsi(64, seed=0).image)
        leaves = build_quadtree(d, split_value=8.0, max_depth=10, min_size=4)
        assert leaves.details.shape == leaves.ys.shape
        for i in range(len(leaves.ys)):
            y, x, s = leaves.ys[i], leaves.xs[i], leaves.sizes[i]
            assert leaves.details[i] == d[y:y + s, x:x + s].sum()

    def test_flat_detail_map_scores_zero(self):
        leaves = build_quadtree(np.zeros((32, 32)), split_value=8.0,
                                max_depth=10, min_size=4)
        np.testing.assert_array_equal(leaves.details, 0.0)

    def test_reorder_permutes_details_with_geometry(self):
        d = detail_map(generate_wsi(64, seed=1).image)
        leaves = build_quadtree(d, split_value=8.0, max_depth=10, min_size=4)
        srt = leaves.sorted_by_morton()
        lut = {(y, x): m for y, x, m in
               zip(leaves.ys, leaves.xs, leaves.details)}
        for y, x, m in zip(srt.ys, srt.xs, srt.details):
            assert lut[(y, x)] == m

    def test_batch_builder_matches_reference_bitwise(self):
        ds = [detail_map(generate_wsi(64, seed=s).image) for s in range(3)]
        batched = build_tree_batch(np.stack(ds), split_value=8.0,
                                   max_depth=10, min_size=4)
        for d, got in zip(ds, batched):
            ref = build_quadtree(d, split_value=8.0, max_depth=10, min_size=4)
            np.testing.assert_array_equal(got.sorted_by_morton().details,
                                          ref.sorted_by_morton().details)

    def test_balance_drops_the_scores(self):
        # 2:1 balancing re-splits leaves; the split-time mass no longer
        # describes them, so balanced trees carry no details.
        d = detail_map(generate_wsi(64, seed=0).image)
        leaves = balance_2to1(build_quadtree(d, split_value=8.0, max_depth=10, min_size=4))
        assert leaves.details is None


class TestOctreeDetails:
    def _vol(self, seed=0):
        vol = np.zeros((16, 16, 16))
        vol[:4, :4, :4] = np.random.default_rng(seed).random((4, 4, 4))
        return vol

    def test_details_are_the_region_sums(self):
        d = self._vol()
        leaves = build_octree(d, split_value=0.5, max_depth=6, min_size=4)
        assert leaves.details.shape == leaves.ys.shape
        for i in range(len(leaves.ys)):
            z, y, x, s = (leaves.zs[i], leaves.ys[i], leaves.xs[i],
                          leaves.sizes[i])
            # The builder sums through the integral table — same value up
            # to float association.
            np.testing.assert_allclose(leaves.details[i],
                                       d[z:z + s, y:y + s, x:x + s].sum(),
                                       rtol=1e-10, atol=1e-12)

    def test_batch_frontier_matches_reference(self):
        ds = np.stack([self._vol(0), self._vol(1)])
        for ref_d, got in zip(ds, build_tree_batch(ds, split_value=0.5,
                                                   max_depth=6, min_size=4)):
            ref = build_octree(ref_d, split_value=0.5, max_depth=6, min_size=4)
            np.testing.assert_array_equal(got.sorted_by_morton().details,
                                          ref.sorted_by_morton().details)


class TestSequenceDetails:
    def test_extract_carries_details(self):
        seq = AdaptivePatcher(patch_size=4, split_value=8.0)(corner_image())
        assert seq.details is not None and len(seq.details) == len(seq)
        assert (seq.details == 0).any() and (seq.details > 0).any()
        # Zero score really is flat content.
        for i in np.flatnonzero(seq.details == 0):
            assert float(np.ptp(seq.patches[i])) == 0.0

    def test_pad_appends_zero_background_rows(self):
        p = AdaptivePatcher(patch_size=4, split_value=8.0)
        seq = p(corner_image())
        padded = p.fit_length(seq, len(seq) + 7)
        np.testing.assert_array_equal(padded.details[:len(seq)], seq.details)
        np.testing.assert_array_equal(padded.details[len(seq):], 0.0)

    def test_drop_subsets_details_with_geometry(self):
        p = AdaptivePatcher(patch_size=4, split_value=8.0)
        seq = p(corner_image())
        short = p.fit_length(seq, len(seq) - 3,
                             rng=np.random.default_rng(0))
        lut = {(y, x): m for y, x, m in
               zip(seq.ys, seq.xs, seq.details)}
        for y, x, m in zip(short.ys, short.xs, short.details):
            assert lut[(y, x)] == m

    def test_volumetric_extract_carries_details(self):
        vol = np.full((16, 16, 16), 0.3)
        vol[:4, :4, :4] = np.random.default_rng(0).random((4, 4, 4))
        seq = VolumetricAdaptivePatcher(patch_size=4, split_value=2.0)(vol)
        assert seq.details is not None and len(seq.details) == len(seq)
        assert (seq.details == 0).any()

    def test_pipeline_batch_matches_single_details(self):
        from repro.pipeline import PatchPipeline
        imgs = [corner_image(seed=s) for s in range(3)]
        pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                             cache_items=0)
        ref = AdaptivePatcher(patch_size=4, split_value=8.0)
        for seq, img in zip(pipe.process(imgs, None), imgs):
            np.testing.assert_array_equal(seq.details, ref(img).details)
