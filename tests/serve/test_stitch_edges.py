"""Edge-case coverage for the vectorized stitch (stage 4 of the serving
work graph), pinned against the reference per-leaf scatter loops:
single-patch sequences, fully-padded rows and mixed up/down-scale leaves,
in the scheduler's ``(L, K) + (Pm,)*d`` layout."""

import numpy as np
import pytest

from repro.patching import (AdaptivePatcher, APFConfig, VolumeAPFConfig,
                            VolumetricAdaptivePatcher, stitch)
from repro.patching.sequence import PatchSequence
from repro.patching.volumetric import VolumeSequence


def _image_seq(sizes, ys, xs, valid, image_size, pm, rng):
    sizes = np.asarray(sizes, dtype=np.int64)
    return PatchSequence(
        patches=rng.normal(size=(len(sizes), 1, pm, pm)),
        ys=np.asarray(ys, dtype=np.int64), xs=np.asarray(xs, dtype=np.int64),
        sizes=sizes, valid=np.asarray(valid, dtype=bool),
        image_size=image_size, patch_size=pm, n_real=int(np.sum(valid)))


class TestImageEdgeCases:
    def test_single_patch_covers_whole_image(self):
        # one leaf the size of the image: a single upsampled paint
        rng = np.random.default_rng(0)
        seq = _image_seq([32], [0], [0], [True], 32, 8, rng)
        tm = rng.normal(size=(1, 3, 8, 8))
        np.testing.assert_array_equal(seq.scatter_to_image(tm),
                                      stitch(seq, tm))

    def test_single_patch_from_real_patcher(self):
        # a flat image collapses the quadtree to its root leaf
        patcher = AdaptivePatcher(APFConfig(patch_size=4, split_value=8.0))
        seq = patcher.extract_natural(np.full((32, 32, 1), 0.5))
        assert len(seq) == 1 and int(seq.sizes[0]) == 32
        tm = np.random.default_rng(1).normal(size=(1, 2, 4, 4))
        np.testing.assert_array_equal(seq.scatter_to_image(tm),
                                      stitch(seq, tm))

    def test_all_padded_row_paints_only_fill(self):
        # padding paints nothing: the map keeps its zero fill
        rng = np.random.default_rng(2)
        seq = _image_seq([0, 0, 0], [0, 0, 0], [0, 0, 0],
                         [False, False, False], 16, 4, rng)
        tm = rng.normal(size=(3, 2, 4, 4))
        got = stitch(seq, tm)
        np.testing.assert_array_equal(got, np.zeros((2, 16, 16)))
        np.testing.assert_array_equal(got, seq.scatter_to_image(tm))

    def test_mixed_up_and_downscale_leaves(self):
        # leaves both larger (16, 8) and smaller (2) than the model patch
        # exercise nearest-upsample and average-pool downsample together
        rng = np.random.default_rng(3)
        pm = 4
        sizes = [16, 8, 8, 8, 8, 2, 2, 2, 2]
        ys = [0, 16, 16, 24, 24, 0, 0, 2, 2]
        xs = [16, 0, 8, 0, 8, 0, 2, 0, 2]
        # remaining area intentionally uncovered (drop semantics)
        seq = _image_seq(sizes, ys, xs, [True] * 9, 32, pm, rng)
        tm = rng.normal(size=(9, 2, pm, pm))
        np.testing.assert_array_equal(seq.scatter_to_image(tm),
                                      stitch(seq, tm))

    def test_integer_paint_repeats_labels(self):
        # labels paint by repetition only: into an integer dtype they equal
        # the float paint cast, and a leaf below Pm (which gather never
        # yields) cannot be averaged
        rng = np.random.default_rng(4)
        seq = _image_seq([16, 8, 8, 4], [16, 0, 8, 8], [16, 0, 0, 8],
                         [True, True, False, True], 32, 4, rng)
        labels = rng.integers(0, 3, size=(4, 1, 4, 4))
        for dtype in (np.uint8, np.int64):
            got = stitch(seq, labels.astype(dtype), dtype=dtype)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, stitch(seq, labels))
        small = _image_seq([2], [0], [0], [True], 8, 4, rng)
        with pytest.raises(ValueError, match="average"):
            stitch(small, np.ones((1, 1, 4, 4), np.uint8), dtype=np.uint8)

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(5)
        seq = _image_seq([4], [0], [0], [True], 16, 4, rng)
        with pytest.raises(ValueError):
            stitch(seq, rng.normal(size=(2, 1, 4, 4)))
        with pytest.raises(ValueError):
            stitch(seq, rng.normal(size=(1, 1, 4)))
        with pytest.raises(ValueError):     # flat (L, K) is not a layout
            stitch(seq, rng.normal(size=(1, 1)))
        with pytest.raises(ValueError):     # maps of the wrong patch size
            stitch(seq, rng.normal(size=(1, 1, 2, 2)))


def _volume_seq(sizes, zs, ys, xs, valid, n, pm, rng):
    sizes = np.asarray(sizes, dtype=np.int64)
    return VolumeSequence(
        patches=rng.normal(size=(len(sizes), pm, pm, pm)),
        zs=np.asarray(zs, dtype=np.int64), ys=np.asarray(ys, dtype=np.int64),
        xs=np.asarray(xs, dtype=np.int64), sizes=sizes,
        volume_size=n, patch_size=pm,
        valid=np.asarray(valid, dtype=bool), n_real=int(np.sum(valid)))


class TestVolumeEdgeCases:
    def test_single_cube_covers_whole_volume(self):
        rng = np.random.default_rng(6)
        seq = _volume_seq([16], [0], [0], [0], [True], 16, 4, rng)
        tv = rng.normal(size=(1, 4, 4, 4))
        np.testing.assert_array_equal(seq.scatter_to_volume(tv),
                                      stitch(seq, tv[:, None])[0])

    def test_single_cube_from_real_patcher(self):
        patcher = VolumetricAdaptivePatcher(
            VolumeAPFConfig(patch_size=4, split_value=8.0))
        seq = patcher.extract_natural(np.full((16, 16, 16), 0.25))
        assert len(seq) == 1 and int(seq.sizes[0]) == 16
        tv = np.random.default_rng(7).normal(size=(1, 4, 4, 4))
        np.testing.assert_array_equal(seq.scatter_to_volume(tv),
                                      stitch(seq, tv[:, None])[0])

    def test_all_padded_volume_row(self):
        rng = np.random.default_rng(8)
        seq = _volume_seq([0, 0], [0, 0], [0, 0], [0, 0], [False, False],
                         8, 4, rng)
        tv = rng.normal(size=(2, 4, 4, 4))
        got = stitch(seq, tv[:, None])
        np.testing.assert_array_equal(got, np.zeros((1, 8, 8, 8)))
        np.testing.assert_array_equal(got[0], seq.scatter_to_volume(tv))
