"""The n-D leaf↔pixel transfer (``repro.patching.transfer``) against the
per-leaf references, bit for bit, in 2-D and 3-D: ``gather`` against a
per-leaf slice-and-downscale loop and
:meth:`VolumetricAdaptivePatcher._gather`, ``stitch`` against
:meth:`PatchSequence.scatter_to_image` and
:meth:`VolumeSequence.scatter_to_volume`, and ``patchify_labels`` on
adaptive, uniform and octree sequences."""

import numpy as np
import pytest

from repro.data import generate_ct_volume, generate_wsi
from repro.imaging import downscale_pow2
from repro.patching import (AdaptivePatcher, APFConfig, UniformPatcher,
                            VolumeAPFConfig, VolumetricAdaptivePatcher,
                            gather, patchify_labels, stitch)


def _gather_2d_reference(img, rows, pm):
    """Per-leaf loop: slice each leaf, area-downscale it, channels first."""
    out = np.zeros((len(rows), img.shape[2], pm, pm))
    for i, (y, x, s) in enumerate(zip(rows.ys, rows.xs, rows.sizes)):
        out[i] = downscale_pow2(img[y:y + s, x:x + s], s // pm).transpose(
            2, 0, 1)
    return out


def _image_seq(seed, pm=4, split=4.0):
    img = generate_wsi(64, seed=seed).image
    return img, AdaptivePatcher(APFConfig(patch_size=pm,
                                          split_value=split)).extract(img)


def _volume_seq(seed, pm=2):
    vol = generate_ct_volume(32, 32, seed=seed)
    p = VolumetricAdaptivePatcher(VolumeAPFConfig(patch_size=pm,
                                                  split_value=8.0))
    return vol, p, p.extract(vol.volume)


class TestGather:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_2d_matches_per_leaf_loop(self, seed, channels):
        img = generate_wsi(64, seed=seed).image[:, :, :channels]
        p = AdaptivePatcher(APFConfig(patch_size=2, split_value=2.0))
        leaves = p.build_tree(img).sorted_by_morton()
        assert len(np.unique(leaves.sizes)) > 2
        got = gather(img, leaves, 2)
        assert got.shape == (len(leaves), channels, 2, 2)
        np.testing.assert_array_equal(
            got, _gather_2d_reference(img, leaves, 2))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_3d_matches_reference_gather(self, seed):
        vol, p, _ = _volume_seq(seed)
        leaves = p.build_tree(vol.volume).sorted_by_morton()
        np.testing.assert_array_equal(gather(vol.volume, leaves, 2),
                                      p._gather(vol.volume, leaves, 2))

    def test_leaf_smaller_than_patch_raises(self):
        _, seq = _image_seq(0)
        img = np.zeros((64, 64, 1))
        with pytest.raises(ValueError, match="smaller than the model patch"):
            gather(img, seq, 2 * int(seq.sizes.min()))


class TestStitch:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("k", [1, 2])
    def test_2d_matches_scatter_to_image(self, seed, k):
        _, seq = _image_seq(seed)
        rng = np.random.default_rng(seed)
        for s in (seq, AdaptivePatcher().fit_length(
                seq, len(seq) // 2, rng=rng),
                AdaptivePatcher().fit_length(seq, len(seq) + 5)):
            tm = rng.random((len(s), k, 4, 4))
            np.testing.assert_array_equal(stitch(s, tm),
                                          s.scatter_to_image(tm))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_3d_matches_scatter_to_volume(self, seed):
        _, p, seq = _volume_seq(seed)
        rng = np.random.default_rng(seed)
        for s in (seq, p.fit_length(seq, len(seq) // 2, rng=rng),
                  p.fit_length(seq, len(seq) + 5)):
            tv = rng.random((len(s), 1, 2, 2, 2))
            got = stitch(s, tv)
            assert got.shape == (1, 32, 32, 32)
            np.testing.assert_array_equal(got[0],
                                          s.scatter_to_volume(tv[:, 0]))

    def test_gather_then_stitch_round_trips_pm_leaves(self):
        # leaves of exactly Pm carry their pixels through unchanged
        img, seq = _image_seq(0, pm=2, split=2.0)
        rec = stitch(seq, seq.patches)
        fine = np.flatnonzero(seq.sizes == 2)
        assert len(fine)
        for i in fine:
            y, x = seq.ys[i], seq.xs[i]
            np.testing.assert_array_equal(
                rec[:, y:y + 2, x:x + 2], img[y:y + 2, x:x + 2].transpose(
                    2, 0, 1))

    def test_rows_marked_invalid_transfer_nothing(self):
        # the rule is ``valid``, as in the references, not ``sizes == 0``
        img, seq = _image_seq(1)
        seq.valid[::3] = False
        tm = np.random.default_rng(0).random((len(seq), 2, 4, 4))
        np.testing.assert_array_equal(stitch(seq, tm),
                                      seq.scatter_to_image(tm))
        labels = patchify_labels(img[:, :, 0], seq)
        assert not labels[::3].any() and labels[1::3].any()

    def test_length_mismatch_raises(self):
        _, p, seq = _volume_seq(0)
        with pytest.raises(ValueError):
            stitch(seq, np.zeros((len(seq) + 1, 1, 2, 2, 2)))
        with pytest.raises(ValueError):      # 2-D maps for a 3-D sequence
            stitch(seq, np.zeros((len(seq), 1, 2, 2)))


class TestPatchifyLabels:
    @pytest.mark.parametrize("kind", ["adaptive", "uniform", "projected"])
    def test_2d_matches_per_leaf_loop(self, kind):
        w = generate_wsi(64, seed=4)
        seq = {"adaptive": lambda: _image_seq(4)[1],
               "uniform": lambda: UniformPatcher(8).extract(w.image),
               "projected": lambda: UniformPatcher(16, project_to=4).extract(
                   w.image)}[kind]()
        seq = AdaptivePatcher().fit_length(seq, len(seq) + 3)   # padded
        got = patchify_labels(w.mask, seq)
        pm = seq.patch_size
        assert got.shape == (len(seq), 1, pm, pm)
        valid = seq.take(np.flatnonzero(seq.valid))
        np.testing.assert_array_equal(
            got[seq.valid], _gather_2d_reference(w.mask[:, :, None], valid, pm))
        assert not got[~seq.valid].any()
        # a trailing channel axis reads channel 0
        np.testing.assert_array_equal(
            patchify_labels(np.stack([w.mask, 1 - w.mask], axis=2), seq), got)

    def test_3d_matches_reference_gather(self):
        vol, p, seq = _volume_seq(2)
        seq = p.fit_length(seq, len(seq) // 2, rng=np.random.default_rng(0))
        m = (vol.mask > 0).astype(np.float64)
        got = patchify_labels(m, seq)
        assert got.shape == (len(seq), 1, 2, 2, 2)
        np.testing.assert_array_equal(got[:, 0], p._gather(m, seq, 2))

    def test_3d_rejects_2d_mask(self):
        _, _, seq = _volume_seq(0)
        with pytest.raises(ValueError, match="expected a 3-D mask"):
            patchify_labels(np.zeros((32, 32)), seq)

    def test_2d_rejects_3d_mask_volume(self):
        _, seq = _image_seq(0)
        with pytest.raises(ValueError, match="expected a 2-D mask"):
            patchify_labels(np.zeros((64, 64, 2, 2)), seq)
