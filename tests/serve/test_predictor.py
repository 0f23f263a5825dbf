"""Tests for the micro-batching Predictor and the vectorized stitch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import SyntheticPAIP, generate_ct_volume
from repro.models.vit import ViTSegmenter, VolumeViTSegmenter
from repro.patching import (AdaptivePatcher, APFConfig, VolumeAPFConfig,
                            VolumetricAdaptivePatcher, stitch)
from repro.pipeline import PatchPipeline
from repro.serve import Predictor
from repro.train.tasks import prepare_image
from repro.train.volumetric import predict_volume

settings.register_profile("serve", max_examples=15, deadline=None)
settings.load_profile("serve")


def _model(**kw):
    args = dict(patch_size=4, channels=1, dim=16, depth=2, heads=2,
                max_len=256, rng=np.random.default_rng(1))
    args.update(kw)
    return ViTSegmenter(**args)


def _pipe(**kw):
    args = dict(patch_size=4, split_value=8.0, channels=1, cache_items=32)
    args.update(kw)
    return PatchPipeline(**args)


def _images(n, res=64):
    ds = SyntheticPAIP(res, n)
    return [ds[i].image for i in range(n)]


class TestStitchEquivalence:
    """The grouped block-view stitch must reproduce the reference
    per-leaf scatter loops bit for bit."""

    @given(st.integers(0, 10 ** 6), st.integers(1, 3), st.booleans())
    def test_stitch_image_matches_scatter(self, seed, k, pad):
        rng = np.random.default_rng(seed)
        img = prepare_image(_images(1)[0], 1).transpose(1, 2, 0)
        patcher = AdaptivePatcher(APFConfig(patch_size=4, split_value=8.0))
        seq = patcher.extract_natural(img)
        if pad:
            seq = patcher.fit_length(seq, len(seq) + 7)
        tm = rng.normal(size=(len(seq), k, 4, 4))
        np.testing.assert_array_equal(seq.scatter_to_image(tm),
                                      stitch(seq, tm))

    @given(st.integers(0, 10 ** 6), st.booleans())
    def test_stitch_volume_matches_scatter(self, seed, pad):
        rng = np.random.default_rng(seed)
        vol = generate_ct_volume(32, 32, seed=seed % 7).volume
        patcher = VolumetricAdaptivePatcher(
            VolumeAPFConfig(patch_size=4, split_value=8.0))
        seq = patcher.extract_natural(vol)
        if pad:
            seq = patcher.fit_length(seq, len(seq) + 9)
        tv = rng.normal(size=(len(seq), 4, 4, 4))
        np.testing.assert_array_equal(seq.scatter_to_volume(tv),
                                      stitch(seq, tv[:, None])[0])

    def test_downscale_leaves_smaller_than_patch(self):
        # Hand-built sequence with a leaf *smaller* than the model patch
        # (scatter must average-pool 8x8 token maps down to 4x4 leaves).
        from repro.patching.sequence import PatchSequence
        rng = np.random.default_rng(0)
        pm = 8
        sizes = np.array([16, 8, 4, 4], dtype=np.int64)
        seq = PatchSequence(
            patches=rng.normal(size=(4, 1, pm, pm)),
            ys=np.array([0, 16, 16, 20], dtype=np.int64),
            xs=np.array([0, 0, 8, 8], dtype=np.int64),
            sizes=sizes, valid=np.ones(4, dtype=bool),
            image_size=32, patch_size=pm, n_real=4)
        tm = rng.normal(size=(len(seq), 2, pm, pm))
        np.testing.assert_array_equal(seq.scatter_to_image(tm),
                                      stitch(seq, tm))


class TestPredictor:
    def test_compiled_matches_eager_mode_bitwise(self):
        imgs = _images(5)
        model = _model()
        compiled = Predictor(model, _pipe(), max_batch=2, bucket=16)
        eager = Predictor(model, _pipe(), max_batch=2, bucket=16,
                          compiled=False)
        a = compiled.predict_batch(imgs, keys=list(range(5)))
        b = eager.predict_batch(imgs, keys=list(range(5)))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_results_keep_input_order_across_buckets(self):
        imgs = _images(6)
        model = _model()
        server = Predictor(model, _pipe(), max_batch=3, bucket=8)
        seqs = server.pipeline.process(imgs, list(range(6)))
        assert len({server.bucket_length(len(s)) for s in seqs}) > 1, \
            "workload no longer spans multiple buckets"
        got = server.predict_sequences(seqs)
        # Per-sequence singleton predictions must agree with their batch slot.
        solo = Predictor(model, _pipe(), max_batch=1, bucket=8)
        for seq, batch_out in zip(seqs, got):
            np.testing.assert_array_equal(
                batch_out.shape, solo.predict_sequences([seq])[0].shape)
            assert batch_out.shape == (1, 64, 64)

    def test_predict_image_close_to_reference_predict_mask(self):
        img = _images(1)[0]
        model = _model()
        server = Predictor(model, _pipe(), max_batch=1, bucket=16)
        got = server.predict_image(img)
        patcher = AdaptivePatcher(APFConfig(patch_size=4, split_value=8.0))
        seq = patcher.extract_natural(
            prepare_image(img, 1).transpose(1, 2, 0))
        ref = model.predict_mask(seq)
        assert got.shape == ref.shape
        # Bucket padding perturbs batch BLAS slightly; agreement is tight
        # but not bitwise (predict_mask runs the unpadded length).
        np.testing.assert_allclose(got, ref, atol=1e-5)

    def test_plan_cache_bounded_by_signatures(self):
        imgs = _images(6)
        server = Predictor(_model(), _pipe(), max_batch=2, bucket=64)
        server.predict_batch(imgs, keys=list(range(6)))
        n_plans = server.stats["plans"]
        server.predict_batch(imgs, keys=list(range(6)))
        assert server.stats["plans"] == n_plans   # steady state: no growth
        assert server.stats["batches"] > 0

    def test_overlong_sequences_drop_deterministically(self):
        model = _model(max_len=32)
        server = Predictor(model, _pipe(), max_batch=1, bucket=16)
        img = _images(1)[0]
        a = server.predict_image(img)
        b = server.predict_image(img)
        np.testing.assert_array_equal(a, b)

    def test_volumetric_predictor_compiled_matches_eager(self):
        vols = [generate_ct_volume(32, 32, seed=s).volume for s in range(3)]
        model = VolumeViTSegmenter(patch_size=4, dim=16, depth=1, heads=2,
                                   max_len=512, rng=np.random.default_rng(2))
        mk = lambda: PatchPipeline(VolumeAPFConfig(patch_size=4,
                                                   split_value=8.0))
        a = Predictor(model, mk(), max_batch=2,
                      bucket=32).predict_batch(vols, keys=[0, 1, 2])
        b = Predictor(model, mk(), max_batch=2, bucket=32,
                      compiled=False).predict_batch(vols, keys=[0, 1, 2])
        for x, y in zip(a, b):
            assert x.shape == (32, 32, 32)
            np.testing.assert_array_equal(x, y)

    def test_predict_volume_matches_per_slice_protocol(self):
        imgs = _images(4)
        model = _model()
        server = Predictor(model, _pipe(), max_batch=2, bucket=16)
        volume = np.stack([prepare_image(im, 1)[0] for im in imgs])
        got = server.predict_volume(volume, batch_size=2)
        ref = predict_volume(
            lambda s: server.predict_class_slices([s])[0], volume)
        np.testing.assert_array_equal(got, ref)
        assert got.shape == volume.shape

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            Predictor(_model(), _pipe(), max_batch=0)
        with pytest.raises(ValueError):
            Predictor(_model(), _pipe(), bucket=0)

