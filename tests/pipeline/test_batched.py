"""Batched-vs-single equivalence: the batched engine must reproduce the
reference per-image patcher bit-for-bit, including the random drop stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import generate_wsi
from repro.imaging import gaussian_blur, sobel_gradients, to_grayscale
from repro.imaging.canny import canny_edges
from repro.patching import AdaptivePatcher, APFConfig
from repro.pipeline import BatchedAdaptivePatcher
from repro.pipeline.batched import (_blur3_exact, _screen_candidates,
                                    _sparse_canny)
from repro.quadtree import build_quadtree, build_quadtree_batch


def images(res, n, start=0):
    return [generate_wsi(res, seed=start + s).image for s in range(n)]


def assert_seq_identical(a, b):
    np.testing.assert_array_equal(a.patches, b.patches)
    np.testing.assert_array_equal(a.ys, b.ys)
    np.testing.assert_array_equal(a.xs, b.xs)
    np.testing.assert_array_equal(a.sizes, b.sizes)
    np.testing.assert_array_equal(a.valid, b.valid)
    assert a.image_size == b.image_size
    assert a.patch_size == b.patch_size
    assert a.n_real == b.n_real
    assert a.n_dropped == b.n_dropped


class TestExactKernels:
    def test_blur3_bit_identical(self):
        for seed in range(4):
            g = to_grayscale(np.asarray(generate_wsi(64, seed=seed).image,
                                        dtype=np.float64))
            np.testing.assert_array_equal(_blur3_exact(g), gaussian_blur(g, 3))

    def test_sparse_canny_bit_identical(self):
        for seed in range(4):
            g = to_grayscale(np.asarray(generate_wsi(128, seed=seed).image,
                                        dtype=np.float64))
            f = gaussian_blur(g, 3) * 255.0
            ref = canny_edges(f, 100.0, 200.0)
            np.testing.assert_array_equal(_sparse_canny(f, 100.0, 200.0), ref)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (256, 256),
                                       (300, 300), (40, 600)])
    def test_blur3_bit_identical_across_row_blocks(self, shape):
        g = np.random.default_rng(shape[0]).random(shape) * 255.0
        np.testing.assert_array_equal(_blur3_exact(g), gaussian_blur(g, 3))

    def test_sparse_canny_flat_image(self):
        f = np.full((32, 32), 90.0)
        assert not _sparse_canny(f, 100.0, 200.0).any()

    def test_sparse_canny_nonfinite_inputs(self):
        # max|f| is NaN or inf: the screen keeps every pixel and the sparse
        # path must still equal the reference everywhere else.
        f = to_grayscale(np.asarray(generate_wsi(64, seed=1).image,
                                    dtype=np.float64)) * 255.0
        for bad in (np.nan, np.inf, -np.inf):
            g = f.copy()
            g[5, 7] = bad
            with np.errstate(invalid="ignore"):
                np.testing.assert_array_equal(_sparse_canny(g, 100.0, 200.0),
                                              canny_edges(g, 100.0, 200.0))


@st.composite
def near_threshold_images(draw):
    """Sawtooth ramps whose Sobel magnitude lands within a few ulps of
    ``low`` or ``high``: a ramp of slope ``s`` has ``|gx| = 8s``, so
    ``s = target/8·(1 + k·eps)`` puts the magnitude ``k`` ulps off target
    (``/(8√2)`` per axis on diagonals). Two bands (one aimed at ``low``,
    one at ``high``) meet at a random column so weak and strong pixels
    touch. Returned at the 0-1 or the 0-255 input scale."""
    z = draw(st.integers(8, 256))
    low, high = draw(st.sampled_from([(100.0, 200.0), (20.0, 30.0)]))
    eps = np.finfo(np.float64).eps
    ys, xs = np.mgrid[0:z, 0:z].astype(np.float64)
    f = np.zeros((z, z))
    split = draw(st.integers(0, z))
    for band, target in ((slice(0, split), low), (slice(split, z), high)):
        k = draw(st.integers(-4, 4))
        direction = draw(st.sampled_from(["x", "y", "diag", "anti"]))
        s = target / 8.0 * (1.0 + k * eps)
        if direction in ("diag", "anti"):
            s /= np.sqrt(2.0)
        a = s if direction != "y" else 0.0
        b = {"x": 0.0, "y": s, "diag": s, "anti": -s}[direction]
        period = max(2, int(200.0 // (2 * s)))  # keep values within 0-255
        base = draw(st.floats(0.0, 50.0))
        ramp = base + a * (xs % period) + b * (ys % period)
        f[:, band] = (ramp - min(0.0, b) * (period - 1))[:, band]
    unit = draw(st.sampled_from([1.0, 255.0]))
    return (f / 255.0 if unit == 1.0 else f), low, high


class TestAdversarialCanny:
    @given(near_threshold_images())
    @settings(max_examples=60, deadline=None)
    def test_screen_superset_and_identity(self, case):
        img, low, high = case
        # The same 0-255 rescale canny_edges and detail_map_batch apply.
        f = img * 255.0 if img.max() <= 1.0 + 1e-9 else img
        mag = sobel_gradients(f)[2]
        cand = _screen_candidates(np.pad(f, 1, mode="symmetric"), low,
                                  max(f.max(), -f.min()))
        assert not ((mag >= low) & ~cand).any()
        np.testing.assert_array_equal(_sparse_canny(f, low, high),
                                      canny_edges(img, low, high))

    def test_ramps_reach_the_thresholds(self):
        # The construction really is adversarial: a ramp of slope low/8 has
        # magnitude exactly low, and k ulps off it stays within a few ulps,
        # all of which the screen keeps.
        xs = np.tile(np.arange(8.0), (8, 1))
        eps = np.finfo(np.float64).eps
        assert (sobel_gradients(xs * 12.5)[2][:, 1:-1] == 100.0).all()
        for k in (-3, -1, 1, 3):
            f = xs * (12.5 * (1.0 + k * eps))
            mag = sobel_gradients(f)[2][:, 1:-1]
            assert (np.abs(mag - 100.0) <= 8 * 100.0 * eps).all()
            cand = _screen_candidates(np.pad(f, 1, mode="symmetric"), 100.0,
                                      f.max())
            assert cand[:, 1:-1].all()


class TestBatchedTree:
    def test_batch_matches_single_builds(self):
        details = [(generate_wsi(64, seed=s).image.mean(axis=2) > 0.5)
                   .astype(np.float64) for s in range(5)]
        batch = build_quadtree_batch(details, 4.0, 4, min_size=2)
        for d, t in zip(details, batch):
            ref = build_quadtree(d, 4.0, 4, min_size=2)
            np.testing.assert_array_equal(t.ys, ref.ys)
            np.testing.assert_array_equal(t.xs, ref.xs)
            np.testing.assert_array_equal(t.sizes, ref.sizes)
            np.testing.assert_array_equal(t.depths, ref.depths)
            assert t.nodes_visited == ref.nodes_visited
            assert t.size == ref.size

    def test_empty_batch(self):
        assert build_quadtree_batch([], 1.0, 4) == []

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            build_quadtree_batch([np.zeros((8, 8)), np.zeros((16, 16))], 1.0, 3)


CONFIGS = [
    dict(patch_size=4, split_value=2.0),
    dict(patch_size=4, split_value=2.0, target_length=40),
    dict(patch_size=8, split_value=8.0, target_length=64),
    dict(patch_size=4, split_value=4.0, order="hilbert"),
    dict(patch_size=4, split_value=4.0, order="rowmajor"),
    dict(patch_size=4, split_value=2.0, criterion="variance"),
    dict(patch_size=2, split_value=1.0, balance=True),
    dict(patch_size=4, split_value=2.0, target_length=30,
         drop_strategy="coarsest-first"),
]


class TestBatchedEquivalence:
    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_byte_identical_to_reference(self, overrides):
        imgs = images(64, 6)
        cfg = APFConfig(seed=7, **overrides)
        # Fresh patchers: both consume their drop RNG in image order.
        ref = AdaptivePatcher(cfg)
        singles = [ref.extract(im) for im in imgs]
        batched = BatchedAdaptivePatcher(cfg).extract_batch(imgs)
        assert len(batched) == len(imgs)
        for a, b in zip(singles, batched):
            assert_seq_identical(a, b)

    def test_grayscale_and_rgb_inputs(self):
        rgb = images(64, 3)
        gray = [im.mean(axis=2) for im in rgb]
        cfg = APFConfig(patch_size=4, split_value=2.0)
        ref = AdaptivePatcher(cfg)
        for imgs in (rgb, gray):
            for a, b in zip([ref.extract(im) for im in imgs],
                            BatchedAdaptivePatcher(cfg).extract_batch(imgs)):
                assert_seq_identical(a, b)

    def test_natural_batch_skips_drop(self):
        imgs = images(64, 3)
        bp = BatchedAdaptivePatcher(patch_size=4, split_value=1.0,
                                    target_length=10)
        nat = bp.extract_natural_batch(imgs)
        assert all(s.valid.all() for s in nat)
        assert any(len(s) != 10 for s in nat)

    def test_rng_stream_order_matches(self):
        # Drops depend on call order; batched must replay image order.
        imgs = images(64, 4)
        cfg = APFConfig(patch_size=2, split_value=0.5, target_length=12, seed=5)
        ref = AdaptivePatcher(cfg)
        singles = [ref.extract(im) for im in imgs]
        batched = BatchedAdaptivePatcher(cfg).extract_batch(imgs)
        for a, b in zip(singles, batched):
            assert_seq_identical(a, b)

    def test_single_image_api_unchanged(self):
        img = images(64, 1)[0]
        cfg = APFConfig(patch_size=4, split_value=2.0)
        assert_seq_identical(AdaptivePatcher(cfg)(img),
                             BatchedAdaptivePatcher(cfg)(img))

    def test_empty_batch(self):
        assert BatchedAdaptivePatcher(patch_size=4).extract_batch([]) == []

    def test_rejects_mixed_shapes(self):
        bp = BatchedAdaptivePatcher(patch_size=4, split_value=2.0)
        with pytest.raises(ValueError):
            bp.extract_batch([np.zeros((32, 32)), np.zeros((64, 64))])


class TestExtractNaturalThreadSafety:
    def test_config_not_mutated(self):
        cfg = APFConfig(patch_size=4, split_value=2.0, target_length=16)
        p = AdaptivePatcher(cfg)
        img = images(64, 1)[0]
        p.extract_natural(img)
        assert cfg.target_length == 16

    def test_concurrent_extract_natural(self):
        from concurrent.futures import ThreadPoolExecutor

        cfg = APFConfig(patch_size=4, split_value=2.0, target_length=16)
        p = AdaptivePatcher(cfg)
        imgs = images(64, 8)
        expected = [len(p.extract_natural(im)) for im in imgs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda im: len(p.extract_natural(im)), imgs))
        assert got == expected
        assert cfg.target_length == 16
