"""Batched-vs-single equivalence: the batched engine must reproduce the
reference per-image patcher bit-for-bit, including the random drop stream."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.data import generate_wsi
from repro.imaging import gaussian_blur, sobel_gradients, to_grayscale
from repro.imaging.canny import canny_edges
from repro.patching import AdaptivePatcher, APFConfig
from repro.pipeline import BatchedAdaptivePatcher, PatchPipeline
import repro.pipeline.batched as batched
from repro.pipeline.batched import (_RANGE_SCALE, _SCREEN_SLACK, _SIDE,
                                    _blur3_exact, _blur_windows, _join8,
                                    _screen_candidates, _sparse_canny)
from repro.quadtree import build_quadtree, build_tree_batch


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


def assert_canny_identity(img, low=100.0, high=200.0):
    """``_sparse_canny`` equals ``canny_edges`` bitwise and the screen keeps
    every pixel whose reference magnitude reaches ``low``."""
    # The same 0-255 rescale canny_edges and detail_map_batch apply.
    f = img * 255.0 if img.max() <= 1.0 + 1e-9 else img
    absmax = max(f.max(), -f.min())
    cand = _screen_candidates(np.pad(f, 1, mode="symmetric"), low, absmax)
    assert not ((sobel_gradients(f)[2] >= low) & ~cand).any()
    np.testing.assert_array_equal(_sparse_canny(f, low, high),
                                  canny_edges(img, low, high))


class TestBlockScreen:
    """The 2-D block pre-screen: skipped blocks hold no pixel whose
    reference magnitude reaches ``low``, whatever sits on a block border."""

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("at", [1, _SIDE - 1, _SIDE, _SIDE + 1,
                                    2 * _SIDE, 63])
    @pytest.mark.parametrize("k", [-2, 0, 2])
    def test_step_in_a_halo_row_or_column(self, axis, at, k):
        # A step of height h at row ``at`` has |gy| = 4h on rows at-1 and
        # at: with at = b, block row 0 sees it only through its halo row.
        h = 25.0 * (1.0 + k * np.finfo(np.float64).eps)   # |∇| ≈ low
        f = np.full((64, 64), 40.0)
        f[at:] += h
        f[at:, 40:] += 2 * h                   # strong pixels to join
        assert_canny_identity(f if axis == 0 else f.T.copy())

    @pytest.mark.parametrize("k", [-4, -1, 0, 1, 4])
    def test_block_range_at_the_skip_threshold(self, k):
        # Block (1, 1)'s window, halo included, spans a ramp whose range
        # sits k ulps around the skip threshold fl(t·_RANGE_SCALE):
        # skipped or screened, it yields no candidate (|∇| ≤ 4√2·R < t),
        # while an edge elsewhere still does.
        low, b = 100.0, _SIDE
        f = np.zeros((64, 64))
        f[40:, :8] = 150.0
        t = low - _SCREEN_SLACK * 150.0
        r = t * _RANGE_SCALE * (1.0 + k * np.finfo(np.float64).eps)
        ys, xs = np.mgrid[0:b + 2, 0:b + 2]
        f[b - 1:2 * b + 1, b - 1:2 * b + 1] = r * ((ys + xs) / (2 * b + 2))
        assert f.max() == 150.0 and f[b - 1:2 * b + 1, 2 * b].max() == r
        assert_canny_identity(f)
        cand = _screen_candidates(np.pad(f, 1, mode="symmetric"), low, 150.0)
        assert not cand[b:2 * b, b:2 * b].any()
        assert cand[38:42, :8].any()

    @pytest.mark.parametrize("z", [2, 3, 24, 130])
    @pytest.mark.parametrize("unit", [1.0, 255.0])
    def test_sizes_not_a_multiple_of_the_block(self, z, unit):
        rng = np.random.default_rng(z)
        img = np.kron(rng.integers(0, 4, (z // 2 + 1, z // 2 + 1)),
                      np.ones((2, 2)))[:z, :z] * 60.0
        img += rng.random((z, z)) * 20.0
        assert_canny_identity(img / 255.0 if unit == 1.0 else img)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_piecewise_constant_images(self, data):
        z = data.draw(st.integers(2, 80))
        cells = data.draw(st.integers(1, 12))
        levels = data.draw(st.lists(st.floats(0.0, 255.0), min_size=cells,
                                    max_size=cells))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        grid = rng.integers(0, cells, (cells, cells))
        idx = (np.arange(z) * cells) // z
        img = np.asarray(levels)[grid[np.ix_(idx, idx)]]
        low, high = data.draw(st.sampled_from([(100.0, 200.0), (20.0, 30.0),
                                               (1.0, 250.0)]))
        unit = data.draw(st.sampled_from([1.0, 255.0]))
        assert_canny_identity(img / 255.0 if unit == 1.0 else img, low, high)


def detail_with_fallbacks(img, monkeypatch, low=100.0, high=200.0):
    """``detail_map_batch``'s edge mask for one image, checked against
    ``canny_edges(gaussian_blur(img, 3))``, and how many times the dense
    blur ran (the rescale fallback)."""
    calls = []

    def dense(gray, scratch=None):
        calls.append(gray.shape)
        return _blur3_exact(gray, scratch)

    monkeypatch.setattr(batched, "_blur3_exact", dense)
    cfg = APFConfig(blur_ksize=3, canny_low=low, canny_high=high)
    got = BatchedAdaptivePatcher(cfg).detail_map_batch([img])[0]
    np.testing.assert_array_equal(
        got, canny_edges(gaussian_blur(img, 3), low, high))
    return len(calls)


class TestActiveBlockBlur:
    """The blur runs only on the screened blocks' windows: the edge mask
    must still equal the dense reference everywhere."""

    @pytest.mark.parametrize("z", [2, 3, 5, 24, 64, 160])  # 160: 2 chunks
    @pytest.mark.parametrize("scale", [1.0, 255.0])
    def test_windows_equal_the_padded_dense_blur(self, z, scale):
        g = np.random.default_rng(z).random((z, z)) * 3.0
        b = min(_SIDE, z & -z)
        by, bx = np.divmod(np.arange((z // b) ** 2), z // b)
        pad = np.full((z + 2, z + 2), np.nan)
        _blur_windows(g, scale, pad, by, bx)
        want = np.pad(gaussian_blur(g, 3) * scale, 1, mode="symmetric")
        np.testing.assert_array_equal(pad.view(np.uint64),
                                      want.view(np.uint64))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_piecewise_constant_images(self, data):
        z = data.draw(st.sampled_from([2, 3, 7, 16, 24, 33, 64, 80, 128]))
        cells = data.draw(st.integers(1, 12))
        levels = data.draw(st.lists(st.floats(0.0, 255.0), min_size=cells,
                                    max_size=cells))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        grid = rng.integers(0, cells, (cells, cells))
        idx = (np.arange(z) * cells) // z
        img = np.asarray(levels)[grid[np.ix_(idx, idx)]]
        low, high = data.draw(st.sampled_from([(100.0, 200.0), (20.0, 30.0),
                                               (1.0, 250.0)]))
        unit = data.draw(st.sampled_from([1.0, 255.0]))
        with pytest.MonkeyPatch.context() as mp:
            detail_with_fallbacks(img / 255.0 if unit == 1.0 else img, mp,
                                  low, high)

    @pytest.mark.parametrize("z", [2, 3, 24, 128, 130, 1024])
    @pytest.mark.parametrize("unit", [1.0, 255.0])
    def test_sizes(self, z, unit, monkeypatch):
        # 128² is the tile API's tile; 1024² the streaming tile
        rng = np.random.default_rng(z)
        img = np.kron(rng.integers(0, 4, (z // 2 + 1, z // 2 + 1)),
                      np.ones((2, 2)))[:z, :z] * 60.0
        img += rng.random((z, z)) * 20.0 + 2.0
        n = detail_with_fallbacks(img / 255.0 if unit == 1.0 else img,
                                  monkeypatch)
        # a [0,1] image, or one with a block whose every value exceeds 1,
        # settles the rescale from the gray bounds alone
        assert n == 0

    @pytest.mark.parametrize("value", [1.0, 1.0 + 1e-9, 1.5, 3.0, 3.7, 4.0,
                                       9.0])
    def test_isolated_bright_pixels_fall_back_to_the_dense_blur(
            self, value, monkeypatch):
        # gray max above 1 (within the bound's slack of 1+1e-9, or past
        # it) while the blurred max (~0.27·value) may stay under 1+1e-9,
        # and no block lies wholly above 1: the gray bounds cannot settle
        # canny_edges' rescale
        img = np.zeros((64, 64))
        img[[5, 30, 31, 60], [7, 40, 41, 2]] = value
        n = detail_with_fallbacks(img, monkeypatch, 20.0, 30.0)
        assert n == (value > 1.0)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("at", [_SIDE - 3, _SIDE - 2, _SIDE - 1, _SIDE,
                                    _SIDE + 1, _SIDE + 2, 2 * _SIDE + 2])
    @pytest.mark.parametrize("h", [25.0 * (1.0 + k * np.finfo(float).eps)
                                   for k in (-2, 0, 2)] + [200.0])
    def test_step_in_a_blocks_gray_halo(self, axis, at, h, monkeypatch):
        # a gray step at row ``at`` reaches a block's screen window through
        # the blur from up to two rows outside it; at 200 the step two rows
        # below a block makes edges on the block's last row (gy ≈ 4·K0·h)
        img = np.full((64, 64), 40.0)
        img[at:] += h
        img[at:, 40:] += 2 * h
        detail_with_fallbacks(img if axis == 0 else img.T.copy(),
                              monkeypatch)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("below", [True, False])
    def test_edge_seen_only_through_the_two_pixel_halo(self, axis, below,
                                                       monkeypatch):
        # A step along x in the rows from two past a block's edge on: the
        # block's edge row gets its gradient only from the gray row two
        # away (through the blur), and with thresholds 20/30 it is an edge
        # pixel that a one-pixel gray halo would miss.
        b = _SIDE
        img = np.full((64, 64), 10.0)
        if below:
            img[b + 1:, 32:] = 240.0
        else:
            img[:b - 1, 32:] = 240.0
        img = img if axis == 0 else img.T.copy()
        detail_with_fallbacks(img, monkeypatch, 20.0, 30.0)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("at", [1, 2, 3, 61, 62, 63])
    @pytest.mark.parametrize("unit", [1.0, 255.0])
    def test_steps_at_the_image_border(self, axis, at, unit, monkeypatch):
        img = np.full((64, 64), 20.0)
        img[at:] = 230.0
        img[:, :at] += 4.0
        img = img if axis == 0 else img.T.copy()
        detail_with_fallbacks(img / 255.0 if unit == 1.0 else img,
                              monkeypatch)

    @pytest.mark.parametrize("k", [-4, -1, 0, 1, 4])
    def test_gray_range_at_the_skip_threshold(self, k, monkeypatch):
        # Block (1, 1)'s gray window, two pixels wider than its screen
        # window, spans a ramp whose range sits k ulps around the gray
        # skip threshold fl(t·_RANGE_SCALE) - 2⁻⁴⁰·absmax; a uniform
        # 150 corner settles the scale (1) and sets max|gray|.
        low, b = 100.0, _SIDE
        img = np.zeros((64, 64))
        img[40:, :24] = 150.0
        absmax = 150.0 * (1.0 + _SCREEN_SLACK)
        t = low - _SCREEN_SLACK * absmax
        thr = t * _RANGE_SCALE - _SCREEN_SLACK * absmax
        r = thr * (1.0 + k * np.finfo(np.float64).eps)
        ys, xs = np.mgrid[0:b + 4, 0:b + 4]
        img[b - 2:2 * b + 2, b - 2:2 * b + 2] = r * ((ys + xs) / (2 * b + 6))
        assert img[b - 2:2 * b + 2, b - 2:2 * b + 2].max() == r
        assert detail_with_fallbacks(img, monkeypatch) == 0


class TestWeakJoin:
    @pytest.mark.parametrize("z", [1, 2, 5, 33, 64])
    @pytest.mark.parametrize("density", [0.05, 0.3, 0.6, 1.0])
    def test_partition_matches_ndimage_label(self, z, density):
        rng = np.random.default_rng([z, int(density * 100)])
        for _ in range(3):
            mask = rng.random((z, z)) < density
            ys, xs = np.nonzero(mask)
            root = _join8(ys, xs, z)
            labels = ndimage.label(mask, structure=np.ones((3, 3)))[0][ys, xs]
            pairs = set(zip(root.tolist(), labels.tolist()))
            assert len(pairs) == len(set(root.tolist())) \
                == len(set(labels.tolist()))

    def test_long_snake_and_empty_set(self):
        z = 31
        mask = np.zeros((z, z), dtype=bool)
        mask[::2] = True                        # rows joined at alternate
        mask[1::4, -1] = mask[3::4, 0] = True   # ends: one long path
        ys, xs = np.nonzero(mask)
        assert len(set(_join8(ys, xs, z).tolist())) == 1
        assert len(_join8(ys[:0], xs[:0], z)) == 0


class TestScratchAliasing:
    """The channel adapt and the screen write into per-thread scratch;
    no returned sequence may keep a view of it."""

    @staticmethod
    def _reference(img):
        gray = img.mean(axis=2)
        return AdaptivePatcher(patch_size=4, split_value=2.0).extract(gray)

    def test_three_image_batch(self):
        imgs = images(64, 3)
        pipe = PatchPipeline(patch_size=4, split_value=2.0, channels=1,
                             cache_items=0)
        for got, img in zip(pipe.process(imgs), imgs):
            assert_seq_identical(got, self._reference(img))

    @pytest.mark.parametrize("cache_items", [0, 8])
    def test_earlier_results_survive_later_calls(self, cache_items):
        a, b = images(64, 2)
        pipe = PatchPipeline(patch_size=4, split_value=2.0, channels=1,
                             cache_items=cache_items)
        first = pipe.process([a])[0]
        kept = first.patches.copy()
        pipe.process([b, a[::-1]])
        np.testing.assert_array_equal(first.patches, kept)
        again = pipe.process([a])[0]
        np.testing.assert_array_equal(again.patches, kept)
        assert (again is first) == bool(cache_items)

    def test_two_threads_at_once(self):
        imgs = images(64, 6)
        pipe = PatchPipeline(patch_size=4, split_value=2.0, channels=1,
                             cache_items=0)
        want = [self._reference(im) for im in imgs]
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(3):
                got = list(pool.map(lambda im: pipe.process([im])[0], imgs))
                for g, w in zip(got, want):
                    assert_seq_identical(g, w)


class TestBatchedTree:
    def test_batch_matches_single_builds(self):
        details = [(generate_wsi(64, seed=s).image.mean(axis=2) > 0.5)
                   .astype(np.float64) for s in range(5)]
        batch = build_tree_batch(details, 4.0, 4, min_size=2)
        for d, t in zip(details, batch):
            ref = build_quadtree(d, 4.0, 4, min_size=2)
            np.testing.assert_array_equal(t.ys, ref.ys)
            np.testing.assert_array_equal(t.xs, ref.xs)
            np.testing.assert_array_equal(t.sizes, ref.sizes)
            np.testing.assert_array_equal(t.depths, ref.depths)
            assert t.nodes_visited == ref.nodes_visited
            assert t.size == ref.size

    def test_empty_batch(self):
        assert build_tree_batch([], 1.0, 4) == []

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            build_tree_batch([np.zeros((8, 8)), np.zeros((16, 16))], 1.0, 3)


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
