"""Tests for the tile pyramid: geometry, downsampling, digests, caching."""

import numpy as np
import pytest

from repro.pipeline.engine import content_key
from repro.pyramid import PyramidTile, TilePyramid
from repro.stream.source import ArraySource, VirtualWSISource


def _array_source(h=256, w=256, channels=3, seed=0):
    rng = np.random.default_rng(seed)
    shape = (h, w, channels) if channels else (h, w)
    return ArraySource(rng.random(shape))


class TestGeometry:
    def test_level_ladder(self):
        py = TilePyramid(VirtualWSISource(2048, tile=256), tile=256)
        assert py.n_levels == 4                 # 2048 -> 1024 -> 512 -> 256
        assert py.level_shape(0) == (2048, 2048)
        assert py.level_shape(3) == (256, 256)
        assert py.grid(0) == (8, 8)
        assert py.grid(3) == (1, 1)

    def test_max_level_cap(self):
        py = TilePyramid(VirtualWSISource(2048, tile=256), tile=256,
                         max_level=1)
        assert py.n_levels == 2

    def test_non_square_scene(self):
        py = TilePyramid(_array_source(h=512, w=256), tile=128)
        assert py.n_levels == 2
        assert py.grid(0) == (4, 2)
        assert py.grid(1) == (2, 1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            TilePyramid(_array_source(), tile=100)      # not a power of two
        with pytest.raises(ValueError):
            TilePyramid(_array_source(h=200, w=256), tile=128)  # no divide
        with pytest.raises(ValueError):
            TilePyramid(_array_source(), tile=128, cache_tiles=2)

        class NotImage:
            kind = "volume"
            shape = (8, 256, 256)
        with pytest.raises(ValueError):
            TilePyramid(NotImage())

    def test_parent_child_roundtrip(self):
        py = TilePyramid(_array_source(h=512, w=512), tile=128)
        t = PyramidTile(0, 3, 1)
        parent = py.parent(t)
        assert parent == PyramidTile(1, 1, 0)
        assert t in py.children(parent)
        assert py.parent(PyramidTile(py.n_levels - 1, 0, 0)) is None
        assert py.children(PyramidTile(0, 0, 0)) == []

    def test_viewport_cover_clamps(self):
        py = TilePyramid(_array_source(h=512, w=512), tile=128)
        full = py.viewport_tiles(0, (0, 0), (512, 512))
        assert len(full) == 16
        # off-slide window clamps to the visible intersection
        edge = py.viewport_tiles(0, (-100, 400), (256, 256))
        assert edge == [PyramidTile(0, 0, 3), PyramidTile(0, 1, 3)]
        assert py.viewport_tiles(0, (600, 600), (64, 64)) == []

    def test_viewport_cover_is_exact(self):
        py = TilePyramid(_array_source(h=512, w=512), tile=128)
        tiles = py.viewport_tiles(0, (100, 100), (200, 200))
        # every returned tile intersects the window, none missing
        assert tiles == [PyramidTile(0, ty, tx)
                         for ty in (0, 1, 2) for tx in (0, 1, 2)]

    def test_out_of_range_rejected(self):
        py = TilePyramid(_array_source(), tile=128)
        with pytest.raises(ValueError):
            py.level_shape(py.n_levels)
        with pytest.raises(ValueError):
            py.tile_pixels(PyramidTile(0, 9, 0))
        with pytest.raises(ValueError):
            py.viewport_tiles(0, (0, 0), (0, 100))


class TestPixels:
    def test_level0_matches_source(self):
        src = _array_source(h=256, w=256)
        py = TilePyramid(src, tile=128)
        got = py.tile_pixels(PyramidTile(0, 1, 0))
        np.testing.assert_array_equal(got,
                                      src.read_region((128, 0), (128, 128)))

    def test_downsample_is_mean_pool(self):
        src = _array_source(h=256, w=256)
        py = TilePyramid(src, tile=128)
        up = np.asarray(src.read_region((0, 0), (256, 256)), dtype=np.float64)
        expected = up.reshape(128, 2, 128, 2, -1).mean(axis=(1, 3))
        np.testing.assert_allclose(py.tile_pixels(PyramidTile(1, 0, 0)),
                                   expected)

    def test_grayscale_sources_supported(self):
        py = TilePyramid(_array_source(channels=0), tile=128)
        assert py.tile_pixels(PyramidTile(1, 0, 0)).shape == (128, 128)

    def test_pixels_deterministic_across_eviction(self):
        src = VirtualWSISource(1024, tile=256, seed=3, cache_tiles=4)
        t = PyramidTile(2, 0, 0)
        first = TilePyramid(src, tile=256, cache_tiles=4).tile_pixels(t)
        second = TilePyramid(src, tile=256, cache_tiles=4).tile_pixels(t)
        np.testing.assert_array_equal(first, second)

    def test_cache_hits_counted(self):
        py = TilePyramid(_array_source(), tile=128)
        t = PyramidTile(0, 0, 0)
        py.tile_pixels(t)
        py.tile_pixels(t)
        assert py.stats["cache_hits"] == 1
        assert py.stats["synthesized"] == 1

    def test_eviction_order_pins_stats(self):
        # A fixed call sequence through a 4-tile pixel cache that forces
        # eviction and re-synthesis; the counts after each call pin the
        # LRU's exact eviction order (the viewer report depends on it).
        py = TilePyramid(_array_source(channels=0), tile=32, cache_tiles=4)
        T = PyramidTile
        calls = [
            (py.tile_pixels, T(1, 0, 0), (4, 1, 0)),
            (py.tile_pixels, T(0, 0, 0), (5, 1, 0)),
            (py.tile_pixels, T(0, 1, 1), (5, 1, 1)),
            (py.digest, T(2, 0, 0), (17, 5, 2)),
            (py.tile_pixels, T(1, 0, 0), (21, 6, 2)),
            (py.tile_pixels, T(1, 1, 1), (25, 7, 2)),
            (py.digest, T(1, 0, 0), (29, 8, 2)),
            (py.digest, T(0, 0, 0), (30, 8, 2)),
            (py.tile_pixels, T(0, 0, 0), (30, 8, 3)),
            (py.tile_pixels, T(2, 0, 0), (42, 12, 4)),
            (py.digest, T(3, 0, 0), (90, 28, 5)),
        ]
        for call, tile, (synth, down, hits) in calls:
            call(tile)
            assert py.stats == {"synthesized": synth, "downsampled": down,
                                "cache_hits": hits}, (call.__name__, tile)

    def test_returned_tiles_are_frozen(self):
        py = TilePyramid(_array_source(), tile=128)
        px = py.tile_pixels(PyramidTile(0, 0, 0))
        with pytest.raises(ValueError):
            px[0, 0] = 0.0


class TestDigests:
    def test_digest_matches_content_key(self):
        py = TilePyramid(_array_source(), tile=128)
        t = PyramidTile(0, 0, 1)
        assert py.digest(t) == content_key(py.tile_pixels(t))

    def test_identical_pixels_same_digest(self):
        # A constant scene: every tile of every level digests identically.
        src = ArraySource(np.full((256, 256, 3), 0.5))
        py = TilePyramid(src, tile=128)
        digests = {py.digest(PyramidTile(level, ty, tx))
                   for level in range(py.n_levels)
                   for ty in range(py.grid(level)[0])
                   for tx in range(py.grid(level)[1])}
        assert len(digests) == 1

    def test_digest_survives_pixel_eviction(self):
        py = TilePyramid(_array_source(h=1024, w=1024), tile=128,
                         cache_tiles=4)
        t = PyramidTile(0, 0, 0)
        d = py.digest(t)
        for ty in range(8):              # churn the pixel LRU
            for tx in range(8):
                py.tile_pixels(PyramidTile(0, ty, tx))
        before = dict(py.stats)
        assert py.digest(t) == d         # memoized: no resynthesis
        assert py.stats == before

    def test_describe_is_jsonable(self):
        import json
        py = TilePyramid(_array_source(), tile=128)
        desc = py.describe()
        json.dumps(desc)
        assert desc["n_levels"] == py.n_levels
        assert desc["total_tiles"] == 4 + 1
