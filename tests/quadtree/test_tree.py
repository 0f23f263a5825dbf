"""Tests for the Eq. 6 quadtree builder: tiling invariants, split semantics,
depth limits, and the 2:1 balance pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quadtree import (balance_2to1, build_quadtree, build_quadtree_batch,
                            max_depth_for, morton_encode)


def center_blob(z=64, r=6):
    """Detail map with a dense blob in the center — classic APF-friendly input."""
    d = np.zeros((z, z))
    c = z // 2
    yy, xx = np.mgrid[0:z, 0:z]
    d[(yy - c) ** 2 + (xx - c) ** 2 < r * r] = 1.0
    return d


class TestMaxDepthFor:
    def test_paper_examples(self):
        # 512 with 2x2 minimum patches → depth 8
        assert max_depth_for(512, 2) == 8
        assert max_depth_for(512, 4) == 7
        assert max_depth_for(16384, 2) == 13

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            max_depth_for(512, 3)

    def test_rejects_non_pow2_ratio(self):
        with pytest.raises(ValueError):
            max_depth_for(768, 256)  # ratio 3 is not a power of two


class TestBuildBasics:
    def test_empty_detail_single_leaf(self):
        leaves = build_quadtree(np.zeros((32, 32)), split_value=0.0, max_depth=5)
        assert len(leaves) == 1
        assert leaves.sizes[0] == 32
        assert leaves.covers_exactly()

    def test_full_detail_fully_refines(self):
        leaves = build_quadtree(np.ones((16, 16)), split_value=0.0, max_depth=4)
        assert len(leaves) == 256  # all 1x1
        assert (leaves.sizes == 1).all()
        assert leaves.covers_exactly()

    def test_depth_limit_respected(self):
        leaves = build_quadtree(np.ones((16, 16)), split_value=0.0, max_depth=2)
        assert (leaves.sizes == 4).all()
        assert leaves.depths.max() == 2

    def test_min_size_respected(self):
        leaves = build_quadtree(np.ones((16, 16)), split_value=0.0, max_depth=10,
                                min_size=4)
        assert leaves.sizes.min() == 4

    def test_blob_refines_center_only(self):
        leaves = build_quadtree(center_blob(), split_value=2.0, max_depth=6)
        assert leaves.covers_exactly()
        # Smallest leaves concentrate near the center blob.
        small = leaves.sizes == leaves.sizes.min()
        cy = leaves.ys[small] + leaves.sizes[small] / 2
        cx = leaves.xs[small] + leaves.sizes[small] / 2
        assert np.abs(cy - 32).max() < 24 and np.abs(cx - 32).max() < 24
        # Far corners stay coarse.
        corner = (leaves.ys == 0) & (leaves.xs == 0)
        assert leaves.sizes[corner].max() >= 16

    def test_split_value_monotonicity(self):
        d = center_blob()
        lens = [build_quadtree(d, v, max_depth=6).sequence_length
                for v in (0.5, 2, 8, 32, 128)]
        assert lens == sorted(lens, reverse=True)

    def test_sequence_shorter_than_uniform(self):
        # The headline claim: adaptive ≪ uniform at the same minimum patch size.
        z, p = 64, 2
        leaves = build_quadtree(center_blob(z), split_value=2.0,
                                max_depth=max_depth_for(z, p))
        uniform = (z // p) ** 2
        assert leaves.sequence_length < uniform / 4

    def test_eq6_split_criterion_exact(self):
        # A region with detail mass exactly equal to v must NOT split (<= v keeps).
        d = np.zeros((8, 8))
        d[0, 0] = 5.0
        keep = build_quadtree(d, split_value=5.0, max_depth=3)
        assert len(keep) == 1
        split = build_quadtree(d, split_value=4.999, max_depth=3)
        assert len(split) > 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_quadtree(np.zeros((8, 4)), 1.0, 3)
        with pytest.raises(ValueError):
            build_quadtree(np.zeros((12, 12)), 1.0, 3)
        with pytest.raises(ValueError):
            build_quadtree(np.zeros((8, 8)), -1.0, 3)
        with pytest.raises(ValueError):
            build_quadtree(np.zeros((8, 8)), 1.0, 3, min_size=3)

    def test_nodes_visited_counts(self):
        leaves = build_quadtree(np.ones((8, 8)), 0.0, 3)
        # Full tree: 1 + 4 + 16 + 64 = 85 nodes.
        assert leaves.nodes_visited == 85


class TestLeafProperties:
    def test_sizes_are_powers_of_two(self):
        leaves = build_quadtree(center_blob(), split_value=3.0, max_depth=6)
        assert all(s & (s - 1) == 0 for s in leaves.sizes)

    def test_depth_size_relation(self):
        leaves = build_quadtree(center_blob(), split_value=3.0, max_depth=6)
        np.testing.assert_array_equal(leaves.sizes, 64 >> leaves.depths)

    def test_histogram_totals(self):
        leaves = build_quadtree(center_blob(), split_value=3.0, max_depth=6)
        hist = leaves.size_histogram()
        assert sum(hist.values()) == len(leaves)
        assert sum(s * s * c for s, c in hist.items()) == 64 * 64

    def test_morton_order_sorted_codes(self):
        leaves = build_quadtree(center_blob(), split_value=3.0, max_depth=6)
        z = leaves.sorted_by_morton()
        codes = morton_encode(z.ys, z.xs)
        assert (np.diff(codes.astype(np.int64)) > 0).all()

    def test_mean_patch_size(self):
        leaves = build_quadtree(np.zeros((32, 32)), 0.0, 5)
        assert leaves.mean_patch_size == 32.0


class TestBalance:
    def test_balanced_tree_unchanged(self):
        leaves = build_quadtree(np.zeros((16, 16)), 0.0, 4)
        bal = balance_2to1(leaves)
        assert len(bal) == len(leaves)

    def test_unbalanced_neighbor_split(self):
        # Deep refinement in one corner next to a huge leaf violates 2:1.
        d = np.zeros((32, 32))
        d[0:2, 0:2] = 10.0
        leaves = build_quadtree(d, split_value=0.5, max_depth=5)
        sizes_before = sorted(set(leaves.sizes))
        bal = balance_2to1(leaves)
        assert bal.covers_exactly()
        # Verify constraint: rasterize and compare edge-adjacent sizes.
        size_map = np.zeros((32, 32), dtype=int)
        for y, x, s in zip(bal.ys, bal.xs, bal.sizes):
            size_map[y:y + s, x:x + s] = s
        ratio_v = size_map[1:, :] / size_map[:-1, :]
        ratio_h = size_map[:, 1:] / size_map[:, :-1]
        assert max(ratio_v.max(), 1 / ratio_v.min(),
                   ratio_h.max(), 1 / ratio_h.min()) <= 2.0
        assert len(bal) >= len(leaves)
        assert min(sizes_before) == bal.sizes.min()  # finest level untouched


class TestProperties:
    @given(st.integers(0, 10 ** 6), st.integers(1, 5), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_property_exact_tiling(self, seed, depth, blob_count):
        rng = np.random.default_rng(seed)
        z = 32
        d = np.zeros((z, z))
        for _ in range(blob_count):
            y, x = rng.integers(0, z, 2)
            d[max(0, y - 2):y + 2, max(0, x - 2):x + 2] = rng.random()
        leaves = build_quadtree(d, split_value=float(rng.random() * 4),
                                max_depth=depth)
        assert leaves.covers_exactly()

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_property_split_value_monotone(self, seed):
        rng = np.random.default_rng(seed)
        d = (rng.random((32, 32)) > 0.8).astype(float)
        prev = None
        for v in (0.0, 1.0, 4.0, 16.0, 64.0):
            n = build_quadtree(d, v, max_depth=5).sequence_length
            if prev is not None:
                assert n <= prev
            prev = n

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_property_morton_is_permutation(self, seed):
        rng = np.random.default_rng(seed)
        d = (rng.random((16, 16)) > 0.7).astype(float)
        leaves = build_quadtree(d, 1.0, 4)
        order = leaves.morton_order()
        assert sorted(order) == list(range(len(leaves)))


def _dense_integral(detail, step):
    """The dense summed-area table the builders used before the grid
    table (kept here as the reference; ``step`` is ignored)."""
    ii = np.cumsum(np.cumsum(detail.astype(np.float64), axis=0), axis=1)
    return np.pad(ii, ((1, 0), (1, 0)))


def _dense_region_sums(ii, ys, xs, size, step):
    y1, x1 = ys + size, xs + size
    return ii[y1, x1] - ii[ys, x1] - ii[y1, xs] + ii[ys, xs]


class TestPatchGridIntegral:
    """Region sums from the patch-grid table must equal the dense table's
    bit for bit on float maps, where summation order is visible."""

    @staticmethod
    def _maps(z, seed):
        from repro.data import generate_wsi
        from repro.imaging import gaussian_blur, to_grayscale
        from repro.patching.adaptive import _variance_detail
        rng = np.random.default_rng(seed)
        g = to_grayscale(np.asarray(generate_wsi(max(z, 32), seed=seed).image,
                                    dtype=np.float64))[:z, :z]
        wide = rng.random((z, z)) ** 3 * 10.0 ** rng.integers(-6, 7, (z, z))
        wide[rng.random((z, z)) < 0.2] = 0.0
        return [_variance_detail(gaussian_blur(g, 3), window=2) * 16.0,
                wide, wide.astype(np.float32), rng.random((z, z)) > 0.7]

    @pytest.mark.parametrize("z,min_size", [(32, 1), (32, 2), (64, 4),
                                            (64, 8), (8, 8), (8, 16),
                                            (4, 32)])
    def test_matches_dense_table(self, monkeypatch, z, min_size):
        import repro.quadtree.tree as tree
        maps = self._maps(z, seed=z + min_size)
        step = min(min_size, z)
        depth = max_depth_for(z, 1)
        for d in maps:
            dense = _dense_integral(d, step)
            np.testing.assert_array_equal(
                tree._integral(d, step).view(np.uint64),
                dense[::step, ::step].view(np.uint64))
        # One split value per map, so every map splits to mixed depths.
        splits = [float(np.asarray(d, np.float64).sum()) / z for d in maps]
        got = [build_quadtree(d, v, depth, min_size)
               for d, v in zip(maps, splits)]
        batches = [build_quadtree_batch([d, d[::-1]], v, depth, min_size)
                   for d, v in zip(maps, splits)]
        monkeypatch.setattr(tree, "_integral", _dense_integral)
        monkeypatch.setattr(tree, "_region_sums", _dense_region_sums)
        for d, v, g, b in zip(maps, splits, got, batches):
            refs = [build_quadtree(d, v, depth, min_size),
                    build_quadtree(d[::-1], v, depth, min_size)]
            for t, ref in [(g, refs[0])] + list(zip(b, refs)):
                for name in ("ys", "xs", "sizes", "depths"):
                    np.testing.assert_array_equal(getattr(t, name),
                                                  getattr(ref, name))
                assert t.nodes_visited == ref.nodes_visited
                np.testing.assert_array_equal(t.details.view(np.uint64),
                                              ref.details.view(np.uint64))
