"""Row algebra shared by the leaf sets and the patch/volume sequences.

``QuadtreeLeaves``, ``OctreeLeaves``, ``PatchSequence`` and
``VolumeSequence`` are all :class:`~repro.rows.Rows` tables: every
reorder, drop, pad and subset moves whole rows, so each field named in
``ROWS`` must travel with the others, and the scalars must carry over
untouched unless a caller changes them.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.data import generate_wsi
from repro.patching import (AdaptivePatcher, PatchSequence,
                            VolumetricAdaptivePatcher)
from repro.patching.volumetric import VolumeSequence
from repro.quadtree import (QuadtreeLeaves, build_octree, build_quadtree,
                            build_tree_batch)
from repro.quadtree.octree import OctreeLeaves


def corner_image(z=64, seed=0):
    """Flat background with one noisy corner: a mix of leaf sizes."""
    img = np.full((z, z), 0.25)
    img[:8, :8] = np.random.default_rng(seed).random((8, 8))
    return img


def corner_volume(seed=0):
    vol = np.full((16, 16, 16), 0.3)
    vol[:4, :4, :4] = np.random.default_rng(seed).random((4, 4, 4))
    return vol


def detail_map(img):
    return AdaptivePatcher(patch_size=4, split_value=8.0).detail_map(img)


def octree_detail(seed=0):
    vol = np.zeros((16, 16, 16))
    vol[:4, :4, :4] = np.random.default_rng(seed).random((4, 4, 4))
    return vol


def make_quadtree():
    return build_quadtree(detail_map(generate_wsi(64, seed=0).image),
                          split_value=8.0, max_depth=10, min_size=4)


def make_octree():
    return build_octree(octree_detail(), split_value=0.5, max_depth=6,
                        min_size=4)


def make_patch_sequence():
    return AdaptivePatcher(patch_size=4, split_value=8.0)(corner_image())


def make_volume_sequence():
    return VolumetricAdaptivePatcher(patch_size=4, split_value=2.0)(
        corner_volume())


#: kind -> (class, builder, one scalar field and a new value for it)
KINDS = {
    "quadtree": (QuadtreeLeaves, make_quadtree, ("nodes_visited", 12345)),
    "octree": (OctreeLeaves, make_octree, ("nodes_visited", 12345)),
    "patch_sequence": (PatchSequence, make_patch_sequence, ("n_dropped", 7)),
    "volume_sequence": (VolumeSequence, make_volume_sequence,
                        ("n_dropped", 7)),
}

ROW_FIELDS = [(kind, name) for kind, (cls, _, _) in KINDS.items()
              for name in cls.ROWS]


def scalars(table):
    return {f.name: getattr(table, f.name) for f in fields(table)
            if f.name not in table.ROWS}


def assert_rows_equal(a, b):
    assert a.ROWS == b.ROWS
    for name in a.ROWS:
        col_a, col_b = getattr(a, name), getattr(b, name)
        assert col_a.dtype == col_b.dtype, name
        np.testing.assert_array_equal(col_a, col_b, err_msg=name)


@pytest.fixture(params=list(KINDS))
def table(request):
    return KINDS[request.param][1]()


class TestSchema:
    def test_rows_name_array_fields_of_one_length(self, table):
        names = {f.name for f in fields(table)}
        assert len(table) > 1
        for name in table.ROWS:
            assert name in names
            col = getattr(table, name)
            assert isinstance(col, np.ndarray), name
            assert len(col) == len(table), name

    def test_axes_and_sizes_are_row_fields(self, table):
        assert set(table.AXES) <= set(table.ROWS)
        assert "sizes" in table.ROWS
        assert len(table.AXES) == (3 if "zs" in table.ROWS else 2)

    @pytest.mark.parametrize("kind,name", ROW_FIELDS)
    def test_every_short_column_raises(self, kind, name):
        full = KINDS[kind][1]()
        with pytest.raises(ValueError, match="inconsistent"):
            replace(full, **{name: getattr(full, name)[:-1]})


class TestTake:
    def test_identity_permutation_is_an_equal_copy(self, table):
        out = table.take(np.arange(len(table)))
        assert type(out) is type(table)
        assert_rows_equal(out, table)
        assert scalars(out) == scalars(table)

    def test_reversal_moves_every_column_together(self, table):
        out = table.take(np.arange(len(table))[::-1])
        for name in table.ROWS:
            np.testing.assert_array_equal(getattr(out, name),
                                          getattr(table, name)[::-1])

    def test_boolean_mask_keeps_marked_rows(self, table):
        mask = np.arange(len(table)) % 3 == 0
        out = table.take(mask)
        assert len(out) == int(mask.sum())
        for name in table.ROWS:
            np.testing.assert_array_equal(getattr(out, name),
                                          getattr(table, name)[mask])

    def test_empty_index_keeps_column_shapes(self, table):
        out = table.take(np.array([], dtype=np.int64))
        assert len(out) == 0
        for name in table.ROWS:
            assert getattr(out, name).shape[1:] == \
                getattr(table, name).shape[1:]
            assert getattr(out, name).dtype == getattr(table, name).dtype

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_changes_set_scalars_and_leave_the_rest(self, kind):
        _, make, (name, value) = KINDS[kind]
        src = make()
        out = src.take(np.arange(len(src)), **{name: value})
        assert getattr(out, name) == value
        expect = dict(scalars(src), **{name: value})
        assert scalars(out) == expect
        assert_rows_equal(out, src)

    def test_result_does_not_alias_the_source(self, table):
        before = {n: getattr(table, n).copy() for n in table.ROWS}
        out = table.take(np.arange(len(table)))
        for name in table.ROWS:
            col = getattr(out, name)
            col[...] = np.zeros_like(col)
        for name in table.ROWS:
            np.testing.assert_array_equal(getattr(table, name), before[name])


class TestPad:
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_appends_zero_rows_in_each_field_dtype(self, table, n):
        out = table.pad(n)
        assert len(out) == len(table) + n
        assert scalars(out) == scalars(table)
        for name in table.ROWS:
            col, src = getattr(out, name), getattr(table, name)
            assert col.dtype == src.dtype, name
            np.testing.assert_array_equal(col[:len(table)], src)
            assert not col[len(table):].any(), name

    def test_padding_after_take_keeps_the_taken_rows(self, table):
        keep = np.arange(0, len(table), 2)
        out = table.take(keep).pad(3)
        assert len(out) == len(keep) + 3
        for name in table.ROWS:
            np.testing.assert_array_equal(getattr(out, name)[:len(keep)],
                                          getattr(table, name)[keep])


class TestLeafRows:
    @pytest.mark.parametrize("make", [make_quadtree, make_octree])
    def test_morton_sort_permutes_rows_with_their_corners(self, make):
        leaves = make()
        srt = leaves.sorted_by_morton()
        assert len(srt) == len(leaves)

        def rows(t):
            corners = zip(*(getattr(t, a) for a in t.AXES))
            return {tuple(int(c) for c in corner): (int(s), int(d))
                    for corner, s, d in zip(corners, t.sizes, t.depths)}
        assert rows(srt) == rows(leaves)

    @pytest.mark.parametrize("make", [make_quadtree, make_octree])
    def test_permuted_leaves_still_tile_the_scene(self, make):
        leaves = make()
        perm = np.random.default_rng(0).permutation(len(leaves))
        assert leaves.take(perm).covers_exactly()
        assert not leaves.take(perm[1:]).covers_exactly()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quadtree_batch_builder_matches_reference(self, seed):
        ds = [detail_map(generate_wsi(64, seed=s).image)
              for s in (seed, seed + 3)]
        batched = build_tree_batch(np.stack(ds), split_value=8.0,
                                   max_depth=10, min_size=4)
        for d, got in zip(ds, batched):
            ref = build_quadtree(d, split_value=8.0, max_depth=10,
                                 min_size=4)
            assert_rows_equal(got, ref)
            assert scalars(got) == scalars(ref)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_octree_batch_builder_matches_reference(self, seed):
        ds = np.stack([octree_detail(seed), octree_detail(seed + 2)])
        for d, got in zip(ds, build_tree_batch(ds, split_value=0.5,
                                               max_depth=6, min_size=4)):
            ref = build_octree(d, split_value=0.5, max_depth=6, min_size=4)
            assert_rows_equal(got, ref)
            assert scalars(got) == scalars(ref)


class TestSequenceRows:
    PATCHERS = {
        "2d": (lambda **kw: AdaptivePatcher(patch_size=4, split_value=8.0,
                                            **kw), corner_image),
        "3d": (lambda **kw: VolumetricAdaptivePatcher(
            patch_size=4, split_value=2.0, **kw), corner_volume),
    }

    @pytest.mark.parametrize("dim", list(PATCHERS))
    def test_fit_length_pads_invalid_zero_rows(self, dim):
        make, scene = self.PATCHERS[dim]
        p = make()
        seq = p(scene())
        padded = p.fit_length(seq, len(seq) + 7)
        assert len(padded) == len(seq) + 7
        assert padded.n_dropped == 0 and padded.n_real == seq.n_real
        head = padded.take(np.arange(len(seq)))
        assert_rows_equal(head, seq)
        assert not padded.valid[len(seq):].any()
        assert not padded.sizes[len(seq):].any()
        assert not padded.patches[len(seq):].any()

    @pytest.mark.parametrize("strategy", ["random", "coarsest-first"])
    @pytest.mark.parametrize("dim", list(PATCHERS))
    def test_fit_length_drop_keeps_whole_rows(self, dim, strategy):
        make, scene = self.PATCHERS[dim]
        p = make(drop_strategy=strategy)
        seq = p(scene())
        short = p.fit_length(seq, len(seq) - 3,
                             rng=np.random.default_rng(0))
        assert len(short) == len(seq) - 3
        assert short.n_dropped == 3
        lut = {tuple(int(getattr(seq, a)[i]) for a in seq.AXES): i
               for i in range(len(seq))}
        picked = [lut[tuple(int(getattr(short, a)[j]) for a in short.AXES)]
                  for j in range(len(short))]
        assert picked == sorted(picked)   # drops keep sequence order
        assert_rows_equal(short, seq.take(np.array(picked)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pipeline_batch_matches_single_extract(self, seed):
        from repro.pipeline import PatchPipeline
        imgs = [corner_image(seed=s) for s in (seed, seed + 3, seed + 6)]
        pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                             cache_items=0)
        ref = AdaptivePatcher(patch_size=4, split_value=8.0)
        for seq, img in zip(pipe.process(imgs, None), imgs):
            assert_rows_equal(seq, ref(img))
