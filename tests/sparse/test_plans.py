"""Tests for sparse execution plans: masks, row maps, reductions."""

import numpy as np

from repro.models import ViTSegmenter
from repro.patching import (AdaptivePatcher, UniformPatcher,
                            VolumetricAdaptivePatcher)
from repro.pipeline import PatchPipeline
from repro.serve import Predictor
from repro.sparse import (SparsityConfig, background_mask, shortcircuit_plan,
                          take_tokens, token_digests)
from repro.sparse.config import MIN_BACKGROUND, QUANTIZE


def corner_image(z=64, seed=0):
    img = np.full((z, z), 0.25)
    img[:8, :8] = np.random.default_rng(seed).random((8, 8))
    return img


def corner_seq(z=64, seed=0, split=8.0):
    return AdaptivePatcher(patch_size=4, split_value=split)(
        corner_image(z, seed))


class TestBackgroundMask:
    def test_none_without_detail_metadata(self):
        seq = UniformPatcher(4)(corner_image())
        assert seq.details is None
        assert background_mask(seq, 0.0) is None

    def test_quadtree_flat_leaves_are_background(self):
        seq = corner_seq()
        bg = background_mask(seq, 0.0)
        assert bg is not None and bg.any() and not bg.all()
        # The mask is exactly the zero-detail leaves — and those leaves
        # really are flat content.
        np.testing.assert_array_equal(bg, seq.details == 0.0)
        for i in np.flatnonzero(bg):
            assert float(np.ptp(seq.patches[i])) == 0.0

    def test_threshold_widens_the_mask(self):
        seq = corner_seq()
        assert background_mask(seq, 1e9).sum() >= \
            background_mask(seq, 0.0).sum()

    def test_respects_validity(self):
        seq = corner_seq()
        padded = AdaptivePatcher(patch_size=4).fit_length(seq, len(seq) + 5)
        bg = background_mask(padded, 0.0)
        assert not bg[~padded.valid].any()


class TestTakeTokens:
    def test_subset_is_well_formed(self):
        seq = corner_seq()
        idx = np.arange(len(seq))[::2]
        sub = take_tokens(seq, idx)
        assert len(sub) == len(idx)
        np.testing.assert_array_equal(sub.ys, seq.ys[idx])
        np.testing.assert_array_equal(sub.sizes, seq.sizes[idx])
        np.testing.assert_array_equal(sub.details, seq.details[idx])
        np.testing.assert_array_equal(sub.tokens(), seq.tokens()[idx])
        assert sub.image_size == seq.image_size

    def test_volumetric_subset(self):
        vol = np.full((16, 16, 16), 0.3)
        vol[:4, :4, :4] = np.random.default_rng(0).random((4, 4, 4))
        seq = VolumetricAdaptivePatcher(patch_size=4, split_value=2.0)(vol)
        assert seq.details is not None
        idx = np.arange(len(seq))[1::2]
        sub = take_tokens(seq, idx)
        np.testing.assert_array_equal(sub.zs, seq.zs[idx])
        np.testing.assert_array_equal(sub.details, seq.details[idx])
        assert sub.volume_size == seq.volume_size


class TestShortcircuitPlan:
    def test_warm_table_routes_all_background_to_minus_one(self):
        seq = corner_seq()
        digests = token_digests(seq.tokens(), 256)
        bg = background_mask(seq, 0.0)
        plan = shortcircuit_plan(seq, digests, bg, known=bg.copy())
        assert plan.n_skipped == int(bg.sum()) and plan.n_merged == 0
        assert len(plan.seeds) == 0                  # nothing new to seed
        assert len(plan.reduced_seq) == len(seq) - plan.n_skipped
        np.testing.assert_array_equal(plan.rows == -1, bg)
        kept = plan.rows[plan.rows >= 0]
        np.testing.assert_array_equal(kept, np.arange(len(kept)))
        # Kept rows read back exactly the tokens that ran.
        np.testing.assert_array_equal(plan.reduced_seq.tokens(),
                                      seq.tokens()[~bg])

    def test_cold_table_keeps_one_representative_per_digest(self):
        seq = corner_seq()
        digests = token_digests(seq.tokens(), 256)
        bg = background_mask(seq, 0.0)
        plan = shortcircuit_plan(seq, digests, bg,
                                 known=np.zeros(len(seq), dtype=bool))
        # Nothing known -> nothing leaves for the table, but duplicate
        # digests still collapse onto their first occurrence.
        assert plan.n_skipped == 0
        assert (plan.rows >= 0).all()
        groups = {(digests[i].tobytes(), int(seq.sizes[i]))
                  for i in np.flatnonzero(bg)}
        assert len(plan.seeds) == len(groups)
        assert plan.n_merged == int(bg.sum()) - len(groups)
        assert len(plan.reduced_seq) == len(seq) - plan.n_merged
        # Every background token reads a reduced row with its own digest,
        # and every seed is a background token that stayed in-sequence.
        red = token_digests(plan.reduced_seq.tokens(), 256)
        for i in np.flatnonzero(bg):
            assert red[plan.rows[i]] == digests[i]
        assert bg[plan.seeds].all()

    def test_mixed_known_and_unknown_digests(self):
        seq = corner_seq()
        digests = token_digests(seq.tokens(), 256)
        bg = background_mask(seq, 0.0)
        idx = np.flatnonzero(bg)
        known = np.zeros(len(seq), dtype=bool)
        known[idx[: len(idx) // 2]] = True
        plan = shortcircuit_plan(seq, digests, bg, known)
        assert plan.n_skipped == int((bg & known).sum())
        np.testing.assert_array_equal(plan.rows == -1, bg & known)
        # Unknown background tokens resolve in-sequence via representatives.
        red = token_digests(plan.reduced_seq.tokens(), 256)
        for i in idx[len(idx) // 2:]:
            assert red[plan.rows[i]] == digests[i]



class TestMergePlan:
    """Within the short-circuit plan, equal background digests merge.

    A cold-table background token whose (digest, leaf size) already
    appeared earlier in the sequence leaves the forward and reads its
    first occurrence's row; the plan counts these in ``n_merged``.
    """

    def test_runs_collapse_onto_first_member(self):
        seq = corner_seq(z=128)
        digests = token_digests(seq.tokens(), 256)
        bg = background_mask(seq, 0.0)
        plan = shortcircuit_plan(seq, digests, bg,
                                 known=np.zeros(len(seq), dtype=bool))
        assert plan.n_merged > 0
        first = {}
        for i in np.flatnonzero(bg):
            first.setdefault((digests[i].tobytes(), int(seq.sizes[i])), i)
        # The representatives are the groups' first members, in order.
        np.testing.assert_array_equal(plan.seeds, sorted(first.values()))
        kept = np.ones(len(seq), dtype=bool)
        for i in np.flatnonzero(bg):
            j = first[(digests[i].tobytes(), int(seq.sizes[i]))]
            kept[i] = i == j
            assert plan.rows[i] == plan.rows[j]
        # A first member keeps its own row: its rank among kept tokens.
        np.testing.assert_array_equal(plan.rows[kept],
                                      np.arange(int(kept.sum())))

    def test_none_when_nothing_merges(self):
        # One background token per (digest, leaf size) and a cold table:
        # nothing merges or skips, so the runtime takes no plan, and the
        # first sightings still seed the table.
        seq = corner_seq(z=128)
        bg = background_mask(seq, 0.0)
        digests = token_digests(seq.tokens(), QUANTIZE)
        first = {}
        for i in np.flatnonzero(bg):
            first.setdefault((digests[i].tobytes(), int(seq.sizes[i])), i)
        sub = take_tokens(seq, np.sort(np.concatenate(
            [np.flatnonzero(~bg), list(first.values())])))
        assert len(first) >= MIN_BACKGROUND
        model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1,
                             heads=2, max_len=256,
                             rng=np.random.default_rng(1))
        pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1)
        p = Predictor(model, pipe, bucket=4, sparsity=SparsityConfig())
        plan, seeds = p.sparsity._plan(sub)
        assert plan is None
        assert len(seeds) == len(first)

    def test_size_mismatch_breaks_a_run(self):
        seq = corner_seq()
        bg = background_mask(seq, 0.0)
        small = np.flatnonzero(bg & (seq.sizes == 8))[:2]
        large = np.flatnonzero(bg & (seq.sizes == 16))[:2]
        sub = take_tokens(seq, np.concatenate([small, large]))
        digests = np.array([b"a", b"a", b"a", b"a"], dtype="V1")
        plan = shortcircuit_plan(sub, digests, np.ones(4, dtype=bool),
                                 known=np.zeros(4, dtype=bool))
        # One digest, two leaf sizes: two groups of two, one merge each.
        assert plan.n_merged == 2
        np.testing.assert_array_equal(plan.rows, [0, 0, 1, 1])
        np.testing.assert_array_equal(plan.seeds, [0, 2])
