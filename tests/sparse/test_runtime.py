"""End-to-end tests of the sparsity fast path through the serving stack.

The decisive properties (ISSUE 8): outputs stay shape-identical to dense;
the dense plan and the memo are *bitwise* mechanisms; short-circuit
engages exactly on quadtree-flat background; every decision is visible in
``stats["sparsity"]`` all the way up through ``engine.stats()``.
"""

import numpy as np
import pytest

from repro.models import ViTSegmenter
from repro.pipeline import PatchPipeline
from repro.serve import InferenceEngine, Predictor
from repro.sparse import SparsityConfig

SPLIT = 8.0


def corner_image(z=64, seed=0, block=8):
    """Flat slide with one noisy corner: flat siblings of detailed leaves."""
    img = np.full((z, z), 0.25)
    img[:block, :block] = np.random.default_rng(seed).random((block, block))
    return img


def _predictor(sparsity=None, bucket=4, max_len=256, cache_items=8):
    model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1, heads=2,
                        max_len=max_len, rng=np.random.default_rng(1))
    pipe = PatchPipeline(patch_size=4, split_value=SPLIT, channels=1,
                         cache_items=cache_items)
    return Predictor(model, pipe, max_batch=3, bucket=bucket,
                     sparsity=sparsity)


class TestOffIsUntouched:
    def test_off_mode_attaches_no_runtime(self):
        p = _predictor(SparsityConfig(mode="off"))
        assert p.sparsity is None
        assert "sparsity" not in p.stats

    def test_default_is_byte_identical_to_baseline(self):
        img = corner_image()
        np.testing.assert_array_equal(_predictor().predict_image(img),
                                      _predictor(None).predict_image(img))


class TestDensePlanIsBitwise:
    def test_forced_dense_matches_no_sparsity(self):
        imgs = [corner_image(seed=s) for s in range(3)]
        base = _predictor().predict_batch(imgs)
        sparse = _predictor(SparsityConfig(mode="dense")).predict_batch(imgs)
        for a, b in zip(base, sparse):
            np.testing.assert_array_equal(a, b)

    def test_auto_on_all_detail_image_is_dense_and_bitwise(self):
        # Seed 4 splits to the patch-size floor with nonzero Eq. 6 mass in
        # every leaf — no background candidates at all.
        img = np.random.default_rng(4).random((32, 32))
        p = _predictor(SparsityConfig(mode="auto"))
        out = p.predict_image(img)
        assert p.stats["sparsity"]["plans"]["dense"] == 1
        assert p.stats["sparsity"]["plans"]["shortcircuit"] == 0
        np.testing.assert_array_equal(out, _predictor().predict_image(img))


class TestShortcircuit:
    def test_auto_engages_on_background_heavy_image(self):
        img = corner_image()
        p = _predictor(SparsityConfig(mode="auto"))
        out = p.predict_image(img)
        s = p.stats["sparsity"]
        assert s["plans"]["shortcircuit"] == 1
        # Cold table: the reduction comes from digest dedup (one in-context
        # representative per distinct flat digest), and those
        # representatives seed the table.
        assert s["tokens_merged"] >= 4
        assert s["table_seeds"] >= 1
        # Shape-identical, finite, and a probability map.
        assert out.shape == _predictor().predict_image(img).shape
        assert np.isfinite(out).all() and (out >= 0).all() and (out <= 1).all()

    def test_second_sighting_skips_via_the_table(self):
        p = _predictor(SparsityConfig(mode="auto"), cache_items=1)
        p.predict_image(corner_image(seed=0))
        assert p.stats["sparsity"]["tokens_skipped"] == 0   # cold table
        p.predict_image(corner_image(seed=1))               # same background
        s = p.stats["sparsity"]
        assert s["tokens_skipped"] > 0
        assert s["table_hits"] > 0

    def test_decision_log_carries_costs_and_deltas(self):
        p = _predictor(SparsityConfig(mode="auto"))
        p.predict_image(corner_image())
        d = p.stats["sparsity"]["last_decision"]
        assert d["plan"] == "shortcircuit"
        assert d["deltas"]["shortcircuit"] == 0.0     # provably flat only
        assert d["est_seconds"]["shortcircuit"] < d["est_seconds"]["dense"]
        assert d["n_background"] > 0

    def test_table_amortizes_across_images(self):
        p = _predictor(SparsityConfig(mode="auto"))
        p.predict_image(corner_image(seed=0))
        seeds_first = p.stats["sparsity"]["table_seeds"]
        assert seeds_first >= 1
        p.predict_image(corner_image(seed=1))
        # Same flat background content: digests repeat, nothing new to
        # seed — the second image serves straight from the table.
        assert p.stats["sparsity"]["table_seeds"] == seeds_first
        assert p.stats["sparsity"]["table_hits"] > 0

    def test_flat_regions_agree_with_dense(self):
        # Short-circuited leaves read either their digest group's
        # in-context representative row or an earlier sighting's seeded
        # row; on flat content that must stay close to the dense forward's
        # value for the same token (the residual is the global-attention
        # context of the specific sequence the row came from).
        img = corner_image()
        dense = _predictor().predict_image(img)
        sparse = _predictor(SparsityConfig(mode="auto")).predict_image(img)
        flat = np.s_[:, 32:, 32:]                     # far from the corner
        assert np.abs(dense[flat] - sparse[flat]).max() < 0.25

    def test_coarse_bucket_ties_back_to_dense(self):
        # With one giant bucket the reduced length compiles the same
        # signature — no predicted savings, so auto keeps dense.
        p = _predictor(SparsityConfig(mode="auto"), bucket=256)
        out = p.predict_image(corner_image())
        assert p.stats["sparsity"]["plans"]["dense"] == 1
        np.testing.assert_array_equal(
            out, _predictor(bucket=256).predict_image(corner_image()))

    def test_dense_plans_still_seed_the_table(self):
        # Warm-up must not depend on the chooser's verdict: a dense-plan
        # forward harvests its background rows into the table (and the
        # harvest never changes the dense output — asserted bitwise above).
        p = _predictor(SparsityConfig(mode="auto"), bucket=256)
        p.predict_image(corner_image())
        assert p.stats["sparsity"]["plans"]["dense"] == 1
        assert p.stats["sparsity"]["table_seeds"] >= 1

    def test_overflow_guard_falls_back_to_dense(self):
        # Natural length beyond the positional table would be randomly
        # dropped, destroying the row map — the runtime must run dense.
        img = np.random.default_rng(0).random((64, 64))
        img[32:, :] = 0.25                            # half flat, half detail
        p = _predictor(SparsityConfig(mode="shortcircuit"), max_len=16)
        out = p.predict_image(img)
        assert p.stats["sparsity"]["plans"]["dense"] == 1
        assert p.stats["sparsity"]["plans"]["shortcircuit"] == 0
        np.testing.assert_array_equal(
            out, _predictor(max_len=16).predict_image(img))


class TestMerge:
    def test_forced_merge_collapses_runs(self):
        p = _predictor(SparsityConfig(mode="merge"))
        out = p.predict_image(corner_image(z=128))
        s = p.stats["sparsity"]
        assert s["plans"]["merge"] == 1
        assert s["tokens_merged"] > 0
        assert out.shape == _predictor().predict_image(
            corner_image(z=128)).shape

    def test_auto_needs_epsilon_for_merge(self):
        # (Short-circuit's digest dedup also counts into tokens_merged, so
        # the epsilon gate is asserted on the plan verdict itself.)
        img = corner_image(z=128)
        p = _predictor(SparsityConfig(mode="auto"))
        p.predict_image(img)
        assert p.stats["sparsity"]["plans"]["merge"] == 0


class TestMemo:
    def test_replay_is_bitwise(self):
        p = _predictor(SparsityConfig(mode="auto"))
        img = corner_image()
        first = p.predict_image(img)
        second = p.predict_image(img)
        s = p.stats["sparsity"]
        assert s["memo_hits"] == 1
        np.testing.assert_array_equal(first, second)

    def test_memo_respects_content(self):
        p = _predictor(SparsityConfig(mode="auto"))
        p.predict_image(corner_image(seed=0))
        p.predict_image(corner_image(seed=1))
        assert p.stats["sparsity"]["memo_hits"] == 0

    def test_defensive_copies_both_ways(self):
        p = _predictor(SparsityConfig(mode="auto"))
        img = corner_image()
        first = p.predict_image(img)
        expected = first.copy()
        first[...] = 9.0                   # caller mutation after the put
        replay = p.predict_image(img)      # memo hit
        assert p.stats["sparsity"]["memo_hits"] == 1
        np.testing.assert_array_equal(replay, expected)
        replay[...] = 7.0                  # hits are writable private copies
        np.testing.assert_array_equal(p.predict_image(img), expected)
        assert p.stats["sparsity"]["memo_hits"] == 2


class TestFrontendVisibility:
    def test_engine_stats_surface_decisions(self):
        engine = InferenceEngine(_predictor(SparsityConfig(mode="auto")),
                                 max_queue=8)
        fut = engine.submit(corner_image())
        while engine.step(force=True) is not None:
            pass
        assert fut.result().shape[0] == 1
        s = engine.stats()["predictor"]["sparsity"]
        assert s["plans"]["shortcircuit"] == 1
        assert s["last_decision"]["plan"] == "shortcircuit"

    def test_streaming_report_counts_sparsity(self):
        from repro.stream import (ArraySource, MemorySink, StreamingRunner,
                                  plan_scene)
        scene = np.full((128, 128), 0.25)
        scene[:8, :8] = np.random.default_rng(0).random((8, 8))
        plan = plan_scene(scene.shape, tile=64, order="hilbert")
        runner = StreamingRunner(_predictor(SparsityConfig(mode="auto")))
        report = runner.run(ArraySource(scene), plan, MemorySink())
        assert report.sparsity is not None
        plans = {k: v for k, v in report.sparsity.items()
                 if k.startswith("plans_")}
        # Every streamed tile either got a plan or replayed from the memo.
        assert sum(plans.values()) + report.sparsity["memo_hits"] == \
            report.tiles_run
        assert report.sparsity["plans_shortcircuit"] >= 1

    def test_streaming_report_none_without_runtime(self):
        from repro.stream import (ArraySource, MemorySink, StreamingRunner,
                                  plan_scene)
        scene = np.full((64, 64), 0.25)
        plan = plan_scene(scene.shape, tile=64)
        report = StreamingRunner(_predictor()).run(
            ArraySource(scene), plan, MemorySink())
        assert report.sparsity is None


class TestValidation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SparsityConfig(mode="sometimes")
        with pytest.raises(ValueError):
            SparsityConfig(epsilon=-0.1)
        with pytest.raises(ValueError):
            SparsityConfig(min_run=1)
        with pytest.raises(ValueError):
            SparsityConfig(table_items=0)
