"""Unit tests for the inference work graph that :class:`Predictor` runs —
the single truth for bucketing, micro-batch formation, graph execution,
and tile reduce."""

import numpy as np
import pytest

from repro.data import SyntheticPAIP, generate_ct_volume, generate_wsi
from repro.models.vit import ViTSegmenter
from repro.patching import AdaptivePatcher, APFConfig, stitch
from repro.pipeline import PatchPipeline
from repro.serve import Predictor, SequenceNode, TileNode, class_map


def _model(**kw):
    args = dict(patch_size=4, channels=1, dim=16, depth=1, heads=2,
                max_len=256, rng=np.random.default_rng(1))
    args.update(kw)
    return ViTSegmenter(**args)


def _predictor(model=None, **kw):
    args = dict(max_batch=3, bucket=16)
    args.update(kw)
    pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                         cache_items=32)
    return Predictor(model if model is not None else _model(), pipe, **args)


def _images(n, res=64):
    ds = SyntheticPAIP(res, n)
    return [ds[i].image for i in range(n)]


def _tile(p, region, kind):
    return TileNode(kind, p.sequence_nodes(p.tile_sequences(region, kind)))


def _positions(micros, nodes):
    """Each micro-batch's nodes as indices into ``nodes``, by identity."""
    index = {id(n): i for i, n in enumerate(nodes)}
    return [[index[id(n)] for n in m.nodes] for m in micros]


class TestBucketing:
    def test_bucket_grid_and_cap(self):
        p = _predictor()
        assert p.bucket_length(1) == 16
        assert p.bucket_length(16) == 16
        assert p.bucket_length(17) == 32
        assert p.bucket_length(10_000) == p.max_len

    def test_predictor_delegates(self):
        # node construction buckets through bucket_length, the one grid
        p = _predictor()
        seqs = p.pipeline.process(_images(4), None)
        nodes = p.sequence_nodes(seqs)
        assert len(nodes) == len(seqs)
        for node, seq in zip(nodes, seqs):
            assert node.seq is seq
            assert node.bucket == p.bucket_length(len(seq))


class TestPlanFormation:
    def _nodes(self, buckets):
        return [SequenceNode(seq=None, bucket=b) for b in buckets]

    def test_buckets_ascend_fifo_within_chunked_at_max_batch(self):
        p = _predictor()                        # max_batch=3
        nodes = self._nodes([32, 16, 32, 16, 16, 32, 16, 48])
        micros = p.plan(nodes)
        assert [(len(m.nodes), m.length) for m in micros] == [
            (3, 16), (1, 16), (3, 32), (1, 48)]
        # FIFO inside each bucket
        assert _positions(micros, nodes) == [[1, 3, 4], [6], [0, 2, 5], [7]]

    def test_max_batch_override(self):
        micros = _predictor().plan(self._nodes([16, 16, 16]), max_batch=1)
        assert [(len(m.nodes), m.length) for m in micros] == [(1, 16)] * 3

    def test_plan_keeps_fifo_order_across_calls(self):
        p = _predictor()
        seqs = p.pipeline.process(_images(2), None)
        a = p.sequence_nodes(seqs)
        b = p.sequence_nodes(seqs)
        micros = p.plan(a + b, max_batch=4)
        assert len(micros) == len({n.bucket for n in a})
        # every bucket holds its nodes in admission order: the first
        # call's before the second call's
        for got in _positions(micros, a + b):
            assert got == sorted(got)
        assert sorted(sum(_positions(micros, a + b), [])) == [0, 1, 2, 3]


class TestGraphExecution:
    def test_drain_fills_tokens_and_keeps_node_order(self):
        model = _model()
        imgs = _images(4)
        p = _predictor(model)
        nodes = p.sequence_nodes(p.pipeline.process(imgs, None))
        assert all(n.tokens is None for n in nodes)
        p.drain(nodes)
        assert all(n.tokens is not None for n in nodes)
        ref = _predictor(model).predict_batch(imgs)
        for node, want in zip(nodes, ref):
            np.testing.assert_array_equal(node.result, want)

    def test_execute_matches_predict_batch(self):
        # predict_sequences is the synchronous drain of the work graph
        model = _model()
        imgs = _images(4)
        ref = _predictor(model).predict_batch(imgs)
        p = _predictor(model)
        got = p.predict_sequences(p.pipeline.process(imgs, None))
        assert len(got) == len(ref)
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a, b)

    def test_stats_match_legacy_accounting(self):
        p = _predictor()
        p.predict_batch(_images(5))
        s = p.stats
        assert s["images"] == 5
        assert s["batches"] >= 2               # 5 images at max_batch=3
        assert s["plans"] == len(p._plans) > 0
        assert s["real_tokens"] <= s["padded_tokens"]


class TestTileNodes:
    def test_image_tile_has_one_child(self):
        p = _predictor()
        node = _tile(p, _images(1)[0], "image")
        assert node.kind == "image"
        assert len(node.children) == 1
        p.drain(node.children)
        np.testing.assert_array_equal(
            p.reduce_tile(node),
            class_map(node.children[0].result))

    def test_volume_tile_expands_per_slice(self):
        vol = generate_ct_volume(32, 5, seed=1).volume
        model = _model()
        p = _predictor(model)
        node = _tile(p, vol, "volume")
        assert node.kind == "volume"
        assert len(node.children) == vol.shape[0]
        p.drain(node.children)
        got = p.reduce_tile(node)
        ref = _predictor(model).predict_volume(vol)
        np.testing.assert_array_equal(got, ref)


class TestClassMap:
    def test_single_channel_threshold(self):
        probs = np.array([[[0.2, 0.5], [0.7, 0.49]]])
        np.testing.assert_array_equal(class_map(probs), [[0, 1], [1, 0]])
        assert class_map(probs).dtype == np.int64

    def test_multichannel_argmax(self):
        probs = np.random.default_rng(0).random((3, 4, 4))
        np.testing.assert_array_equal(class_map(probs), probs.argmax(axis=0))


def _tied_tokens(seq, k, seed):
    """Token probabilities on a 0.25 grid: exact 0.5 thresholds for K = 1,
    exact argmax ties for K > 1."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 5, (len(seq), k, seq.patch_size,
                               seq.patch_size)) / 4.0


def _drained(seq, probs):
    return SequenceNode(seq=seq, bucket=0, tokens=(seq, probs))


class TestTokenResolutionReduce:
    """``reduce_tile`` thresholds per token pixel and paints labels; it
    must equal the class map of the stitched probability map."""

    @staticmethod
    def _seqs(seed):
        img = generate_wsi(64, seed=seed).image
        p = AdaptivePatcher(APFConfig(patch_size=4, split_value=4.0))
        seq = p.extract(img)
        assert (seq.sizes > 4).any()                  # leaves above Pm
        dropped = p.fit_length(seq, len(seq) // 2,
                               rng=np.random.default_rng(seed))
        padded = p.fit_length(seq, len(seq) + 7)      # invalid rows
        assert not padded.valid.all()
        return [seq, dropped, padded]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.int32])
    def test_image_tiles(self, k, dtype):
        p = _predictor()
        for i, seq in enumerate(self._seqs(k)):
            probs = _tied_tokens(seq, k, i)
            node = _drained(seq, probs)
            got = p.reduce_tile(TileNode("image", [node]), dtype)
            want = class_map(stitch(seq, probs))
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)
            # the node's probability map is the same stitch, on demand
            np.testing.assert_array_equal(node.result, stitch(seq, probs))

    @pytest.mark.parametrize("k", [1, 3])
    def test_volume_tiles_stack_their_slices(self, k):
        p = _predictor()
        seqs = self._seqs(2)
        probs = [_tied_tokens(s, k, 10 + i) for i, s in enumerate(seqs)]
        tile = TileNode("volume", [_drained(s, p)
                                   for s, p in zip(seqs, probs)])
        got = p.reduce_tile(tile, np.uint8)
        want = np.stack([class_map(stitch(s, p))
                         for s, p in zip(seqs, probs)])
        assert got.dtype == np.uint8 and got.shape == (3, 64, 64)
        np.testing.assert_array_equal(got, want)

    def test_dtype_too_small_for_the_classes_paints_int64(self):
        # a sink dtype that cannot hold every class gets int64 labels, so
        # the sink's own exactness check sees the real values
        seq = self._seqs(0)[0]
        node = _drained(seq, _tied_tokens(seq, 3, 0))
        got = _predictor().reduce_tile(TileNode("image", [node]), np.bool_)
        assert got.dtype == np.int64 and got.max() == 2

    def test_undrained_tile_is_run_first(self):
        model = _model()
        img = _images(1)[0]
        p = _predictor(model)
        tile = _tile(p, img, "image")
        assert tile.children[0].tokens is None
        got = p.reduce_tile(tile)
        assert tile.children[0].tokens is not None
        assert p.stats["images"] == 1
        np.testing.assert_array_equal(
            got, class_map(_predictor(model).predict_image(img)))

    def test_partly_drained_tile_runs_only_the_rest(self):
        vol = generate_ct_volume(32, 5, seed=1).volume
        model = _model()
        p = _predictor(model)
        tile = _tile(p, vol, "volume")
        first = tile.children[0]
        p.drain([first])
        kept = first.tokens
        ran = []
        run = p.run
        p.run = lambda m: (ran.extend(m.nodes), run(m))[1]
        got = p.reduce_tile(tile)
        assert all(n is not first for n in ran)
        assert len(ran) == len(tile.children) - 1
        assert first.tokens is kept
        assert p.stats["images"] == len(tile.children)
        np.testing.assert_array_equal(
            got, _predictor(model).predict_volume(vol))


class TestPlanOutputAliasing:
    """Plan outputs live in per-plan scratch that the next execution of
    the same plan overwrites: a node must keep its own token rows."""

    @pytest.mark.parametrize("compiled", [True, False])
    def test_results_survive_later_batches_of_the_same_plan(self, compiled):
        model = _model()
        imgs = _images(3)
        # one bucket, one sequence per micro-batch: every batch runs the
        # same compiled plan before any node is stitched or reduced
        p = _predictor(model, max_batch=1, bucket=256, compiled=compiled)
        tiles = [_tile(p, im, "image") for im in imgs]
        micros = p.plan([t.children[0] for t in tiles])
        assert len({(len(m.nodes), m.length) for m in micros}) == 1
        assert len(micros) == 3
        for m in micros:
            p.run(m)
        assert p.stats["plans"] == (1 if compiled else 0)
        ref = _predictor(model, max_batch=1, bucket=256, compiled=compiled)
        for tile, im in zip(tiles, imgs):
            want = ref.predict_image(im)
            np.testing.assert_array_equal(tile.children[0].result, want)
            np.testing.assert_array_equal(p.reduce_tile(tile),
                                          class_map(want))
