"""Packed execution: several APF sequences share one (k, L) block.

The serving Predictor packs a micro-batch's natural sequences back to back
into rows of the bucket length and runs attention per segment (the
``sdpa_varlen`` kernel). The contracts pinned here:

* a lone sequence packs into one row, its padded shape, and its logits
  are byte-equal to the padded eager forward;
* compiled packed output is byte-equal to eager packed output, whatever
  the composition;
* a sequence in a multi-segment pack agrees with itself run alone to
  1e-6 in probability, with equal class maps;
* filler rows (a pack topped up to a larger compiled plan) leave the
  real tokens' bits alone, and a primed default engine never compiles;
* the varlen attention step reports per-call FLOPs: b·H·L² for its b
  segments, never the packed block's R².
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn, runtime
from repro.data import SyntheticPAIP, generate_ct_volume
from repro.models.embedding import collate_sequences, pack_sequences
from repro.models.vit import ViTSegmenter, VolumeViTSegmenter
from repro.patching import AdaptivePatcher, VolumetricAdaptivePatcher
from repro.perf.flops import kernel_cost
from repro.pipeline import PatchPipeline
from repro.serve import InferenceEngine, Predictor, class_map

MAX_LEN = 256


def _bucket(n, g):
    return min(-(-max(n, 1) // g) * g, MAX_LEN)


def _image_seqs(n_images, split=8.0, res=64):
    ds = SyntheticPAIP(res, n_images)
    patcher = AdaptivePatcher(patch_size=4, split_value=split)
    return [patcher.extract_natural(ds[i].image.mean(axis=-1))
            for i in range(n_images)], patcher


def _seg_model():
    return ViTSegmenter(patch_size=4, channels=1, dim=16, depth=2, heads=2,
                        max_len=MAX_LEN, rng=np.random.default_rng(3)).eval()


def _packed_eager(model, seqs, width, rows=1):
    tokens, coords, valid, segments = pack_sequences(seqs, width, rows)
    with nn.no_grad():
        out = model.forward(tokens, coords, valid, segments=segments).data
    return out, (tokens, coords, valid, segments)


class TestSingleSequencePack:
    """A lone sequence's pack is one row of its bucket length: the padded
    batch the unpacked model has always run, byte for byte."""

    @pytest.mark.parametrize("bucket", [8, 16, 32, 64, 128, 256])
    def test_image_pack_equals_padded_forward(self, bucket):
        seqs, patcher = _image_seqs(3)
        model = _seg_model()
        for seq in seqs:
            L = _bucket(len(seq), bucket)
            seq = seq if len(seq) <= L else patcher.fit_length(
                seq, L, rng=np.random.default_rng(0))
            packed, feeds = _packed_eager(model, [seq], L)
            assert feeds[0].shape[:2] == (1, L)
            with nn.no_grad():
                padded = model.forward(*collate_sequences(
                    [patcher.fit_length(seq, L)])).data
            np.testing.assert_array_equal(packed[0, :len(seq)],
                                          padded[0, :len(seq)])

    @pytest.mark.parametrize("bucket", [8, 32, 128, 256])
    def test_volume_pack_equals_padded_forward(self, bucket):
        vol = generate_ct_volume(32, 32, seed=2).volume
        patcher = VolumetricAdaptivePatcher(patch_size=4, split_value=8.0)
        seq = patcher.extract_natural(vol)              # 197 tokens
        model = VolumeViTSegmenter(patch_size=4, dim=16, depth=1, heads=2,
                                   max_len=MAX_LEN,
                                   rng=np.random.default_rng(4)).eval()
        L = _bucket(len(seq), bucket)
        if len(seq) > L:
            seq = patcher.fit_length(seq, L, rng=np.random.default_rng(0))
        packed, _ = _packed_eager(model, [seq], L)
        with nn.no_grad():
            padded = model.forward(*collate_sequences(
                [patcher.fit_length(seq, L)])).data
        np.testing.assert_array_equal(packed[0, :len(seq)],
                                      padded[0, :len(seq)])


class TestCompiledPackedEqualsEager:
    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.integers(0, 11), min_size=1, max_size=8),
           st.sampled_from([8, 16, 32]), st.booleans(), st.integers(0, 2))
    def test_random_compositions(self, picks, g, with_long, filler):
        """Random 1-8 segment packs (one over-long sequence dropped to the
        positional table, and up to two filler rows): the compiled plan
        replays the eager packed forward bit for bit."""
        pool, patcher = _image_seqs(12)
        seqs = [pool[i] for i in picks]
        if with_long:
            long_seqs, _ = _image_seqs(2, split=0.5, res=128)
            long = max(long_seqs, key=len)
            assert len(long) > MAX_LEN
            seqs[0] = patcher.fit_length(long, MAX_LEN,
                                         rng=np.random.default_rng(1))
        width = max(_bucket(len(s), g) for s in seqs)
        rows = -(-sum(len(s) for s in seqs) // width) + filler
        model = _seg_model()
        eager, (tokens, coords, valid, segments) = _packed_eager(
            model, seqs, width, rows)
        assert tokens.shape[0] == rows
        cm = runtime.compile_model(model, tokens, coords, valid,
                                   segments=segments)
        compiled = cm(tokens, coords, valid, segments=segments)
        assert eager.dtype == compiled.dtype
        np.testing.assert_array_equal(eager, compiled)
        # one plan, any layout of the same (rows, width) block
        flipped = pack_sequences(seqs[::-1], width, rows)
        again, _ = _packed_eager(model, seqs[::-1], width, rows)
        np.testing.assert_array_equal(
            again, cm(*flipped[:3], segments=flipped[3]))

    def test_segments_never_see_each_other(self):
        """Filler tokens and neighbouring segments are inert: each segment
        of a pack matches itself packed alone, to the packing contract
        (1e-6, equal class maps)."""
        seqs, _ = _image_seqs(3)
        model = _seg_model()
        width = max(_bucket(len(s), 16) for s in seqs)
        out, (_, _, _, segments) = _packed_eager(model, seqs, width)
        flat = out.reshape(-1, out.shape[-1])
        assert segments[1, 0] % width != 0          # a segment straddles
        for seq, (start, n) in zip(seqs, segments):
            alone, _ = _packed_eager(model, [seq], width)
            np.testing.assert_allclose(flat[start:start + n], alone[0, :n],
                                       rtol=0, atol=1e-6)
            np.testing.assert_array_equal(flat[start:start + n] > 0,
                                          alone[0, :n] > 0)

    def test_filler_rows_keep_real_bits(self):
        """Every row runs its own matmuls, so topping a pack up with filler
        rows (to reuse a larger compiled plan) leaves real tokens' bits
        alone; filler rows come out of attention as zeros."""
        seqs, _ = _image_seqs(5)
        model = _seg_model()
        width = max(_bucket(len(s), 16) for s in seqs)
        tight, feeds = _packed_eager(model, seqs, width)
        k = feeds[0].shape[0]
        padded, _ = _packed_eager(model, seqs, width, rows=k + 3)
        assert padded.shape[0] == k + 3
        np.testing.assert_array_equal(padded[:k], tight)


class TestPackVersusAlone:
    def test_multi_segment_packs_match_single_runs(self):
        imgs = [im for im in (SyntheticPAIP(64, 10)[i].image
                              for i in range(10))]
        model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1,
                             heads=2, max_len=MAX_LEN,
                             rng=np.random.default_rng(1))

        def predictor():
            pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                                 cache_items=32)
            return Predictor(model, pipe, max_batch=8, bucket=16)

        packed_pred = predictor()
        packed = packed_pred.predict_batch(imgs)
        s = packed_pred.stats
        assert s["batches"] < len(imgs)              # real multi-segment packs
        alone = [predictor().predict_image(im) for im in imgs]
        for a, b in zip(packed, alone):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-6)
            np.testing.assert_array_equal(class_map(a), class_map(b))


def _default_engine():
    model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1,
                         heads=2, max_len=MAX_LEN,
                         rng=np.random.default_rng(1))
    pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1)
    pred = Predictor(model, pipe)
    return pred, InferenceEngine(pred)


class TestPlanCount:
    def test_default_engine_start_compiles_four_plans(self):
        pred, engine = _default_engine()
        engine.start()
        try:
            t = 16
            assert sorted(pred._plans) == sorted(
                ((b, L, t), (b, L)) for b in (1, 8) for L in (32, 64))
            assert pred.stats["plans"] == 4
        finally:
            engine.stop()

    def test_saturated_flush_reuses_primed_plan(self):
        """A full flush of max_batch sequences packs into fewer rows than
        the primed full-flush plan; it tops up with filler rows and runs
        on that plan instead of compiling in the request path."""
        pred, engine = _default_engine()
        engine.warmup()
        compile_s = pred.stats["compile_seconds"]
        ds = SyntheticPAIP(64, 40)
        pool = [ds[i].image for i in range(40)]
        seqs = pred.pipeline.process(pool, None)
        picked = [(im, len(s)) for im, s in zip(pool, seqs)
                  if 32 < len(s) <= 64][:pred.max_batch]
        imgs = [im for im, _ in picked]
        assert len(imgs) == pred.max_batch
        assert -(-sum(n for _, n in picked) // 64) < pred.max_batch
        futures = [engine.submit(im) for im in imgs]
        reports = engine.drain()
        assert [r.size for r in reports] == [pred.max_batch]
        assert pred.stats["plans"] == 4
        assert pred.stats["compile_seconds"] == compile_s
        for fut, im in zip(futures, imgs):
            np.testing.assert_array_equal(
                class_map(fut.result()),
                class_map(Predictor(pred.model, pred.pipeline,
                                    compiled=False).predict_image(im)))
        assert pred.stats["padded_tokens"] == 8 * 64


class TestVarlenFlops:
    def test_kernel_cost_counts_segments(self):
        H, dh, L = 4, 16, 64
        flops, nbytes = kernel_cost("sdpa_varlen", [(3, H, L, dh)],
                                    (2, L, H * dh), itemsize=4)
        # per segment: QK^T and S@V are 2·L·dh each per score row, plus
        # scale, bias and a 5-op softmax per score: H·L²·(4·dh + 7)
        assert flops == 3 * H * L ** 2 * (4 * dh + 7)
        assert flops < H * (2 * L) ** 2 * (4 * dh + 7)       # never R²
        assert nbytes == 4 * 4 * 2 * L * H * dh        # q, k, v in + out
        # the plan step's name counts the same way
        assert kernel_cost("sdpa", [(3, H, L, dh)], (2, L, H * dh), 4) == \
            (flops, nbytes)

    def test_compiled_step_reports_per_call_flops(self):
        seqs, _ = _image_seqs(4)
        model = _seg_model()
        width = max(_bucket(len(s), 16) for s in seqs)
        tokens, coords, valid, segments = pack_sequences(seqs, width)
        cm = runtime.compile_model(model, tokens, coords, valid,
                                   segments=segments)
        seen = []
        cm.plan.profile_hook = lambda name, sec, meta: seen.append(
            (name, dict(meta)))
        cm(tokens, coords, valid, segments=segments)
        sdpa = [meta for name, meta in seen if name == "sdpa"]
        assert len(sdpa) == 2                            # one per layer
        heads, dh = 2, 8
        hand = len(seqs) * heads * width ** 2 * (4 * dh + 7)
        assert all(meta["flops"] == hand for meta in sdpa)
        # a different layout through the same plan re-stamps the count
        one = pack_sequences(seqs[:1], width, len(tokens))
        seen.clear()
        cm(*one[:3], segments=one[3])
        assert [m["flops"] for n, m in seen if n == "sdpa"] == \
            [heads * width ** 2 * (4 * dh + 7)] * 2
