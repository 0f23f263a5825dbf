"""Tests for FLOP models, the α–β cost model, and equal-cost analysis."""

import pytest

from repro.perf import (ClusterSpec, CostModel, TransformerConfig,
                        activation_bytes, apf_length_curve, attention_flops,
                        attention_memory_bytes, encoder_flops,
                        equal_cost_patch_size, equivalent_sequence_gain,
                        training_flops)


class TestFlops:
    def test_attention_quadratic_term_dominates_long_sequences(self):
        # Doubling L should ~4x attention cost when L >> D.
        d = 64
        f1 = attention_flops(4096, d)
        f2 = attention_flops(8192, d)
        assert 3.5 < f2 / f1 < 4.2

    def test_paper_uniform_scaling_o_zp4(self):
        # Uniform patching cost scales as (Z/P)^4 for the quadratic term.
        d = 64
        n1 = (512 // 8) ** 2
        n2 = (1024 // 8) ** 2
        quad1 = 4 * n1 ** 2 * d
        quad2 = 4 * n2 ** 2 * d
        assert quad2 / quad1 == pytest.approx(16.0)

    def test_encoder_scales_with_depth(self):
        c1 = TransformerConfig(256, 64, 4)
        c2 = TransformerConfig(256, 64, 8)
        assert encoder_flops(c2) == pytest.approx(2 * encoder_flops(c1))

    def test_training_is_3x_forward(self):
        c = TransformerConfig(128, 32, 2)
        assert training_flops(c) == pytest.approx(3 * encoder_flops(c))

    def test_attention_memory_quadratic(self):
        c1 = TransformerConfig(1024, 64, 4, heads=8)
        c2 = TransformerConfig(2048, 64, 4, heads=8)
        assert attention_memory_bytes(c2) == pytest.approx(
            4 * attention_memory_bytes(c1))

    def test_activation_bytes_positive_and_monotone(self):
        a = activation_bytes(TransformerConfig(128, 32, 2))
        b = activation_bytes(TransformerConfig(256, 32, 2))
        assert 0 < a < b

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TransformerConfig(0, 64, 4)


class TestCostModel:
    def test_calibration_reproduces_measurement(self):
        cm = CostModel()
        cfg = TransformerConfig(1024, 64, 4)
        cm.calibrate(cfg, measured_seconds_per_image=0.5)
        assert cm.seconds_per_image(cfg, world_size=1, param_bytes=0) == \
            pytest.approx(0.5)

    def test_sequence_reduction_speedup_shape(self):
        # 16384 -> 1024 tokens must give a large speedup (quadratic term).
        cm = CostModel()
        base = TransformerConfig(16384, 64, 4)
        apf = TransformerConfig(1024, 64, 4)
        s = cm.speedup(base, apf)
        assert s > 10  # paper's Table II 512-res row reports 7.5-12.7x

    def test_allreduce_zero_for_single_rank(self):
        assert CostModel().allreduce_seconds(1e9, 1) == 0.0

    def test_allreduce_monotone_in_bytes(self):
        cm = CostModel()
        assert cm.allreduce_seconds(2e9, 8) > cm.allreduce_seconds(1e9, 8)

    def test_allreduce_matches_ring_formula(self):
        # 2(W-1)/W * bytes * beta + 2(W-1) * alpha, with the paper's
        # Slingshot bandwidth once the ring spans nodes.
        spec = ClusterSpec()
        cm = CostModel(spec)
        w, nbytes = 8, 1e9
        expected = (2 * (w - 1) / w * nbytes * spec.beta_internode
                    + 2 * (w - 1) * spec.alpha)
        assert cm.allreduce_seconds(nbytes, w) == pytest.approx(expected)
        # Within a node the (slower per the paper: 50 GB/s) intra beta applies.
        w = 4
        expected = (2 * (w - 1) / w * nbytes * spec.beta
                    + 2 * (w - 1) * spec.alpha)
        assert cm.allreduce_seconds(nbytes, w) == pytest.approx(expected)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(achieved_flops=0)

    def test_compute_seconds_is_world_size_free(self):
        # Regression pin: compute_seconds_per_image used to accept (and
        # validate, and ignore) a world_size argument. The intended semantics
        # — data parallelism shards the dataset, not per-image work — mean
        # per-image compute has no W dependence at all, so the parameter is
        # gone and world size only enters through the all-reduce term.
        cm = CostModel()
        cfg = TransformerConfig(1024, 64, 4)
        with pytest.raises(TypeError):
            cm.compute_seconds_per_image(cfg, 8)
        base = cm.compute_seconds_per_image(cfg)
        # W>1 adds exactly the ring all-reduce on top of a W-free compute term.
        for w in (1, 4, 8):
            assert cm.seconds_per_image(cfg, world_size=w) == pytest.approx(
                base + cm.allreduce_seconds(50e6, w))

    def test_calibrate_validation(self):
        with pytest.raises(ValueError):
            CostModel().calibrate(TransformerConfig(8, 8, 1), 0.0)


class TestEquivalence:
    def _curve(self):
        # Synthetic empirical curve: APF length grows ~linearly as patch shrinks
        # (the paper's observed sub-linear growth, Fig. 3).
        return {2: 4096, 4: 2048, 8: 1024, 16: 512, 32: 256}

    def test_equal_cost_patch_is_smaller(self):
        # Uniform 512/16 → 1024 tokens; APF fits 8 (1024 tokens) and even
        # smaller at deeper curves.
        p = equal_cost_patch_size(512, 16, self._curve())
        assert p is not None and p < 16

    def test_no_fit_returns_none(self):
        curve = {2: 10 ** 9}
        assert equal_cost_patch_size(512, 512, curve) is None

    def test_sequence_gain_matches_paper_claim_shape(self):
        # Paper: ~8x smaller patches ⇒ ~64x longer effective sequences.
        gain = equivalent_sequence_gain(512, 16, self._curve())
        assert gain >= 4.0  # (16/8)^2 at minimum with this curve

    def test_curve_from_real_patcher(self):
        from repro.data import generate_wsi
        imgs = [generate_wsi(64, seed=i).image for i in range(2)]
        curve = apf_length_curve(imgs, patch_sizes=[4, 8], split_value=8.0)
        assert set(curve) == {4, 8}
        assert curve[4] >= curve[8]  # finer patches → longer sequences
