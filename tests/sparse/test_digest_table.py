"""Tests for content digests and the bounded sparsity caches."""

import numpy as np
import pytest

from repro.patching import AdaptivePatcher
from repro.sparse import (BackgroundTable, SequenceMemo, quantize_tokens,
                          sequence_digest, token_digests)


def corner_image(z=64, seed=0):
    """Flat background with a noisy detail corner — the sparsity workload."""
    img = np.full((z, z), 0.25)
    img[:8, :8] = np.random.default_rng(seed).random((8, 8))
    return img


class TestQuantize:
    def test_zero_levels_returns_exact_floats(self):
        t = np.random.default_rng(0).random((5, 4))
        out = quantize_tokens(t, 0)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, t)

    def test_grid_collapses_near_identical_values(self):
        t = np.array([[0.5000], [0.5001], [0.9]])
        q = quantize_tokens(t, 256)
        assert q.dtype == np.int32
        assert q[0, 0] == q[1, 0]
        assert q[0, 0] != q[2, 0]


class TestTokenDigests:
    def test_equal_rows_equal_digests(self):
        t = np.array([[0.1, 0.2], [0.1, 0.2], [0.3, 0.2]])
        d = token_digests(t, 256)
        assert d.shape == (3,)
        assert d[0] == d[1]
        assert d[0] != d[2]

    def test_quantization_widens_equality(self):
        t = np.array([[0.5000], [0.5001]])
        assert token_digests(t, 16)[0] == token_digests(t, 16)[1]
        assert token_digests(t, 0)[0] != token_digests(t, 0)[1]


class TestSequenceDigest:
    def _seq(self, seed=0):
        return AdaptivePatcher(patch_size=4, split_value=8.0)(
            corner_image(seed=seed))

    def test_deterministic(self):
        assert sequence_digest(self._seq()) == sequence_digest(self._seq())

    def test_content_sensitive(self):
        assert sequence_digest(self._seq(0)) != sequence_digest(self._seq(1))

    def test_single_bit_flip_changes_digest(self):
        seq = self._seq()
        base = sequence_digest(seq)
        seq.patches[0, 0, 0, 0] += 1e-12
        assert sequence_digest(seq) != base


class TestLRUCaches:
    def test_hit_miss_accounting(self):
        memo = SequenceMemo(4)
        assert memo.get("a") is None
        memo.put("a", np.ones(3))
        np.testing.assert_array_equal(memo.get("a"), 1.0)
        assert (memo.hits, memo.misses) == (1, 1)

    def test_capacity_evicts_least_recent(self):
        memo = SequenceMemo(2)
        memo.put("a", np.zeros(1))
        memo.put("b", np.zeros(1))
        memo.get("a")                      # refresh a — b is now oldest
        memo.put("c", np.zeros(1))
        assert memo.get("b") is None
        assert memo.get("a") is not None
        assert len(memo) == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SequenceMemo(0)

    def test_background_key_separates_geometry(self):
        d = token_digests(np.array([[0.5, 0.5]]), 256)[0]
        assert BackgroundTable.key(d, 4, 64) != BackgroundTable.key(d, 8, 64)
        assert BackgroundTable.key(d, 4, 64) != BackgroundTable.key(d, 4, 128)
        assert BackgroundTable.key(d, 4, 64) == BackgroundTable.key(d, 4, 64)
