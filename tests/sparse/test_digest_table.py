"""Tests for token digests, sequence keys and the background table."""

import numpy as np
import pytest

from repro.pipeline import PatchPipeline
from repro.pipeline.engine import content_key
from repro.sparse import BackgroundTable, quantize_tokens, token_digests


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
    """A sequence is identified by its source image's ``content_key``.

    The sparsity package keeps no digest of its own: the pipeline's
    sequence cache and the engine's result cache key on the one content
    digest, so a repeat is recognised only on bitwise-equal input.
    """

    def _pipe(self):
        return PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                             cache_items=8)

    def test_deterministic(self):
        assert content_key(corner_image()) == content_key(corner_image())
        pipe = self._pipe()
        first = pipe.process([corner_image()])[0]
        assert pipe.process([corner_image()])[0] is first
        assert pipe.stats["hits"] == 1

    def test_content_sensitive(self):
        assert content_key(corner_image(seed=0)) != \
            content_key(corner_image(seed=1))
        pipe = self._pipe()
        pipe.process([corner_image(seed=0)])
        pipe.process([corner_image(seed=1)])
        assert pipe.stats["hits"] == 0

    def test_single_bit_flip_changes_digest(self):
        img = corner_image()
        base = content_key(img)
        img[0, 0] += 1e-12
        assert content_key(img) != base
        pipe = self._pipe()
        pipe.process([corner_image()])
        pipe.process([img])
        assert pipe.stats["hits"] == 0


class TestLRUCaches:
    def test_hit_miss_accounting(self):
        table = BackgroundTable(4)
        assert table.get("a") is None
        table.put("a", np.ones(3))
        np.testing.assert_array_equal(table.get("a"), 1.0)
        assert (table.hits, table.misses) == (1, 1)

    def test_capacity_evicts_least_recent(self):
        table = BackgroundTable(2)
        table.put("a", np.zeros(1))
        table.put("b", np.zeros(1))
        table.get("a")                      # refresh a — b is now oldest
        table.put("c", np.zeros(1))
        assert table.get("b") is None
        assert table.get("a") is not None
        assert len(table) == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BackgroundTable(0)

    def test_background_key_separates_geometry(self):
        d = token_digests(np.array([[0.5, 0.5]]), 256)[0]
        assert BackgroundTable.key(d, 4, 64) != BackgroundTable.key(d, 8, 64)
        assert BackgroundTable.key(d, 4, 64) != BackgroundTable.key(d, 4, 128)
        assert BackgroundTable.key(d, 4, 64) == BackgroundTable.key(d, 4, 64)
