"""Tests for repro.cache.LRU — the one cache every layer shares."""

import numpy as np
import pytest

from repro.cache import LRU


class TestLRU:
    def test_eviction_order(self):
        cache = LRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)                  # evicts a, the oldest
        assert cache.peek("a") is None
        assert (cache.peek("b"), cache.peek("c")) == (2, 3)
        cache.put("d", 4)                  # then b
        assert cache.peek("b") is None
        assert len(cache) == 2 and cache.evictions == 2

    def test_get_refreshes(self):
        cache = LRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1         # a is now newest; b is oldest
        cache.put("c", 3)
        assert cache.peek("b") is None
        assert cache.peek("a") == 1

    def test_reput_replaces_and_refreshes(self):
        cache = LRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)                 # replace + refresh: b is oldest
        cache.put("c", 3)
        assert cache.peek("b") is None
        assert cache.peek("a") == 10
        assert len(cache) == 2 and cache.evictions == 1

    def test_peek_neither_refreshes_nor_counts(self):
        cache = LRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1        # a stays oldest
        assert cache.peek("zz") is None
        cache.put("c", 3)
        assert cache.peek("a") is None
        assert (cache.hits, cache.misses) == (0, 0)

    def test_hit_miss_counts_and_stats(self):
        cache = LRU(2)
        assert cache.get("a") is None
        assert cache.hit_rate == 0.0
        cache.put("a", 1)
        assert cache.get("a") == 1
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.stats() == {"items": 2, "capacity": 2, "hits": 1,
                                 "misses": 1, "evictions": 1,
                                 "hit_rate": 0.5}

    def test_freezes_arrays_on_insert(self):
        cache = LRU(2)
        value = np.zeros((2, 2))
        cache.put("k", value)
        assert cache.get("k") is value     # frozen in place, not copied
        with pytest.raises(ValueError):
            value[0, 0] = 1.0

    def test_non_array_values_stored_as_is(self):
        cache = LRU(1)
        pair = (np.zeros(1), "meta")
        cache.put("k", pair)
        assert cache.get("k") is pair

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_rejects_capacity_below_one(self, capacity):
        with pytest.raises(ValueError):
            LRU(capacity)
