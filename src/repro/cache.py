"""The one least-recently-used cache every layer of the stack shares.

Patch sequences, source tiles, pyramid pixels, tile results and engine
results all sit in an :class:`LRU`: a bounded item count, recency
refreshed on :meth:`~LRU.get` and :meth:`~LRU.put`, ``ndarray`` values
frozen in place on insert (a cached array is shared by every later hit,
so nobody may write it), and hit/miss/eviction counters in one
:meth:`~LRU.stats` shape.

The LRU takes no lock: each owner already serializes its own access
(pipeline ``_cache_lock``, engine ``_cond``, service ``_lock``). Whether a
value is copied on the way in or out is the owner's call too — freezing
is the only thing the cache does to what it stores.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional

import numpy as np

__all__ = ["LRU"]


class LRU:
    """Item-bounded LRU map with hit/miss/eviction accounting."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._items)

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value (refreshed, counted as a hit) or None (a miss)."""
        value = self._items.get(key)
        if value is None:
            self.misses += 1
            return None
        self._items.move_to_end(key)
        self.hits += 1
        return value

    def peek(self, key: Hashable) -> Optional[Any]:
        """The cached value or None, touching neither recency nor counters."""
        return self._items.get(key)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or replace ``key`` as most recent; evict beyond capacity."""
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        self._items[key] = value
        self._items.move_to_end(key)
        while len(self._items) > self.capacity:
            self._items.popitem(last=False)
            self.evictions += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {"items": len(self._items), "capacity": self.capacity,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "hit_rate": self.hit_rate}
