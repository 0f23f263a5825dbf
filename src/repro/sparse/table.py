"""The background logits table.

:class:`BackgroundTable` maps a background token's identity — quantized
content digest, leaf size, scene size — to the in-context logits row its
first sighting produced (seeded from a normal forward, never a dedicated
probe), so sub-threshold patches route around the transformer entirely
from their second sighting on.

It is an :class:`~repro.cache.LRU`; the runtime copies rows on the way
in, so cached state never aliases a caller's buffer.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..cache import LRU

__all__ = ["BackgroundTable"]


class BackgroundTable(LRU):
    """Digest-keyed cache of per-token logits rows for background patches."""

    @staticmethod
    def key(digest: np.void, size: int, scene: int) -> Tuple[bytes, int, int]:
        """Identity of a background token: content digest + leaf geometry."""
        return (digest.tobytes(), int(size), int(scene))
