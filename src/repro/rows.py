"""Row algebra for APF's per-token tables.

A quadtree/octree leaf set and a patch/volume sequence are each a table:
per-row arrays (corner coordinates, sizes, patches, validity)
beside scalars describing the whole table (scene size, patch size,
counters). Algorithm 1 only ever moves whole rows — reorder along the
Morton curve, drop to ``L``, zero-pad to ``L``, keep a subset — so the
classes name their row fields once in ``ROWS`` and share these operations
instead of copying every field by hand.
"""

from __future__ import annotations

from dataclasses import replace
from typing import ClassVar, Dict, Tuple

import numpy as np

__all__ = ["Rows"]


class Rows:
    """Mixin for dataclasses whose class constant ``ROWS`` names the
    per-row array fields (the first one defines ``len``)."""

    ROWS: ClassVar[Tuple[str, ...]] = ()
    #: Corner coordinate fields, outermost axis first (empty: no geometry).
    AXES: ClassVar[Tuple[str, ...]] = ()

    def _columns(self) -> Dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.ROWS}

    def __post_init__(self) -> None:
        lengths = {len(col) for col in self._columns().values()}
        if len(lengths) > 1:
            raise ValueError(f"inconsistent sequence field lengths: {lengths}")

    def __len__(self) -> int:
        return len(getattr(self, self.ROWS[0]))

    def take(self, idx: np.ndarray, **changes):
        """Rows ``idx`` in that order; scalars carry over unless changed."""
        cols = {name: col[idx] for name, col in self._columns().items()}
        return replace(self, **cols, **changes)

    def pad(self, n: int, **changes):
        """Append ``n`` all-zero rows, each in its field's own dtype."""
        cols = {name: np.concatenate(
                    [col, np.zeros((n,) + col.shape[1:], dtype=col.dtype)])
                for name, col in self._columns().items()}
        return replace(self, **cols, **changes)
