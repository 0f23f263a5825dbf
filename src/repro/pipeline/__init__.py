"""``repro.pipeline`` — batched, parallel, cached APF preprocessing.

The scale-out layer over :mod:`repro.patching`:

* :class:`BatchedAdaptivePatcher` — bit-identical batch kernels for
  Algorithm 1 stages 1-5 (screened sparse Canny, level-synchronous batched
  quadtree, batch-grouped gather)
* :class:`BatchedVolumetricPatcher` — the 3-D analogue: exact-replay
  gradient detail + level-synchronous batched octree + vectorized cube
  gather, bit-identical to the per-volume patcher
* :class:`PatchPipeline` — thread pool + LRU sequence cache + fixed-length
  collation front-end, dimension-generic over both patchers
* :class:`CollatedBatch` / :func:`collate_batch` — the ``(B, L, C·Pm²)``
  (or ``(B, L, Pm³)``) token tensor + validity mask hand-off to
  :mod:`repro.models`
"""

from .batched import BatchedAdaptivePatcher
from .collate import CollatedBatch, collate_batch
from .engine import PatchPipeline
from .volumetric import BatchedVolumetricPatcher

__all__ = ["BatchedAdaptivePatcher", "BatchedVolumetricPatcher",
           "PatchPipeline", "CollatedBatch", "collate_batch"]
