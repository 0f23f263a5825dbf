"""``repro.patching`` — the Adaptive Patch Framework (APF) and its baseline.

* :class:`AdaptivePatcher` / :class:`APFConfig` — paper Alg. 1 preprocessing
* :class:`UniformPatcher` — traditional grid patching baseline
* :class:`PatchSequence` — the shared model-input container
* :func:`gather` / :func:`patchify_labels` / :func:`stitch` — the one
  leaf↔pixel transfer (patch extraction, label projection, prediction
  stitch) for quadtree and octree tokens
"""

from .adaptive import AdaptivePatcher, APFConfig
from .sequence import PatchSequence
from .transfer import gather, patchify_labels, stitch
from .uniform import UniformPatcher, uniform_sequence_length
from .volumetric import (VolumeAPFConfig, VolumeSequence,
                         VolumetricAdaptivePatcher)

__all__ = ["AdaptivePatcher", "APFConfig", "PatchSequence", "UniformPatcher",
           "uniform_sequence_length", "gather", "patchify_labels", "stitch",
           "VolumetricAdaptivePatcher", "VolumeAPFConfig", "VolumeSequence"]
