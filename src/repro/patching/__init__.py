"""``repro.patching`` — the Adaptive Patch Framework (APF) and its baseline.

* :class:`AdaptivePatcher` / :class:`APFConfig` — paper Alg. 1 preprocessing
* :class:`UniformPatcher` — traditional grid patching baseline
* :class:`PatchSequence` — the shared model-input container
"""

from .adaptive import AdaptivePatcher, APFConfig
from .sequence import PatchSequence
from .uniform import UniformPatcher, uniform_sequence_length
from .volumetric import (VolumeAPFConfig, VolumeSequence,
                         VolumetricAdaptivePatcher)

__all__ = ["AdaptivePatcher", "APFConfig", "PatchSequence", "UniformPatcher",
           "uniform_sequence_length",
           "VolumetricAdaptivePatcher", "VolumeAPFConfig", "VolumeSequence"]
