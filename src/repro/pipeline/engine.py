"""The batched APF serving/training front-end.

:class:`PatchPipeline` wraps the batched patchers with the two things a
real workload needs on top of raw batch kernels:

* an **LRU sequence cache** (:class:`~repro.cache.LRU`) keyed on caller
  ids or image content hashes — the natural (pre-drop) sequence is cached,
  so every epoch after the first costs a dictionary lookup per image while
  the drop stage stays fresh (Algorithm 1's amortization: the patched
  dataset ``Dp`` is built once, then reused by every epoch);
* **collation** to a fixed length ``L`` with per-item seeded drop/pad,
  producing the ``(B, L, C·Pm²)`` tensor + validity mask the models consume.

The pipeline is **dimension-generic**: construct it with an
:class:`~repro.patching.adaptive.APFConfig` for 2-D images (quadtree APF) or
a :class:`~repro.patching.volumetric.VolumeAPFConfig` for 3-D volumes
(octree APF) — cache and collation behave identically, and
volumetric batches collate to ``(B, L, Pm³)`` tokens with (z, y, x, scale)
coordinates.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Hashable, List, Optional, Sequence, Union

import numpy as np

from ..cache import LRU
from ..patching.adaptive import APFConfig
from ..patching.sequence import PatchSequence
from ..patching.volumetric import VolumeAPFConfig
from ..train.tasks import prepare_image
from .batched import BatchedAdaptivePatcher, _thread_scratch
from .collate import CollatedBatch, collate_batch
from .volumetric import BatchedVolumetricPatcher

__all__ = ["PatchPipeline", "content_key"]


def _key_seed(key: Hashable) -> int:
    """Stable non-negative int for RNG seeding from an arbitrary cache key.

    Plain ints pass through; everything else is hashed with blake2b so the
    seed survives process boundaries (built-in ``hash`` is salted per run).
    """
    if isinstance(key, (int, np.integer)) and not isinstance(key, bool):
        return abs(int(key))
    digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def content_key(image: np.ndarray) -> Hashable:
    """Stable content hash of an image (used when the caller has no ids).

    The one content digest: the pipeline's sequence LRU (for callers
    without keys), the engine's result cache, and the fleet router's
    rendezvous affinity all key on this value, so no two layers can ever
    disagree about what "the same image" is. Hashes the contiguous
    buffer in place: the same keys as hashing ``tobytes()``, without the
    copy.
    """
    a = np.ascontiguousarray(image)
    return (a.shape, a.dtype.str,
            hashlib.blake2b(a.reshape(-1).view(np.uint8),
                            digest_size=16).hexdigest())


class PatchPipeline:
    """Batched, cached APF preprocessing.

    Parameters
    ----------
    config:
        The :class:`APFConfig` (2-D quadtree APF) or :class:`VolumeAPFConfig`
        (3-D octree APF); keyword overrides construct an
        :class:`APFConfig`.
    cache_items:
        LRU capacity in sequences; ``0`` disables caching entirely.
    channels:
        If set, images are channel-adapted (grayscale/replicate) before
        patching — matches what the task adapters feed their models.
        2-D only: volumes are single-channel by construction.

    Examples
    --------
    >>> pipe = PatchPipeline(patch_size=4, split_value=8.0, target_length=256)
    >>> batch = pipe.collate([s.image for s in samples])   # CollatedBatch
    >>> logits = model.forward(batch.tokens, batch.coords, batch.valid)

    >>> vpipe = PatchPipeline(VolumeAPFConfig(target_length=256))
    >>> vbatch = vpipe.collate(volumes)        # tokens (B, 256, Pm³)
    """

    def __init__(self, config: Optional[Union[APFConfig, VolumeAPFConfig]] = None,
                 *, cache_items: int = 1024,
                 channels: Optional[int] = None, **overrides):
        self.volumetric = isinstance(config, VolumeAPFConfig)
        if self.volumetric:
            if overrides:
                raise ValueError("pass either a config object or keyword "
                                 "overrides")
            if channels is not None:
                raise ValueError("channels= does not apply to volumetric "
                                 "pipelines (volumes are single-channel)")
            self.patcher = BatchedVolumetricPatcher(config)
        else:
            self.patcher = BatchedAdaptivePatcher(config, **overrides)
        self.cache = LRU(cache_items) if cache_items else None
        self.build_seconds = 0.0     #: wall time spent computing cache misses
        self.channels = channels
        # One pipeline is shared by engine submit threads and the batcher:
        # the LRU's recency reordering is not atomic, so all cache access
        # goes through this lock (extraction itself runs outside it).
        self._cache_lock = threading.Lock()

    @property
    def config(self) -> Union[APFConfig, VolumeAPFConfig]:
        return self.patcher.config

    # -- core ------------------------------------------------------------
    def _adapt(self, image: np.ndarray, slot: int) -> np.ndarray:
        """Channel-adapted (Z, Z, C) view: a channel mean lands in this
        thread's scratch, one buffer per batch slot (``gather`` copies)."""
        if self.channels is None:
            return np.asarray(image)
        out = _thread_scratch().get(f"adapt{slot}", np.shape(image)[:2] + (1,))
        return prepare_image(image, self.channels, out).transpose(1, 2, 0)

    def process(self, images: Sequence[np.ndarray],
                keys: Optional[Sequence[Hashable]] = None
                ) -> List[PatchSequence]:
        """Natural (no drop/pad) sequences for a batch, cache-aware.

        ``keys`` are stable per-image cache ids (e.g. dataset indices);
        each must name exactly one image's pixels. Without them every
        image is content-hashed (:func:`content_key`), which for a 1024²
        RGB tile costs about as much as the model forward.
        """
        if keys is not None and len(keys) != len(images):
            raise ValueError(f"got {len(keys)} keys for {len(images)} images")
        images = [self._adapt(im, i) for i, im in enumerate(images)]
        if self.cache is None:
            return self.patcher.extract_natural_batch(images)
        if keys is None:
            keys = [content_key(im) for im in images]
        out: List[Optional[PatchSequence]] = [None] * len(images)
        miss_idx = []
        with self._cache_lock:
            for i, key in enumerate(keys):
                seq = self.cache.get(key)
                if seq is None:
                    miss_idx.append(i)
                else:
                    out[i] = seq
        if miss_idx:
            # Concurrent misses on the same key may both compute; sequences
            # are deterministic, so the duplicate put is a harmless refresh.
            t0 = time.perf_counter()
            computed = self.patcher.extract_natural_batch(
                [images[i] for i in miss_idx])
            build_s = time.perf_counter() - t0
            with self._cache_lock:
                self.build_seconds += build_s
                for i, seq in zip(miss_idx, computed):
                    self.cache.put(keys[i], seq)
                    out[i] = seq
        return out  # type: ignore[return-value]

    def __call__(self, images, keys: Optional[Sequence[Hashable]] = None):
        """Batch call → list of sequences; a single array — (Z, Z[, C]) for
        images, (Z, Z, Z) for volumes — → one sequence with drop/pad applied
        (drop-in for the task adapters' patcher: the natural sequence is
        cached, the drop stays fresh on every call)."""
        single_ndim = (3,) if self.volumetric else (2, 3)
        if isinstance(images, np.ndarray) and images.ndim in single_ndim:
            return self.extract(images, key=keys)
        return self.process(images, keys)

    def extract(self, image: np.ndarray,
                key: Optional[Hashable] = None) -> PatchSequence:
        """Single-image pathway: cached natural sequence + fresh drop/pad."""
        seq = self.process([image], None if key is None else [key])[0]
        target = self.config.target_length
        if target is None:
            return seq
        return self.patcher.fit_length(seq, target)

    # -- collation -------------------------------------------------------
    def collate(self, images: Sequence[np.ndarray],
                keys: Optional[Sequence[Hashable]] = None,
                length: Optional[int] = None, epoch: int = 0,
                samples: Optional[list] = None) -> CollatedBatch:
        """Process + drop/pad to ``length`` + stack into a model-ready batch.

        The drop RNG is seeded per image from ``(config.seed, epoch, id)``
        where ``id`` is the image's stable ``key`` when ``keys`` are given
        (deterministic for any worker count, batch size, or shuffle order)
        and its batch position otherwise. Every epoch still sees fresh drops
        (training augmentation).
        """
        length = length if length is not None else self.config.target_length
        if length is None:
            raise ValueError("set target_length (or pass length=) to collate")
        naturals = self.process(images, keys)
        seed = self.config.seed
        ids = ([_key_seed(k) for k in keys] if keys is not None
               else range(len(naturals)))
        fitted = [
            self.patcher.fit_length(
                seq, length, rng=np.random.default_rng((seed, epoch, i)))
            for i, seq in zip(ids, naturals)
        ]
        return collate_batch(fitted, samples=samples)

    def collate_samples(self, samples: Sequence, length: Optional[int] = None,
                        epoch: int = 0,
                        keys: Optional[Sequence[Hashable]] = None
                        ) -> CollatedBatch:
        """Collate dataset samples (objects with ``.image``) for training."""
        return self.collate([s.image for s in samples], keys=keys,
                            length=length, epoch=epoch, samples=list(samples))

    # -- task-adapter compatibility --------------------------------------
    def extract_natural(self, image: np.ndarray) -> PatchSequence:
        """Single-image natural sequence through the cache (inference path)."""
        return self.process([image])[0]

    @property
    def stats(self) -> dict:
        """Cache counters (empty dict when caching is disabled)."""
        if self.cache is None:
            return {}
        with self._cache_lock:
            return {"hits": self.cache.hits, "misses": self.cache.misses,
                    "evictions": self.cache.evictions,
                    "hit_rate": self.cache.hit_rate,
                    "build_seconds": self.build_seconds,
                    "items": len(self.cache)}

    def warm(self, dataset, batch_size: int = 32) -> dict:
        """Precompute the whole dataset into the cache (Algorithm 1 line 2-7:
        build ``Dp`` once before the epoch loop). Returns :attr:`stats`."""
        for start in range(0, len(dataset), batch_size):
            idx = range(start, min(start + batch_size, len(dataset)))
            samples = [dataset[i] for i in idx]
            self.process([s.image for s in samples], keys=list(idx))
        return self.stats
