"""Batched volumetric APF — the 3-D throughput engine behind the pipeline.

:class:`BatchedVolumetricPatcher` runs the octree APF stages for a whole
batch of volumes and produces **bit-identical** :class:`VolumeSequence`s to
the per-volume :class:`~repro.patching.volumetric.VolumetricAdaptivePatcher`
(the readable reference implementation), including the random drop stream.
The speed comes from four places:

1. **Exact-replay gradient detail** — the reference's
   ``np.gradient`` / magnitude / quantile cascade allocates ~8 full-volume
   float64 temporaries per call and pays an O(N log N) sort for the
   threshold. The batched kernel replays the same ufunc arithmetic into
   reusable scratch buffers and derives the threshold decision from two
   order statistics obtained via ``np.partition`` (O(N)): the quantile's
   interpolated value always lies between two *adjacent* order statistics
   ``a ≤ b`` of the magnitude, so ``mag > thr`` equals ``mag² > a²`` when
   ``thr < b`` and ``mag² > b²`` otherwise — no full-volume ``sqrt`` and no
   sort, same mask bit-for-bit.
2. **Level-synchronous batched octree** via
   :func:`~repro.quadtree.tree.build_tree_batch`: one shared frontier
   and a single region-sums lookup per depth across all volumes, over
   summed-volume tables sampled on the ``patch_size`` grid.
3. **Vectorized cube gather** (:func:`~repro.patching.transfer.gather`,
   shared with the 2-D patcher): leaves are gathered per size group with
   one fancy-index + reshape-mean per group instead of a Python loop per
   leaf (the multi-axis mean reduces each cube in the same element order
   as the reference's per-cube reduction, so values match bit-for-bit).
4. **Buffer reuse**: smoothing output, gradient planes, and the partition
   scratch persist across the volumes of a batch.

Dense per-volume work (Gaussian smoothing, gradients) deliberately stays
inside the batch loop: on bandwidth-bound hosts, streaming a (B, Z, Z, Z)
float64 stack through elementwise ops evicts cache to no benefit, while the
small-array tree stage genuinely amortizes across the shared frontier.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
from scipy import ndimage

from ..patching.transfer import gather
from ..patching.volumetric import VolumetricAdaptivePatcher
from ..quadtree import OctreeLeaves, build_tree_batch
from .batched import BatchExtract, _Scratch

__all__ = ["BatchedVolumetricPatcher"]


def _gradient_axis_undivided(f: np.ndarray, axis: int,
                             out: np.ndarray) -> np.ndarray:
    """One axis of ``2 · np.gradient(f)`` (unit spacing), exactly.

    Interior: the undivided central difference ``f[i+1] - f[i-1]`` — exactly
    twice :func:`np.gradient`'s value, since division by two is exact in
    IEEE arithmetic. Edges: one-sided differences doubled (also exact). The
    caller works in these 2x units and rescales only the two scalar order
    statistics, saving a full-volume divide per axis.
    """
    a = np.moveaxis(f, axis, 0)
    o = np.moveaxis(out, axis, 0)
    np.subtract(a[2:], a[:-2], out=o[1:-1])
    np.subtract(a[1], a[0], out=o[0])
    o[0] *= 2.0
    np.subtract(a[-1], a[-2], out=o[-1])
    o[-1] *= 2.0
    return out


def _detail_mask_exact(v: np.ndarray, sigma: float, quantile: float,
                       sc: _Scratch) -> np.ndarray:
    """Detail mask bit-identical to ``VolumetricAdaptivePatcher.detail_map``.

    Replays blur → gradient → squared-magnitude with scratch buffers, then
    resolves the quantile threshold from two adjacent order statistics of
    the squared magnitude (see module docstring for why this is exact).
    Gradients are carried in undivided (2x) units: powers of two scale IEEE
    doubles exactly, so ``m2 = 4·(gz² + gy² + gx²)`` element-for-element and
    only the two scalar order statistics need rescaling. The returned
    boolean array lives in a scratch buffer — consume it before the next
    call.
    """
    smooth = sc.get("smooth", v.shape)
    ndimage.gaussian_filter(v, sigma, output=smooth)
    g = sc.get("grad", v.shape)
    t = sc.get("gsq", v.shape)
    m2 = sc.get("m2", v.shape)
    # m2 = (2gz)² + (2gy)² + (2gx)², accumulated in the reference's
    # evaluation order (left-to-right), so m2 == 4·reference bit-for-bit.
    _gradient_axis_undivided(smooth, 0, g)
    np.multiply(g, g, out=m2)
    _gradient_axis_undivided(smooth, 1, g)
    np.multiply(g, g, out=t)
    np.add(m2, t, out=m2)
    _gradient_axis_undivided(smooth, 2, g)
    np.multiply(g, g, out=t)
    np.add(m2, t, out=m2)

    n = m2.size
    virt = quantile * (n - 1)
    k = int(np.floor(virt))
    gamma = virt - np.floor(virt)
    kk = min(k + 1, n - 1)
    part = sc.get("part", (n,))
    np.copyto(part, m2.reshape(-1))
    part.partition([k, kk])
    a2, b2 = part[k], part[kk]
    # Adjacent order statistics of |∇|: sqrt(4x)/2 == sqrt(x) exactly.
    a, b = 0.5 * np.sqrt(a2), 0.5 * np.sqrt(b2)
    # np.quantile's linear interpolation (numpy's _lerp), on scalars.
    thr = a + gamma * (b - a)
    if gamma >= 0.5:
        thr = b - (b - a) * (1.0 - gamma)
    # No magnitude value lies strictly between a and b, so the elementwise
    # comparison against thr ∈ [a, b] collapses to one of two exact cuts
    # (expressed directly in the 4x units of m2).
    cut = b2 if thr >= b else a2
    return m2 > cut


class BatchedVolumetricPatcher(BatchExtract, VolumetricAdaptivePatcher):
    """Octree APF over whole batches of same-shape volumes.

    A drop-in superset of :class:`VolumetricAdaptivePatcher`: single-volume
    calls behave identically, and :meth:`extract_batch` processes ``B``
    volumes at once. For a fresh patcher, ``extract_batch(volumes)`` returns
    byte-identical sequences to a fresh reference patcher looping over the
    same volumes::

        ref = VolumetricAdaptivePatcher(cfg)
        [ref.extract(v) for v in volumes]

    — including the random drop stream, which both consume from one shared
    RNG in volume order (constructing a new reference patcher per volume
    would reseed the stream each time and diverge from volume 1 onward).

    Examples
    --------
    >>> patcher = BatchedVolumetricPatcher(VolumeAPFConfig(patch_size=4))
    >>> seqs = patcher.extract_batch(volumes)      # list of VolumeSequence
    """

    def detail_map_batch(self, volumes: Sequence[np.ndarray]) -> np.ndarray:
        """Detail masks for a batch: (B, Z, Z, Z) float64 stack.

        Each slice is bit-identical to ``self.detail_map(volumes[b])``.
        """
        if len(volumes) == 0:
            return np.empty((0, 0, 0, 0), dtype=np.float64)
        cfg = self.config
        scratch = _Scratch()
        out = None
        for i, volume in enumerate(volumes):
            v = np.asarray(volume, dtype=np.float64)
            if v.ndim != 3:
                raise ValueError(f"expected a 3-D volume, got shape {v.shape}")
            if out is None:
                out = np.empty((len(volumes),) + v.shape, dtype=np.float64)
            elif v.shape != out.shape[1:]:
                raise ValueError("all volumes in a batch must share one shape")
            out[i] = _detail_mask_exact(v, cfg.blur_sigma,
                                        cfg.detail_quantile, scratch)
        return out

    def build_tree_batch(
            self, volumes: Sequence[np.ndarray]) -> List[OctreeLeaves]:
        """One level-synchronous octree build over all volumes.

        Each detail mask goes to the builder as soon as it is computed and
        is summed into its sampled table before the next volume's mask
        reuses the scratch buffer, so no (B, Z, Z, Z) detail stack is held.
        """
        if len(volumes) == 0:
            return []
        cfg = self.config
        scratch = _Scratch()
        shape = np.shape(volumes[0])
        if len(shape) != 3:
            raise ValueError(f"expected a 3-D volume, got shape {shape}")

        def masks():
            for volume in volumes:
                v = np.asarray(volume, dtype=np.float64)
                if v.shape != shape:
                    raise ValueError(
                        "all volumes in a batch must share one shape")
                yield _detail_mask_exact(v, cfg.blur_sigma,
                                         cfg.detail_quantile, scratch)

        return build_tree_batch(masks(), cfg.split_value,
                                self._tree_depth(shape[0]),
                                min_size=cfg.patch_size)

    def _gather(self, v: np.ndarray, leaves: OctreeLeaves,
                pm: int) -> np.ndarray:
        """The shared size-grouped block gather
        (:func:`~repro.patching.transfer.gather`) in place of the
        reference's per-leaf loop."""
        return gather(v, leaves, pm)
