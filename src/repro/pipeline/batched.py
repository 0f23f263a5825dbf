"""Batched APF preprocessing — the throughput engine behind the pipeline.

:class:`BatchedAdaptivePatcher` runs Algorithm 1's stages 1-5 for a whole
batch of images and produces **bit-identical** :class:`PatchSequence`s to the
per-image :class:`~repro.patching.adaptive.AdaptivePatcher` (the readable,
paper-faithful reference implementation). The speed comes from three places:

1. **Screened sparse Canny** (stages 1-2). Detail is spatially sparse — the
   paper's core premise — so most pixels cannot possibly reach the low
   hysteresis threshold. A separable Sobel screen compares ``gx²+gy²`` with
   ``low`` minus a proven rounding slack (2⁻⁴⁰·max|f|) and keeps ~2% of the
   pixels of a whole-slide tile; the exact Sobel / NMS / threshold
   arithmetic runs only on those. Every retained computation replays the
   reference operations on the same scalars (same ufuncs, same tap order),
   so the resulting edge mask is equal bit-for-bit, not merely close.
   Hysteresis labels the weak pixels and reads labels back only there.
2. **Level-synchronous batched quadtree** (stage 3) via
   :func:`~repro.quadtree.tree.build_tree_batch`: one shared frontier,
   a single region-sum lookup per depth across all images, and summed-area
   tables built only on the ``patch_size`` grid the builder queries.
3. **Cache-sized dense passes**: the blur and the screen run per block of
   rows through per-thread scratch buffers, so their ~12 elementwise passes
   each stay in L2 instead of streaming full-image temporaries.

Dense full-image work (blur, screening, gather) deliberately stays per-image
inside the batch loop: on bandwidth-bound hosts, streaming a (B, Z, Z)
float64 stack through elementwise ops is measurably *slower* than per-image
passes that fit in cache, while the small-array tree stage genuinely
amortizes across the shared frontier.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np
from scipy import ndimage

from ..imaging import gaussian_blur, to_grayscale
from ..imaging.filters import KSIZE_FOR_RESOLUTION, gaussian_kernel1d
from ..patching.adaptive import AdaptivePatcher, _variance_detail
from ..quadtree import QuadtreeLeaves, balance_2to1, build_tree_batch

__all__ = ["BatchedAdaptivePatcher"]

#: Screen slack relative to max|f|: the rounding gap between the screen's
#: separable Sobel and the reference taps stays below 150·2⁻⁵³·max|f| (see
#: :func:`_screen_candidates`); 2⁻⁴⁰ = 8192·2⁻⁵³ leaves a 54x margin and
#: still drops only pixels whose magnitude is provably below ``low``.
_SCREEN_SLACK = 2.0 ** -40

#: Elements per row block in the dense passes: a block of every temporary
#: stays in L2 instead of streaming full-image arrays through memory.
_BLOCK = 16384


class _Scratch:
    """Shape-keyed reusable buffer pool, one per thread (``_local``).

    Full-image float64 temporaries dominate the dense stages' cost on
    bandwidth-bound hosts; reusing them across images and calls keeps the
    working set hot instead of faulting fresh pages every image (freed,
    they sit at the top of the heap, which glibc hands back to the OS
    once it outgrows the trim threshold).
    """

    def __init__(self):
        self._bufs: dict = {}

    def get(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._bufs[name] = buf
        return buf

    def get_zeros(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """Zero-filled on first allocation; callers must re-zero what they
        write so reuse stays all-zero."""
        buf = self._bufs.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.zeros(shape, dtype=dtype)
            self._bufs[name] = buf
        return buf


#: Per-thread home of the dense stages' :class:`_Scratch`.
_local = threading.local()


def _blur3_exact(gray: np.ndarray, scratch: Optional[_Scratch] = None
                 ) -> np.ndarray:
    """3-tap separable Gaussian blur, bit-identical to ``gaussian_blur(g, 3)``.

    ``ndimage.correlate1d`` evaluates a symmetric 3-tap kernel as
    ``k₁·center + k₀·(left + right)``; replaying that exact accumulation with
    shifted whole-row ops reproduces its output bit-for-bit at a fraction
    of the cost (no per-line Python dispatch, no ndimage buffer copies).
    Both passes run per block of rows, which changes no operation.
    The result lives in a scratch buffer — consume it before the next call.
    """
    k0, k1 = gaussian_kernel1d(3)[:2]
    z, w = gray.shape
    sc = scratch if scratch is not None else _Scratch()
    out = sc.get("blur_out", gray.shape)
    rows = max(1, _BLOCK // w)
    pair_buf = sc.get("blur_pair", (rows, w))
    t_buf = sc.get("blur_t", (rows, w))
    for r0 in range(0, z, rows):
        r1 = min(r0 + rows, z)
        pair, t, o = pair_buf[:r1 - r0], t_buf[:r1 - r0], out[r0:r1]
        # Vertical pass: t = k1*gray + k0*(up + down), reflect boundary.
        lo, hi = max(r0, 1), min(r1, z - 1)         # rows inside the image
        np.add(gray[lo - 1:hi - 1], gray[lo + 1:hi + 1],
               out=pair[lo - r0:hi - r0])
        if r0 == 0:
            np.add(gray[0], gray[1], out=pair[0])    # up reflects to row 0
        if r1 == z:
            np.add(gray[-2], gray[-1], out=pair[-1])  # down reflects
        np.multiply(pair, k0, out=pair)
        np.multiply(gray[r0:r1], k1, out=t)
        np.add(t, pair, out=t)
        # Horizontal pass on t, same accumulation.
        np.add(t[:, :-2], t[:, 2:], out=pair[:, 1:-1])
        np.add(t[:, 0], t[:, 1], out=pair[:, 0])
        np.add(t[:, -2], t[:, -1], out=pair[:, -1])
        np.multiply(pair, k0, out=pair)
        np.multiply(t, k1, out=o)
        np.add(o, pair, out=o)
    return out


def _screen_candidates(pad: np.ndarray, low: float, absmax: float,
                       scratch: Optional[_Scratch] = None) -> np.ndarray:
    """Boolean superset of ``{p : sobel_magnitude(f)(p) >= low}``.

    ``pad`` is ``f`` reflect-padded by one pixel and ``absmax`` is
    ``max|f|``. The screen is a separable Sobel over ``pad`` — a central
    difference, then 1-2-1 smoothing as two adjacent-pair sums — kept
    where ``gx²+gy² >= t²`` with ``t = low - 2⁻⁴⁰·max|f|``. With
    ``u = 2⁻⁵³`` and ``M = max|f|`` it is a superset because:

    * the reference sums six exact taps (weights ±1, ±2) whose partial
      sums stay within 8M, so each component is within 5·8uM = 40uM of
      the exact Sobel; the screen's differences (≤ 2uM each, weights
      1+2+1), pair sums (≤ 4uM each) and last add (≤ 8uM) keep it within
      24uM, so the two gradient vectors are within √2·64uM < 91uM;
    * a reference magnitude ≥ ``low`` (``np.hypot``, < 1 ulp) means
      ``low < 8√2·M·(1+2u) < 11.4M``, a reference vector length
      ≥ ``low - 23uM``, a screen vector length ≥ ``low - 114uM``, and a
      rounded ``√(gx²+gy²)`` ≥ ``low - 126uM``;
    * the rounded threshold has ``√fl(t²) ≤ low - 2⁻⁴⁰M + 24uM``, and
      2⁻⁴⁰ = 8192u > 150u.

    ``t`` is kept positive and normal and ``M`` far from overflow; outside
    that (``low`` near 0, ``max|f|`` huge, NaN or inf) every pixel is a
    candidate, which turns the sparse path into the dense reference.
    The passes run per block of rows.
    """
    z = pad.shape[0] - 2
    t = low - _SCREEN_SLACK * absmax
    if not (t > 2.0 ** -500 and absmax < 2.0 ** 1000):
        return np.ones((z, z), dtype=bool)
    thr = t * t
    sc = scratch if scratch is not None else _Scratch()
    out = sc.get("scr_out", (z, z), dtype=bool)
    rows = max(1, _BLOCK // z)
    dx_buf = sc.get("scr_dx", (rows + 2, z))
    px_buf = sc.get("scr_px", (rows + 1, z))
    gx_buf = sc.get("scr_gx", (rows, z))
    dy_buf = sc.get("scr_dy", (rows, z + 2))
    py_buf = sc.get("scr_py", (rows, z + 1))
    gy_buf = sc.get("scr_gy", (rows, z))
    for r0 in range(0, z, rows):
        n = min(rows, z - r0)
        p = pad[r0:r0 + n + 2]
        dx, px, gx = dx_buf[:n + 2], px_buf[:n + 1], gx_buf[:n]
        dy, py, gy = dy_buf[:n], py_buf[:n], gy_buf[:n]
        np.subtract(p[:, 2:], p[:, :-2], out=dx)
        np.add(dx[:-1], dx[1:], out=px)
        np.add(px[:-1], px[1:], out=gx)
        np.subtract(p[2:], p[:-2], out=dy)
        np.add(dy[:, :-1], dy[:, 1:], out=py)
        np.add(py[:, :-1], py[:, 1:], out=gy)
        np.multiply(gx, gx, out=gx)
        np.multiply(gy, gy, out=gy)
        np.add(gx, gy, out=gx)
        np.greater_equal(gx, thr, out=out[r0:r0 + n])
    return out


def _sparse_canny(f: np.ndarray, low: float, high: float,
                  scratch: Optional[_Scratch] = None,
                  absmax: Optional[float] = None) -> np.ndarray:
    """Canny edge mask of a 0-255-scaled image, bit-identical to
    :func:`repro.imaging.canny.canny_edges` on the same input.

    Pixels outside the screen cannot reach ``low``; for the rest, the
    Sobel taps are accumulated in ``ndimage.correlate``'s order (zero
    weights skipped), and magnitude / angle / sector / NMS comparisons
    reuse the reference ufuncs on the gathered values. A pixel below the
    screen can never out-compare an NMS candidate (its magnitude is
    provably below ``low`` ≤ the candidate's), so treating it as 0 —
    exactly like the reference's zero padding — changes no decision.
    Hysteresis labels the weak pixels and reads the labels back only at
    their coordinates. ``absmax`` is ``max|f|`` when the caller has it.
    """
    z = f.shape[0]
    sc = scratch if scratch is not None else _Scratch()
    if absmax is None:
        absmax = max(float(f.max()), -float(f.min()))
    # Symmetric pad (== ndimage mode="reflect") into a reused buffer.
    pad = sc.get("pad", (z + 2, z + 2))
    pad[1:-1, 1:-1] = f
    pad[1:-1, 0] = f[:, 0]
    pad[1:-1, -1] = f[:, -1]
    pad[0, :] = pad[1, :]
    pad[-1, :] = pad[-2, :]
    cand = _screen_candidates(pad, low, absmax, sc)
    cy, cx = np.divmod(np.flatnonzero(cand), z)
    out = np.zeros((z, z), dtype=bool)
    if not len(cy):
        return out

    yy, xx = cy + 1, cx + 1
    v00 = pad[yy - 1, xx - 1]
    v01 = pad[yy - 1, xx]
    v02 = pad[yy - 1, xx + 1]
    v10 = pad[yy, xx - 1]
    v12 = pad[yy, xx + 1]
    v20 = pad[yy + 1, xx - 1]
    v21 = pad[yy + 1, xx]
    v22 = pad[yy + 1, xx + 1]
    # Tap order of ndimage.correlate(f, _SOBEL_X / _SOBEL_Y, mode="reflect").
    gx = (-1.0) * v00 + 1.0 * v02 + (-2.0) * v10 + 2.0 * v12 \
        + (-1.0) * v20 + 1.0 * v22
    gy = (-1.0) * v00 + (-2.0) * v01 + (-1.0) * v02 + 1.0 * v20 \
        + 2.0 * v21 + 1.0 * v22
    mag = np.hypot(gx, gy)
    ang = np.arctan2(gy, gx)

    # Sector quantization — same formulas as canny.nonmax_suppression.
    a = np.mod(ang, np.pi)
    sector = np.zeros_like(a, dtype=np.int8)
    sector[(a >= np.pi / 8) & (a < 3 * np.pi / 8)] = 1
    sector[(a >= 3 * np.pi / 8) & (a < 5 * np.pi / 8)] = 2
    sector[(a >= 5 * np.pi / 8) & (a < 7 * np.pi / 8)] = 3

    # Comparison neighbours per sector (gradient direction, across the edge).
    n1 = np.array([(0, 1), (-1, 1), (-1, 0), (-1, -1)], dtype=np.int64)
    magf = sc.get_zeros("magf", (z + 2, z + 2))
    magf[yy, xx] = mag      # 1-offset grid: out-of-image lookups read 0.0
    o1 = n1[sector]
    m1 = magf[yy + o1[:, 0], xx + o1[:, 1]]
    m2 = magf[yy - o1[:, 0], xx - o1[:, 1]]
    magf[yy, xx] = 0.0      # restore the all-zero reuse invariant
    keep = (mag >= m1) & (mag >= m2)

    weak = keep & (mag >= low)
    wy, wx = cy[weak], cx[weak]
    if not len(wy):
        return out
    out[wy, wx] = True
    labels, n = ndimage.label(out, structure=np.ones((3, 3), dtype=bool))
    strong = keep & (mag >= high)
    has_strong = np.zeros(n + 1, dtype=bool)
    has_strong[labels[cy[strong], cx[strong]]] = True
    has_strong[0] = False
    out[wy, wx] = has_strong[labels[wy, wx]]
    return out


class BatchExtract:
    """``extract_batch`` over a patcher's ``build_tree_batch``, shared by
    the 2-D and 3-D batched patchers.

    Stages 4'-6 reuse the patcher's per-scene ``extract``: its gather runs
    over one cache-resident scene at a time (streaming a stacked batch
    through the scatter-gather is slower on bandwidth-bound hosts), and
    ``fit_length`` consumes the shared RNG in scene order — both
    bit-identical to the single-scene loop by construction.
    """

    def extract_batch(self, scenes: Sequence[np.ndarray],
                      trees: Optional[Sequence] = None,
                      natural: bool = False) -> list:
        """Full pipeline for a batch of same-shape images or volumes.

        Parameters
        ----------
        scenes:
            Sequence of same-shape arrays: (Z, Z) or (Z, Z, C) images for
            the 2-D patcher, (Z, Z, Z) volumes for the 3-D one.
        trees:
            Optional precomputed partitions (one per scene) to reuse.
        natural:
            Skip the pad/drop stage (like :meth:`extract_natural`).

        Returns
        -------
        One sequence per scene, in input order.
        """
        if len(scenes) == 0:
            return []
        if trees is None:
            trees = self.build_tree_batch(scenes)
        cfg = self.config
        if natural and cfg.target_length is not None:
            cfg = replace(cfg, target_length=None)
        return [self.extract(x, leaves=tree, config=cfg)
                for x, tree in zip(scenes, trees)]

    def extract_natural_batch(self, scenes: Sequence[np.ndarray]) -> list:
        """Batch variant of :meth:`extract_natural` (no pad/drop stage)."""
        return self.extract_batch(scenes, natural=True)


class BatchedAdaptivePatcher(BatchExtract, AdaptivePatcher):
    """APF preprocessing over whole batches of same-shape images.

    A drop-in superset of :class:`AdaptivePatcher`: single-image calls behave
    identically, and :meth:`extract_batch` processes ``B`` images at once.
    For a fresh patcher, ``extract_batch(images)`` returns byte-identical
    sequences to ``[AdaptivePatcher(cfg).extract(im) for im in images]`` —
    including the random drop stream, which is consumed in image order.

    Examples
    --------
    >>> patcher = BatchedAdaptivePatcher(APFConfig(patch_size=4))
    >>> seqs = patcher.extract_batch(images)        # list of PatchSequence
    """

    def detail_map_batch(self, images: Sequence[np.ndarray]
                         ) -> List[np.ndarray]:
        """Stages 1-2 for a batch: one (Z, Z) detail map per image, in the
        stage's own dtype (bool edge masks for Canny, float64 for variance).

        Each map equals ``self.detail_map(images[b])`` in value (that
        reference widens the edge mask to float64); the tree build sums
        either in float64, so the trees are the same.
        """
        cfg = self.config
        scratch = _local.__dict__.setdefault("scratch", _Scratch())
        out = []
        for image in images:
            gray = to_grayscale(np.asarray(image, dtype=np.float64))
            z = gray.shape[0]
            if out and gray.shape != out[0].shape:
                raise ValueError("all images in a batch must share one shape")
            k = cfg.blur_ksize or KSIZE_FOR_RESOLUTION.get(z, 3)
            if k == 3 and z >= 2:
                blurred = _blur3_exact(gray, scratch)
            else:
                blurred = gaussian_blur(gray, k)
            if cfg.criterion == "canny":
                f = blurred
                hi, lo = (float(f.max()), float(f.min())) if f.size \
                    else (0.0, 0.0)
                absmax = max(hi, -lo)
                # canny_edges rescales [0,1] inputs to the 0-255 scale;
                # x -> fl(255·x) is monotone and odd, so max|f| scales too.
                if f.size and hi <= 1.0 + 1e-9:
                    f = np.multiply(blurred, 255.0,
                                    out=scratch.get("fscale", blurred.shape))
                    absmax *= 255.0
                out.append(_sparse_canny(f, cfg.canny_low, cfg.canny_high,
                                         scratch, absmax))
            else:
                out.append(_variance_detail(
                    blurred, window=max(cfg.patch_size, 2)) * 16.0)
        return out

    def build_tree_batch(
            self, images: Sequence[np.ndarray]) -> List[QuadtreeLeaves]:
        """Stage 3 for a batch: one level-synchronous build over all images."""
        details = self.detail_map_batch(images)
        if not details:
            return []
        cfg = self.config
        trees = build_tree_batch(details, cfg.split_value,
                                 self._tree_depth(details[0].shape[0]),
                                 min_size=cfg.patch_size)
        if cfg.balance:
            trees = [balance_2to1(t) for t in trees]
        return trees
