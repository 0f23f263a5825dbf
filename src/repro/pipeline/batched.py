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
   Work is skipped at three more levels: a 16×16 block whose range is
   below ``t/(4√2)`` less a rounding slack cannot hold a candidate (a
   Sobel magnitude is at most 4√2 times its window's range; the proof is
   in :func:`_screen_candidates`), so the screen runs only on the ~13%
   of a tile's blocks that can; hysteresis joins the weak pixels over
   their own coordinates (:func:`_join8`), not over the z² mask; and the
   channel mean runs per block of rows into per-thread scratch
   (:func:`~repro.train.tasks._channel_mean`).
2. **Level-synchronous batched quadtree** (stage 3) via
   :func:`~repro.quadtree.tree.build_tree_batch`: one shared frontier,
   a single region-sum lookup per depth across all images, and summed-area
   tables built only on the ``patch_size`` grid the builder queries.
3. **Cache-sized dense passes**: the blur runs per block of rows through
   per-thread scratch buffers, so its ~12 elementwise passes each stay in
   L2 instead of streaming full-image temporaries.

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
from numpy.lib.stride_tricks import as_strided

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

#: Side of the screen's pixel blocks, and ``1/(4√2)`` rounded down past
#: the block range's rounding (see :func:`_screen_candidates`).
_SIDE = 16
_RANGE_SCALE = 0.17677


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


def _thread_scratch() -> _Scratch:
    return _local.__dict__.setdefault("scratch", _Scratch())


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


def _bands(a: np.ndarray, b: int) -> np.ndarray:
    """(Z/b, b+2, n) view of a (Z+2, n) array: band ``i`` is rows
    [i·b, i·b+b+2), the ``b`` rows of a one-pixel-padded block row and
    its two halo rows (``b`` divides Z)."""
    s0, s1 = a.strides
    return as_strided(a, ((a.shape[0] - 2) // b, b + 2, a.shape[1]),
                      (b * s0, s0, s1), writeable=False)


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

    Block pre-screen: the screen runs only on b×b pixel blocks (b the
    largest power of two ≤ ``_SIDE`` dividing z) whose 3×3 windows, halo
    included, span a range ``R = max - min`` with ``fl(R) >=
    fl(t·_RANGE_SCALE)``. An exact Sobel component sums three
    differences with weights 1, 2, 1, so the exact magnitude is at most
    4√2·R. A reference magnitude ≥ ``low`` gives an exact vector length
    ≥ ``low - 23uM - √2·40uM > low - 81uM > t``, so ``R > t/(4√2)`` and
    ``fl(R) ≥ R(1-u) > t(1-u)/(4√2) ≥ fl(t·0.17677)``, as
    ``0.17677·(1+3u) < 1/(4√2) = 0.1767767``: a skipped block holds no
    such pixel. Active blocks' windows run through the same per-pixel
    ops as a stack gathered from ``pad``.

    ``t`` is kept positive and normal and ``M`` far from overflow; outside
    that (``low`` near 0, ``max|f|`` huge, NaN or inf) every pixel is a
    candidate, which turns the sparse path into the dense reference.
    """
    z = pad.shape[0] - 2
    t = low - _SCREEN_SLACK * absmax
    if not (t > 2.0 ** -500 and absmax < 2.0 ** 1000):
        return np.ones((z, z), dtype=bool)
    sc = scratch if scratch is not None else _Scratch()
    out = sc.get("scr_out", (z, z), dtype=bool)
    out.fill(False)
    b = min(_SIDE, z & -z)           # a power of two that divides z
    # block ranges: reduce rows first (contiguous passes over the image),
    # then the small (bands, z+2) results' columns, transposed
    rows = _bands(pad, b)
    hi, lo = (np.ascontiguousarray(e.T)
              for e in (rows.max(axis=1), rows.min(axis=1)))
    rng = _bands(hi, b).max(axis=1) - _bands(lo, b).min(axis=1)
    bx, by = np.nonzero(rng >= t * _RANGE_SCALE)
    nb, (s0, s1) = z // b, pad.strides
    win = as_strided(pad, (nb, nb, b + 2, b + 2), (b * s0, b * s1, s0, s1),
                     writeable=False)
    hits = out.reshape(nb, b, nb, b)
    # the screen's per-pixel ops over stacks of active blocks
    step = _BLOCK // b ** 2
    for k0 in range(0, len(by), step):
        yy, xx = by[k0:k0 + step], bx[k0:k0 + step]
        p = win[yy, xx]                                 # (n, b+2, b+2)
        dx = p[:, :, 2:] - p[:, :, :-2]
        px = dx[:, :-1] + dx[:, 1:]
        gx = px[:, :-1] + px[:, 1:]
        dy = p[:, 2:] - p[:, :-2]
        py = dy[:, :, :-1] + dy[:, :, 1:]
        gy = py[:, :, :-1] + py[:, :, 1:]
        np.multiply(gx, gx, out=gx)
        np.multiply(gy, gy, out=gy)
        np.add(gx, gy, out=gx)
        hits[yy, :, xx] = gx >= t * t
    return out


def _join8(ys: np.ndarray, xs: np.ndarray, z: int,
           scratch: Optional[_Scratch] = None) -> np.ndarray:
    """Root index per pixel of the set ``{(ys[i], xs[i])}`` in a (z, z)
    image, equal exactly for 8-connected pixels (``ndimage.label``'s
    partition) at a cost linear in the set, not in z². Pixels find their
    right and lower neighbours in an index grid; a union-find hooks each
    root to its smallest adjacent root (roots only point lower, so no
    cycle forms) and pointer-jumps until no edge joins two roots.
    """
    n, w = len(ys), z + 2
    sc = scratch if scratch is not None else _Scratch()
    grid = sc.get_zeros("join", (w * w,), dtype=np.int32)
    flat = (ys + 1) * w + (xs + 1)
    grid[flat] = np.arange(1, n + 1)
    nbr = grid[flat[:, None] + np.array([1, w - 1, w, w + 1])]
    grid[flat] = 0          # restore the all-zero reuse invariant
    u, j = np.nonzero(nbr)
    v = nbr[u, j] - 1
    root = np.arange(n)
    while len(u):
        ru, rv = root[u], root[v]
        join = ru != rv
        u, v, ru, rv = u[join], v[join], ru[join], rv[join]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    return root


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
    Hysteresis joins the weak pixels by 8-connectivity over their own
    coordinates (:func:`_join8`). ``absmax`` is ``max|f|`` when the
    caller has it.
    """
    z = f.shape[0]
    sc = scratch if scratch is not None else _Scratch()
    if absmax is None:
        absmax = max(float(f.max()), -float(f.min()))
    # Symmetric pad (== ndimage mode="reflect") into a reused buffer.
    pad = sc.get("pad", (z + 2, z + 2))
    if f.base is not pad:           # else f is already pad's interior
        pad[1:-1, 1:-1] = f
    pad[1:-1, 0] = f[:, 0]
    pad[1:-1, -1] = f[:, -1]
    pad[0, :] = pad[1, :]
    pad[-1, :] = pad[-2, :]
    cand = np.flatnonzero(_screen_candidates(pad, low, absmax, sc))
    cy, cx = np.divmod(cand, z)
    out = np.zeros((z, z), dtype=bool)
    if not len(cy):
        return out

    # Flat indices into the padded grids; taps as (dy, dx) -> dy·w + dx.
    w = z + 2
    at = cand + 2 * cy + w + 1
    v00, v01, v02, v10, v12, v20, v21, v22 = (
        pad.take(at + o) for o in (-w - 1, -w, 1 - w, -1, 1, w - 1, w, w + 1))
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

    # Comparison neighbours per sector (gradient direction, across the
    # edge): (0, 1), (-1, 1), (-1, 0), (-1, -1).
    o1 = np.array([1, 1 - w, -w, -w - 1])[sector]
    magf = sc.get_zeros("magf", (w * w,))
    magf[at] = mag          # 1-offset grid: out-of-image lookups read 0.0
    m1, m2 = magf.take(at + o1), magf.take(at - o1)
    magf[at] = 0.0          # restore the all-zero reuse invariant
    keep = (mag >= m1) & (mag >= m2)

    weak = keep & (mag >= low)
    wy, wx = cy[weak], cx[weak]
    if not len(wy):
        return out
    root = _join8(wy, wx, z, sc)
    has_strong = np.zeros(len(wy), dtype=bool)
    has_strong[root[(mag >= high)[weak]]] = True
    out[wy, wx] = has_strong[root]
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
        scratch = _thread_scratch()
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
                # (scaled straight into the screen's padded buffer)
                if f.size and hi <= 1.0 + 1e-9:
                    f = np.multiply(blurred, 255.0, out=scratch.get(
                        "pad", (z + 2, z + 2))[1:-1, 1:-1])
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
