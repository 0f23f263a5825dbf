"""Batched APF preprocessing — the throughput engine behind the pipeline.

:class:`BatchedAdaptivePatcher` runs Algorithm 1's stages 1-5 for a whole
batch of images and produces **bit-identical** :class:`PatchSequence`s to the
per-image :class:`~repro.patching.adaptive.AdaptivePatcher` (the readable,
paper-faithful reference implementation). The speed comes from three places:

1. **Screened sparse Canny** (stages 1-2). Detail is spatially sparse — the
   paper's core premise. A 16×16 block whose range is below ``t/(4√2)``
   less a rounding slack cannot reach the low hysteresis threshold (a
   Sobel magnitude is at most 4√2 times its window's range), and the
   gray range over a window two pixels wider bounds it, as the blur is
   a convex combination. Only the ~13% of a tile's blocks that pass are
   blurred (:func:`_blurred_canny`) and screened: a separable Sobel
   compares ``gx²+gy²`` with ``low`` minus a slack (2⁻⁴⁰·max|f|),
   keeping ~2% of the pixels for the exact Sobel / NMS / threshold
   arithmetic, and hysteresis joins the weak pixels over their own
   coordinates (:func:`_join8`). Every retained computation replays the
   reference operations on the same scalars (same ufuncs, same tap
   order), so the edge mask is equal bit-for-bit, not merely close (the
   proofs are in :func:`_screen_candidates` and :func:`_blurred_canny`).
   The channel mean runs per block of rows into per-thread scratch
2. **Level-synchronous batched quadtree** (stage 3) via
   :func:`~repro.quadtree.tree.build_tree_batch`: one shared frontier,
   a single region-sum lookup per depth across all images, and summed-area
   tables built only on the ``patch_size`` grid the builder queries.
3. **Cache-sized dense passes**: a full blur (other kernels, the variance
   criterion, or gray bounds that leave ``canny_edges``' rescale open)
   runs per block of rows through per-thread scratch buffers, so its
   ~12 elementwise passes each stay in L2.

Dense full-image work (reductions, gather) deliberately stays per-image
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

#: ``gaussian_kernel1d(3)``'s side and centre taps.
_K0, _K1 = gaussian_kernel1d(3)[:2]


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
    z, w = gray.shape
    sc = scratch if scratch is not None else _Scratch()
    out = sc.get("blur_out", gray.shape)
    rows = max(1, _BLOCK // w)
    pair_buf = sc.get("blur_pair", (rows, w))
    t_buf = sc.get("blur_t", (rows, w))
    for r0 in range(0, z, rows):
        r1 = min(r0 + rows, z)
        pair, t, o = pair_buf[:r1 - r0], t_buf[:r1 - r0], out[r0:r1]
        # Vertical pass: t = K1*gray + K0*(up + down), reflect boundary.
        lo, hi = max(r0, 1), min(r1, z - 1)         # rows inside the image
        np.add(gray[lo - 1:hi - 1], gray[lo + 1:hi + 1],
               out=pair[lo - r0:hi - r0])
        if r0 == 0:
            np.add(gray[0], gray[1], out=pair[0])    # up reflects to row 0
        if r1 == z:
            np.add(gray[-2], gray[-1], out=pair[-1])  # down reflects
        np.multiply(pair, _K0, out=pair)
        np.multiply(gray[r0:r1], _K1, out=t)
        np.add(t, pair, out=t)
        # Horizontal pass on t, same accumulation.
        np.add(t[:, :-2], t[:, 2:], out=pair[:, 1:-1])
        np.add(t[:, 0], t[:, 1], out=pair[:, 0])
        np.add(t[:, -2], t[:, -1], out=pair[:, -1])
        np.multiply(pair, _K0, out=pair)
        np.multiply(t, _K1, out=o)
        np.add(o, pair, out=o)
    return out


def _widen(blocks: np.ndarray, red, h: int) -> np.ndarray:
    """``red`` (``np.maximum``/``np.minimum``) over each row block of a
    (nb, b, m) view, widened by ``h`` rows per side, clipped: (nb, m)."""
    b, win = blocks.shape[1], red.reduce(blocks, axis=1)
    for d in range(1, -(-h // b) + 1):
        n = min(h - (d - 1) * b, b)     # rows of the d-th neighbour inside
        red(win[d:], red.reduce(blocks[:, b - n:], axis=1)[:-d], out=win[d:])
        red(win[:-d], red.reduce(blocks[:, :n], axis=1)[d:], out=win[:-d])
    return win


def _block_extrema(a: np.ndarray, b: int, h: int) -> list:
    """``[max, min]`` of a (z, z) array over its b×b blocks widened by
    ``h`` pixels per side and clipped, each (z/b, z/b): rows first
    (contiguous passes over the image), then the small results' columns."""
    nb = a.shape[0] // b
    return [_widen(np.ascontiguousarray(_widen(a.reshape(
        nb, b, a.shape[1]), red, h).T).reshape(nb, b, nb), red, h).T
        for red in (np.maximum, np.minimum)]


def _threshold(low: float, absmax: float) -> Optional[tuple]:
    """The screen's ``t`` and block cut ``fl(t·_RANGE_SCALE) -
    2⁻⁴⁰·absmax`` (see :func:`_screen_candidates`), or None outside its
    proof's safe range."""
    t = low - _SCREEN_SLACK * absmax
    if t > 2.0 ** -500 and absmax < 2.0 ** 1000:
        return t, t * _RANGE_SCALE - _SCREEN_SLACK * absmax
    return None


def _screen_candidates(pad: np.ndarray, low: float, absmax: float,
                       scratch: Optional[_Scratch] = None,
                       blocks: Optional[tuple] = None) -> np.ndarray:
    """Boolean superset of ``{p : sobel_magnitude(f)(p) >= low}``.

    ``pad`` is ``f`` reflect-padded by one pixel and ``absmax`` is at
    least ``max|f|``. The screen is a separable Sobel over ``pad`` — a
    central difference, then 1-2-1 smoothing as two adjacent-pair sums —
    kept where ``gx²+gy² >= t²`` with ``t = low - 2⁻⁴⁰·absmax``. With
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

    Block pre-screen: only the b×b blocks ``blocks`` (b the largest power
    of two ≤ ``_SIDE`` dividing z) are screened, those with
    ``fl(fl(r)·scale) >= fl(fl(t·_RANGE_SCALE) - 2⁻⁴⁰·absmax)``, ``r =
    fl(G)`` a range whose data bound the exact range ``R`` of the
    block's (b+2)² window of ``pad`` as ``R ≤ scale·G + e``, ``e ≤
    28u·absmax``: by default ``f`` over that window (reflection repeats
    values inside it; ``e = 0``), or gray ranges (:func:`_blurred_canny`,
    which fills only those windows of ``pad``). An exact Sobel component
    sums three differences with weights 1, 2, 1, so the exact magnitude
    is at most 4√2·R; a reference magnitude ≥ ``low`` gives an exact
    vector length ≥ ``low - 23uM - √2·40uM > low - 81uM > t``, so ``R >
    t/(4√2)``. The left side is then ``≥ scale·G·(1-2u) > (t/(4√2) -
    e)(1-2u)``, the rounded right side ``≤ 0.17677·(1+3u)·t -
    8191u·absmax``, and ``0.17677·(1+3u) < (1-2u)/(4√2) =
    0.1767767·(1-2u)``: a skipped block holds no such pixel. Active
    windows, gathered from ``pad``, take the per-pixel ops as a stack.

    ``t`` is kept positive and normal and ``absmax`` far from overflow;
    outside that (``low`` near 0, ``max|f|`` huge, NaN or inf) every
    pixel is a candidate, which turns the sparse path into the dense
    reference.
    """
    z = pad.shape[0] - 2
    th = _threshold(low, absmax)
    if th is None:
        return np.ones((z, z), dtype=bool)
    t, cut = th
    sc = scratch if scratch is not None else _Scratch()
    out = sc.get("scr_out", (z, z), dtype=bool)
    out.fill(False)
    b = min(_SIDE, z & -z)           # a power of two that divides z
    by, bx = blocks if blocks is not None else np.nonzero(  # f's ranges
        np.subtract(*_block_extrema(pad[1:-1, 1:-1], b, 1)) >= cut)
    nb, (s0, s1) = z // b, pad.strides
    win = as_strided(pad, (nb, nb, b + 2, b + 2), (b * s0, b * s1, s0, s1),
                     writeable=False)
    hits = out.reshape(nb, b, nb, b)
    # the screen's per-pixel ops over stacks of active blocks
    step = _BLOCK // b ** 2
    for k0 in range(0, len(by), step):
        yy, xx = by[k0:k0 + step], bx[k0:k0 + step]
        p = win[yy, xx]
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
                  absmax: Optional[float] = None,
                  blocks: Optional[tuple] = None) -> np.ndarray:
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
    coordinates (:func:`_join8`). ``absmax`` is ``max|f|`` (or a bound
    above it) when the caller has it; ``blocks`` goes on to
    :func:`_screen_candidates`.
    """
    sc = scratch if scratch is not None else _Scratch()
    z = f.shape[0]
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
    cand = np.flatnonzero(_screen_candidates(pad, low, absmax, sc, blocks))
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


def _dense_canny(blurred: np.ndarray, low: float, high: float,
                 scratch: _Scratch) -> np.ndarray:
    """``canny_edges(blurred, low, high)`` through :func:`_sparse_canny`."""
    z, f = blurred.shape[0], blurred
    hi, lo = (f.max(), f.min()) if f.size else (0.0, 0.0)
    absmax = max(hi, -lo)
    # canny_edges rescales [0,1] inputs to the 0-255 scale; x -> fl(255·x)
    # is monotone and odd, so max|f| scales too (into the screen's pad).
    if f.size and hi <= 1.0 + 1e-9:
        f = np.multiply(blurred, 255.0,
                        out=scratch.get("pad", (z + 2, z + 2))[1:-1, 1:-1])
        absmax *= 255.0
    return _sparse_canny(f, low, high, scratch, absmax)


def _blur_windows(gray: np.ndarray, scale: float, pad: np.ndarray,
                  by: np.ndarray, bx: np.ndarray) -> None:
    """Write blocks ``(by, bx)``' (b+2)² windows of ``pad`` =
    ``fl(scale·_blur3_exact(gray))`` reflect-padded, as stacks made from
    the gray windows two pixels wider, in the screen's chunks of blocks.

    ``sym`` mirrors gray indices at the border (-2, -1 -> 1, 0), so
    padded row -1 blurs rows (1, 0, 0) and row 0 rows (0, 0, 1): both
    are ``_blur3_exact``'s row 0. Every value takes ``_blur3_exact``'s
    ops in its order (IEEE addition commutes), so they are bit-identical.
    """
    z = gray.shape[0]
    b = min(_SIDE, z & -z)
    sym, span = np.pad(np.arange(z), 2, mode="symmetric"), np.arange(b + 4)
    step = _BLOCK // b ** 2
    for k0 in range(0, len(by), step):
        y0, x0 = by[k0:k0 + step, None] * b, bx[k0:k0 + step, None] * b
        g = gray.take(sym[y0 + span][:, :, None] * z
                      + sym[x0 + span][:, None, :])       # (n, b+4, b+4)
        pair = g[:, :-2] + g[:, 2:]                  # vertical pass
        pair *= _K0
        t = g[:, 1:-1] * _K1
        t += pair
        pair = t[:, :, :-2] + t[:, :, 2:]            # horizontal pass
        pair *= _K0
        o = t[:, :, 1:-1] * _K1
        o += pair
        if scale != 1.0:
            o *= scale
        pad[(y0 + span[:-2])[:, :, None], (x0 + span[:-2])[:, None, :]] = o


def _blurred_canny(gray: np.ndarray, low: float, high: float,
                   scratch: _Scratch) -> np.ndarray:
    """``canny_edges(gaussian_blur(gray, 3), low, high)``, bit for bit,
    blurring only the blocks the screen reads.

    A blurred value is a convex combination ``C`` of a 3×3 gray window
    (weights summing to 1 within 3u, ``u = 2⁻⁵³``). With ``A =
    max|gray|``, the two passes' tap sums round within 3uA and 3.1uA and
    the weights' sum within 6.1uA, so ``f = fl(scale·blurred)`` is within
    13.3·scale·uA of ``scale·C`` (blurred within 12.2uA of ``C``). So:

    * a block's (b+2)² window of ``f`` spans at most ``scale·G +
      28u·scale·A``, ``G`` the gray range over the window two pixels
      wider, clipped (reflection repeats values inside it);
    * ``max|f| ≤ scale·A·(1+14u) ≤ fl(fl(scale·A)·(1+2⁻⁴⁰))``, the
      ``absmax`` used;
    * ``canny_edges``' rescale test ``max(blurred) <= 1+1e-9`` holds if
      ``fl(max(gray) + fl(2⁻⁴⁰·A)) <= 1+1e-9`` (a sum ≥ ``max(gray) +
      8190uA``) and fails if ``fl(m - fl(2⁻⁴⁰·A)) > 1+1e-9``, ``m`` the
      largest widened-window minimum (a block blurs from values ≥ m).

    Only the active blocks' windows of the screen's ``pad`` are blurred;
    the screen and the exact taps read no other pixel. If the bounds
    settle neither side of the rescale, or ``t`` leaves its safe range,
    the whole image is blurred as before.
    """
    gray, z = np.ascontiguousarray(gray), gray.shape[0]
    hi, lo = _block_extrema(gray, min(_SIDE, z & -z), 2)
    top, a = float(hi.max()), max(float(hi.max()), -float(lo.min()))
    slack = _SCREEN_SLACK * a
    scale = 255.0 if top + slack <= 1.0 + 1e-9 else \
        1.0 if float(lo.max()) - slack > 1.0 + 1e-9 else None
    absmax = scale * a * (1.0 + _SCREEN_SLACK) if scale else np.nan
    th = _threshold(low, absmax)
    if th is None:
        return _dense_canny(_blur3_exact(gray, scratch), low, high, scratch)
    blocks = np.nonzero((hi - lo) * scale >= th[1])
    pad = scratch.get("pad", (z + 2, z + 2))
    _blur_windows(gray, scale, pad, *blocks)
    return _sparse_canny(pad[1:-1, 1:-1], low, high, scratch, absmax, blocks)


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
            low, high = cfg.canny_low, cfg.canny_high
            if k == 3 and z >= 2 and cfg.criterion == "canny":
                out.append(_blurred_canny(gray, low, high, scratch))
                continue
            if k == 3 and z >= 2:
                blurred = _blur3_exact(gray, scratch)
            else:
                blurred = gaussian_blur(gray, k)
            if cfg.criterion == "canny":
                out.append(_dense_canny(blurred, low, high, scratch))
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
