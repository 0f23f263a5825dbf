"""The kernel dispatch table — one source of numerical truth.

Every forward computation in the autograd engine (:mod:`repro.nn.tensor`,
:mod:`repro.nn.functional`) routes through the kernels registered here, and
the compiled executor (:mod:`repro.runtime`) replays the *same* kernel
functions over a static graph. Because both paths call identical NumPy
expressions on identical values, compiled inference is bit-identical to the
eager ``no_grad`` forward by construction — the same discipline the batched
patchers use against their per-image references.

Each :class:`Kernel` carries up to two implementations:

``fn(params, *inputs)``
    The allocating reference forward. This is what eager mode calls.
``fn_out(params, out, scratch, *inputs)``
    An optional destination-passing variant used by the compiled executor:
    it writes the result into a preallocated ``out`` buffer
    (``scratch(shape, dtype, tag="")`` hands out buffers for large
    intermediates: the plan's persistent ones when compiled, fresh ones
    for an eager call). Implementations must replay
    the exact ufunc arithmetic of ``fn`` — NumPy ufuncs produce identical
    bits with and without ``out=`` — so buffer reuse never changes a value.

Kernels flagged ``view=True`` return NumPy views (reshape / transpose /
basic slicing); the planner resolves them statically instead of scheduling
work.

The module also hosts the **trace hook**: a thread-local tracer that, when
armed by :func:`repro.runtime.trace`, is notified of every op the tape
executes. Keeping the hook here (dependency-free) lets ``tensor.py`` and
``runtime`` share it without circular imports.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, Optional

import numpy as np

__all__ = ["Kernel", "KERNELS", "register", "forward", "record",
           "set_tracer", "tracing"]


class Kernel:
    """A named forward computation with an optional ``out=`` variant."""

    __slots__ = ("name", "fn", "fn_out", "view")

    def __init__(self, name: str, fn: Callable,
                 fn_out: Optional[Callable] = None, view: bool = False):
        self.name = name
        self.fn = fn
        self.fn_out = fn_out
        self.view = view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Kernel({self.name!r}, out={self.fn_out is not None})"


#: The dispatch table. Op name -> Kernel.
KERNELS: Dict[str, Kernel] = {}


def register(name: str, fn: Callable, fn_out: Optional[Callable] = None,
             view: bool = False) -> Kernel:
    """Register a kernel under ``name`` (last registration wins)."""
    k = Kernel(name, fn, fn_out, view)
    KERNELS[name] = k
    return k


def forward(name: str, params, *inputs) -> np.ndarray:
    """Run the reference (allocating) forward of kernel ``name``."""
    return KERNELS[name].fn(params, *inputs)


# ----------------------------------------------------------------------
# trace hook
# ----------------------------------------------------------------------

class _TraceState(threading.local):
    tracer = None


_trace_state = _TraceState()


def set_tracer(tracer):
    """Arm (or disarm, with ``None``) the op tracer for this thread.

    Returns the previously armed tracer so callers can restore it.
    """
    prev = _trace_state.tracer
    _trace_state.tracer = tracer
    return prev


def tracing() -> bool:
    """True when a tracer is armed in this thread."""
    return _trace_state.tracer is not None


def record(name: str, params, inputs, out) -> None:
    """Notify the armed tracer (if any) that an op just executed.

    ``inputs`` are the operand Tensors (post-coercion), ``out`` the result
    Tensor. No-op when tracing is off — the hot-path cost is one attribute
    load and a falsy check.
    """
    tracer = _trace_state.tracer
    if tracer is not None:
        tracer.record(name, params, inputs, out)


# ----------------------------------------------------------------------
# elementwise arithmetic
# ----------------------------------------------------------------------

register("add", lambda p, a, b: a + b,
         lambda p, out, sc, a, b: np.add(a, b, out=out))
register("sub", lambda p, a, b: a - b,
         lambda p, out, sc, a, b: np.subtract(a, b, out=out))
register("neg", lambda p, a: -a,
         lambda p, out, sc, a: np.negative(a, out=out))
register("mul", lambda p, a, b: a * b,
         lambda p, out, sc, a, b: np.multiply(a, b, out=out))
register("div", lambda p, a, b: a / b,
         lambda p, out, sc, a, b: np.divide(a, b, out=out))
# ndarray.__pow__ special-cases small scalar exponents (2 -> square, 0.5 ->
# sqrt, ...); keep the operator expression so bits match eager exactly.
register("pow", lambda p, a: a ** p[0])
register("abs", lambda p, a: np.abs(a),
         lambda p, out, sc, a: np.abs(a, out=out))
register("clip", lambda p, a: np.clip(a, p[0], p[1]),
         lambda p, out, sc, a: np.clip(a, p[0], p[1], out=out))


# ----------------------------------------------------------------------
# transcendental / nonlinearities
# ----------------------------------------------------------------------

register("exp", lambda p, a: np.exp(a),
         lambda p, out, sc, a: np.exp(a, out=out))
register("log", lambda p, a: np.log(a),
         lambda p, out, sc, a: np.log(a, out=out))
register("sqrt", lambda p, a: np.sqrt(a),
         lambda p, out, sc, a: np.sqrt(a, out=out))
register("tanh", lambda p, a: np.tanh(a),
         lambda p, out, sc, a: np.tanh(a, out=out))


def _sigmoid(p, x):
    """Numerically stable logistic (moved verbatim from ``Tensor.sigmoid``)."""
    val = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.clip(x, None, 88.0))),
                   np.exp(np.clip(x, -88.0, None))
                   / (1.0 + np.exp(np.clip(x, -88.0, None))))
    return val.astype(x.dtype, copy=False)


register("sigmoid", _sigmoid)


def _relu(p, x):
    return x * (x > 0)


def _relu_out(p, out, sc, x):
    return np.multiply(x, x > 0, out=out)


register("relu", _relu, _relu_out)


def _gelu_constants(x: np.ndarray):
    """(c, t) pieces shared by the gelu forward and its tape backward.

    The cube is ``x * x * x`` — ``x ** 3`` falls through numpy's scalar-power
    fast paths into a per-element libm ``pow`` an order of magnitude slower.
    """
    c = x.dtype.type(np.sqrt(2.0 / np.pi))
    t = np.tanh(c * (x + 0.044715 * (x * x * x)))
    return c, t


def _gelu(p, x):
    _, t = _gelu_constants(x)
    return (0.5 * x * (1.0 + t)).astype(x.dtype, copy=False)


def _gelu_out(p, out, sc, x):
    """In-buffer GELU replaying the reference expression term by term.

    Reference: ``t = tanh(c * (x + 0.044715 * x**3)); 0.5 * x * (1 + t)``.
    Every step below is the same ufunc on the same values, so the result is
    bit-identical; ``s`` holds the tanh argument / (1 + t) chain.
    """
    c = x.dtype.type(np.sqrt(2.0 / np.pi))
    s = sc(x.shape, x.dtype)
    np.multiply(x, x, out=s)
    np.multiply(s, x, out=s)
    np.multiply(s, x.dtype.type(0.044715), out=s)
    np.add(x, s, out=s)
    np.multiply(s, c, out=s)
    np.tanh(s, out=s)
    np.add(s, x.dtype.type(1.0), out=s)
    np.multiply(x, x.dtype.type(0.5), out=out)
    np.multiply(out, s, out=out)
    return out


register("gelu", _gelu, _gelu_out)


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------

register("sum", lambda p, a: a.sum(axis=p[0], keepdims=p[1]),
         lambda p, out, sc, a: np.sum(a, axis=p[0], keepdims=p[1], out=out))


def _max(p, a):
    axis, keepdims = p
    val = a.max(axis=axis, keepdims=True)
    if keepdims:
        return val
    return (np.squeeze(val, axis=axis) if axis is not None
            else val.reshape(()))


register("max", _max)


# ----------------------------------------------------------------------
# shape ops (views)
# ----------------------------------------------------------------------

register("reshape", lambda p, a: a.reshape(p[0]), view=True)
register("transpose", lambda p, a: a.transpose(p[0]), view=True)
register("getitem", lambda p, a: a[p[0]], view=True)
register("astype", lambda p, a: a.astype(p[0]))


# ----------------------------------------------------------------------
# linear algebra / combinators
# ----------------------------------------------------------------------

register("matmul", lambda p, a, b: a @ b,
         lambda p, out, sc, a, b: np.matmul(a, b, out=out))
register("concat", lambda p, *xs: np.concatenate(xs, axis=p[0]))
# Row lookup by an index feed (packed positional ids). Feeds are float
# Tensors, so the integer-valued indices are cast back here.
register("gather", lambda p, a, idx: a[idx.astype(np.intp)],
         lambda p, out, sc, a, idx: np.take(a, idx.astype(np.intp), axis=0,
                                            out=out))
register("stack", lambda p, *xs: np.stack(xs, axis=p[0]))


# ----------------------------------------------------------------------
# structured NN ops
# ----------------------------------------------------------------------

def _softmax(p, x):
    shifted = x - x.max(axis=p[0], keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=p[0], keepdims=True)


def _softmax_out(p, out, sc, x):
    """Softmax into ``out`` (which may alias ``x``): subtract-max, exp and
    normalize are the reference ufuncs with destinations supplied."""
    axis = p[0]
    m = x.max(axis=axis, keepdims=True)
    np.subtract(x, m, out=out)
    np.exp(out, out=out)
    s = out.sum(axis=axis, keepdims=True)
    np.divide(out, s, out=out)
    return out


register("softmax", _softmax, _softmax_out)


def _log_softmax(p, x):
    shifted = x - x.max(axis=p[0], keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=p[0], keepdims=True))
    return shifted - lse


register("log_softmax", _log_softmax)


def _layer_norm_stats(x: np.ndarray, eps: float):
    """(xhat, inv) shared by the forward value and the tape backward."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return xc * inv, inv


def _layer_norm(p, x, w, b):
    xhat, _ = _layer_norm_stats(x, p[0])
    return xhat * w + b


def _layer_norm_out(p, out, sc, x, w, b):
    """LayerNorm into ``out`` with one full-size scratch for the xc² pass.

    Per-row statistics (mu/var/inv) are tiny and allocated normally; only
    the two (B, L, D) temporaries are buffered. Same ufuncs, same order.
    """
    eps = p[0]
    mu = x.mean(axis=-1, keepdims=True)
    np.subtract(x, mu, out=out)             # xc
    s = sc(x.shape, out.dtype)
    np.multiply(out, out, out=s)            # xc * xc
    var = s.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    np.multiply(out, inv, out=out)          # xhat
    np.multiply(out, w, out=out)
    np.add(out, b, out=out)
    return out


register("layer_norm", _layer_norm, _layer_norm_out)


def _fresh(shape, dtype, tag: str = "") -> np.ndarray:
    """Scratch for an eager call: a new array each time (the compiled
    executor passes :meth:`repro.runtime.ExecutionPlan.scratch` instead)."""
    return np.empty(shape, dtype)


def varlen_segments(segments: np.ndarray) -> np.ndarray:
    """The ``(start, length)`` int rows of a packed ``segments`` feed
    (float-coded; zero-length rows are unused)."""
    seg = segments.astype(np.intp)
    return seg[seg[:, 1] > 0]


def _sdpa_out(p, out, sc, q, k, v, bias):
    """Multi-head attention of a padded (B, L, D) batch into ``out``: the
    ufuncs of the autograd chain in ``MultiHeadAttention`` (matmul, scale,
    additive bias, softmax, matmul), in place on scratch from ``sc``."""
    heads = p[0]
    b, L, dim = q.shape
    dh = dim // heads
    qh, kh, vh = (x.reshape(b, L, heads, dh).transpose(0, 2, 1, 3)
                  for x in (q, k, v))
    S = sc((b, heads, L, L), q.dtype, "scores")
    C = sc((b, heads, L, dh), q.dtype, "context")
    np.matmul(qh, kh.transpose(0, 1, 3, 2), out=S)
    np.multiply(S, q.dtype.type(1.0 / math.sqrt(dh)), out=S)
    np.add(S, bias, out=S)
    _softmax_out((-1,), S, sc, S)
    np.matmul(S, vh, out=C)
    out.reshape(b, L, heads, dh)[...] = C.transpose(0, 2, 1, 3)
    return out


def _sdpa_varlen_out(p, out, sc, q, k, v, bias, segments):
    """Attention within each packed segment, never across segments.

    ``q``/``k``/``v``/``bias`` are (rows, L, ...) as for ``sdpa``, with
    tokens addressed flat by the ``segments`` rows. Every segment attends
    at the row width L: the segments gather into a zero-padded (b, L, D)
    batch — the batch the unpacked model runs — for ``sdpa``, and their
    real tokens scatter back (filler comes out zero). Padding keys get
    exactly zero weight, so no segment sees another's values. A pack whose
    segments each start a row *is* that padded batch (plus filler rows)
    and runs in place.
    """
    rows, L, dim = q.shape
    seg = varlen_segments(segments)
    b = len(seg)
    if (seg[:, 0] == np.arange(b) * L).all():
        out[b:] = 0
        _sdpa_out(p, out[:b], sc, q[:b], k[:b], v[:b], bias[:b])
        return out
    q, k, v, flat = (x.reshape(-1, dim) for x in (q, k, v, out))
    bias = bias.reshape(-1)
    qs, ks, vs, ctx = (sc((b, L, dim), q.dtype, t) for t in "qkvo")
    bs = sc((b, 1, 1, L), q.dtype, "bias")
    for j, (s, n) in enumerate(seg):
        for dst, src in ((qs, q), (ks, k), (vs, v)):
            dst[j, :n] = src[s:s + n]
            dst[j, n:] = 0
        bs[j, 0, 0, :n] = bias[s:s + n]
        bs[j, 0, 0, n:] = -1e9
    _sdpa_out(p, ctx, sc, qs, ks, vs, bs)
    flat.fill(0)
    for j, (s, n) in enumerate(seg):
        flat[s:s + n] = ctx[j, :n]
    return out


for _name, _out in (("sdpa", _sdpa_out), ("sdpa_varlen", _sdpa_varlen_out)):
    register(_name, lambda p, *xs, f=_out: f(p, np.empty_like(xs[0]), _fresh,
                                             *xs), _out)
