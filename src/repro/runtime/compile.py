"""Graph compilation: folding, fusion, liveness-planned buffers, execution.

:func:`compile_graph` lowers a traced :class:`~repro.runtime.trace.Graph`
into an :class:`ExecutionPlan` — a flat list of closures over concrete,
preallocated NumPy arrays:

1. **Dead-code elimination** — only nodes reachable from the output run.
2. **Constant folding** — ops whose operands are all trace-time constants
   (weight transposes, positional-table slices, coerced scalars) evaluate
   once at compile time. View kernels fold to *views*, so in-place weight
   updates stay visible to the plan.
3. **Fusion** — the transformer hot spots collapse into single steps:
   ``linear`` / ``linear_gelu`` (matmul + bias add + GELU in one buffer).
   Attention is already one kernel at trace time (``sdpa``, or per
   segment ``sdpa_varlen`` for packed inputs: QK^T → scale → bias →
   softmax in place on one scores buffer, then the value matmul), and
   LayerNorm runs as a single out= kernel.
4. **Liveness-based buffer reuse** — every op output draws from a
   (shape, dtype)-keyed pool; an operand's buffer returns to the pool at
   its last use, and elementwise ops whose dying input matches the output
   shape run fully in place. On a 1-CPU, bandwidth-bound host this — not
   FLOP reduction — is where the speedup lives.

Execution replays *exactly* the kernel arithmetic the eager tape ran
(``out=`` ufuncs produce identical bits), so a compiled forward is
bit-identical to the eager ``no_grad`` forward it was traced from.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter as _perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..nn import kernels as K
from ..perf.flops import kernel_cost
from .trace import VIEW_OPS, Graph, trace

__all__ = ["ExecutionPlan", "CompiledModel", "compile_graph", "compile_model"]

#: Kernels whose out= variant may alias an input buffer (elementwise, or
#: structured kernels written to tolerate out-aliasing — see kernels.py).
_INPLACE_SAFE = frozenset({
    "add", "sub", "mul", "div", "neg", "exp", "log", "sqrt", "tanh",
    "relu", "abs", "clip", "gelu", "softmax", "layer_norm",
})


class _BufferPool:
    """(shape, dtype)-keyed free list of plan-owned arrays."""

    def __init__(self) -> None:
        self._free: Dict[tuple, List[np.ndarray]] = {}
        self.allocated = 0
        self.reused = 0

    def get(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        key = (tuple(shape), np.dtype(dtype))
        free = self._free.get(key)
        if free:
            self.reused += 1
            return free.pop()
        self.allocated += 1
        return np.empty(key[0], dtype=key[1])

    def release(self, arr: np.ndarray) -> None:
        self._free.setdefault((arr.shape, arr.dtype), []).append(arr)


class ExecutionPlan:
    """A compiled graph: preallocated buffers + a flat step list.

    ``run(feeds)`` copies the feeds into fixed input buffers, fires each
    step, and returns the output array. The returned array is **owned by
    the plan** and overwritten by the next ``run`` — copy it to persist.
    """

    def __init__(self, signature: tuple) -> None:
        self.signature = signature
        self._steps: List[Tuple[str, Callable[[], None]]] = []
        self._step_meta: List[Optional[dict]] = []
        self._input_bufs: Dict[str, np.ndarray] = {}
        self._out: Optional[np.ndarray] = None
        self._scratch: Dict[tuple, np.ndarray] = {}
        self.stats: Dict[str, int] = {}
        #: Optional ``hook(step_name, seconds, meta)`` — when set, ``run``
        #: times each step (``perf_counter``) and reports it with the
        #: compile-time FLOP/byte estimate stamped on the step. ``None``
        #: (the default) keeps the untimed loop: the hot path pays one
        #: attribute load per ``run``, nothing per step.
        self.profile_hook: Optional[Callable[[str, float, Optional[dict]],
                                             None]] = None

    # -- build-time helpers (used by compile_graph) ----------------------
    def scratch(self, shape, dtype, tag: str = "") -> np.ndarray:
        """Persistent scratch: the first ``shape[0]`` entries of one array
        per (tag, trailing shape, dtype), grown to the largest request.
        A kernel call uses at most one scratch per tag and trailing shape."""
        key = (tag, tuple(shape[1:]), np.dtype(dtype))
        buf = self._scratch.get(key)
        if buf is None or len(buf) < shape[0]:
            buf = self._scratch[key] = np.empty(tuple(shape), dtype)
        return buf[:shape[0]]

    def add_step(self, name: str, fn: Callable[[], None],
                 meta: Optional[dict] = None) -> None:
        self._steps.append((name, fn))
        self._step_meta.append(meta)

    # -- run time --------------------------------------------------------
    def run(self, feeds: Dict[str, np.ndarray]) -> np.ndarray:
        bufs = self._input_bufs
        if len(feeds) != len(bufs):
            raise ValueError(f"plan expects inputs {sorted(bufs)}, "
                             f"got {sorted(feeds)}")
        for name, buf in bufs.items():
            np.copyto(buf, feeds[name], casting="no")
        hook = self.profile_hook
        if hook is None:
            for _, step in self._steps:
                step()
        else:
            meta = self._step_meta
            timer = _perf_counter
            for i, (name, step) in enumerate(self._steps):
                t0 = timer()
                step()
                hook(name, timer() - t0, meta[i])
        return self._out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExecutionPlan({len(self._steps)} steps, {self.stats})"


def _check_linear(nodes, const, cons, single, i):
    """Match matmul → const-bias add [→ gelu] at matmul ``i``.
    Returns (members, bias_idx, bias_first, fuse_gelu)."""
    mm = nodes[i]
    if not single(i):
        return None
    j = cons[i][0]
    add = nodes[j]
    if add.op != "add" or add.shape != mm.shape or add.dtype != mm.dtype:
        return None
    others = [x for x in add.inputs if x != i]
    if len(others) != 1 or others[0] not in const:
        return None
    bias_idx = others[0]
    members = [i, j]
    fuse_gelu = False
    if single(j):
        k2 = cons[j][0]
        g = nodes[k2]
        if g.op == "gelu" and g.shape == add.shape and g.dtype == add.dtype:
            members.append(k2)
            fuse_gelu = True
    return members, bias_idx, add.inputs[0] == bias_idx, fuse_gelu


def compile_graph(graph: Graph) -> ExecutionPlan:
    """Lower a traced graph into a bound, buffer-planned execution plan."""
    nodes = graph.nodes

    # -- 1. reachability --------------------------------------------------
    live = set()
    stack = [graph.output]
    while stack:
        i = stack.pop()
        if i in live:
            continue
        live.add(i)
        stack.extend(nodes[i].inputs)

    # -- 2. constant folding ----------------------------------------------
    const: Dict[int, np.ndarray] = {}
    for n in nodes:
        if n.idx not in live:
            continue
        if n.op == "const":
            const[n.idx] = n.array
        elif n.op != "input" and all(i in const for i in n.inputs):
            const[n.idx] = K.KERNELS[n.op].fn(
                n.params, *[const[i] for i in n.inputs])

    # -- consumer map over live, unfolded nodes ---------------------------
    cons: Dict[int, List[int]] = {}
    for n in nodes:
        if n.idx in live and n.idx not in const and n.op not in ("input",):
            for i in n.inputs:
                cons.setdefault(i, []).append(n.idx)

    def single(i: int) -> bool:
        return len(cons.get(i, ())) == 1 and i != graph.output

    # -- 3. fusion grouping -----------------------------------------------
    # groups: anchor idx -> ("kind", payload); fused interiors are skipped.
    groups: Dict[int, tuple] = {}
    interior = set()
    for n in nodes:
        i = n.idx
        if i not in live or i in const or i in interior \
                or n.op in ("input", "const"):
            continue
        if n.op == "matmul":
            m = _check_linear(nodes, const, cons, single, i)
            if m is not None:
                members, bias_idx, bias_first, fuse_gelu = m
                groups[i] = ("linear", members, bias_idx, bias_first, fuse_gelu)
                interior.update(members[1:])
                continue
        groups[i] = ("node", [i])

    # -- 4. liveness over groups ------------------------------------------
    def find_root(i: int) -> int:
        while nodes[i].op in VIEW_OPS and i not in const:
            i = nodes[i].inputs[0]
        return i

    uses: Counter = Counter()
    ordered_anchors = sorted(groups)
    ext_roots: Dict[int, set] = {}
    for a in ordered_anchors:
        kind, members = groups[a][0], groups[a][1]
        memberset = set(members)
        roots = set()
        for m in members:
            for i in nodes[m].inputs:
                if i not in memberset:
                    roots.add(find_root(i))
        ext_roots[a] = roots
        for r in roots:
            uses[r] += 1
    uses[find_root(graph.output)] += 1           # never released

    # -- 5. bind + emit ----------------------------------------------------
    plan = ExecutionPlan(graph.signature)
    pool = _BufferPool()
    bound: Dict[int, np.ndarray] = {}
    ownerbuf: Dict[int, Optional[np.ndarray]] = {}
    fused_linear = fused_sdpa = inplace_ops = 0

    for name, i in graph.inputs.items():
        n = nodes[i]
        buf = np.empty(n.shape, dtype=n.dtype)
        plan._input_bufs[name] = buf
        bound[i] = buf
        ownerbuf[i] = None

    def arr(i: int) -> np.ndarray:
        if i in const:
            return const[i]
        return bound[i]

    def emit_view(n) -> bool:
        """Bind a view node statically; False if it needs a runtime copy."""
        parent = arr(n.inputs[0])
        view = K.KERNELS[n.op].fn(n.params, parent)
        if view.base is not None and np.shares_memory(view, parent):
            bound[n.idx] = view
            ownerbuf[n.idx] = None      # lifetime tracked via find_root
            return True
        return False

    def release_roots(anchor: int, keep: set) -> None:
        for r in ext_roots[anchor]:
            uses[r] -= 1
            buf = ownerbuf.get(r)
            if uses[r] == 0 and buf is not None and id(buf) not in keep:
                pool.release(buf)

    def cost_meta(op, in_arrays, out_shape, dtype):
        """Compile-time FLOP/byte stamp consumed by the profile hook."""
        flops, nbytes = kernel_cost(op, [x.shape for x in in_arrays],
                                    tuple(out_shape),
                                    np.dtype(dtype).itemsize)
        return {"flops": flops, "bytes": nbytes}

    sc = plan.scratch
    for a in ordered_anchors:
        spec = groups[a]
        kind = spec[0]
        n = nodes[a]
        keep: set = set()

        if kind == "linear":
            _, members, bias_idx, bias_first, fuse_gelu = spec
            mm = nodes[members[0]]
            out_node = nodes[members[-1]]
            x, w = arr(mm.inputs[0]), arr(mm.inputs[1])
            bias = const[bias_idx]
            out = pool.get(out_node.shape, out_node.dtype)

            if fuse_gelu:
                def run(x=x, w=w, bias=bias, out=out, bias_first=bias_first):
                    np.matmul(x, w, out=out)
                    if bias_first:
                        np.add(bias, out, out=out)
                    else:
                        np.add(out, bias, out=out)
                    K._gelu_out((), out, sc, out)
            else:
                def run(x=x, w=w, bias=bias, out=out, bias_first=bias_first):
                    np.matmul(x, w, out=out)
                    if bias_first:
                        np.add(bias, out, out=out)
                    else:
                        np.add(out, bias, out=out)

            lin_op = "linear_gelu" if fuse_gelu else "linear"
            plan.add_step(lin_op, run,
                          cost_meta(lin_op, [x, w, bias],
                                    out_node.shape, out_node.dtype))
            out_idx = members[-1]
            bound[out_idx] = out
            ownerbuf[out_idx] = out
            keep.add(id(out))
            release_roots(a, keep)
            fused_linear += 1
            continue

        # -- single node ---------------------------------------------------
        if n.op in VIEW_OPS and emit_view(n):
            # Pure view: no step; defer liveness to downstream consumers.
            release_roots(a, keep={id(ownerbuf.get(find_root(n.idx)))})
            continue

        kernel = K.KERNELS[n.op]
        ins = [arr(i) for i in n.inputs]

        if n.op in VIEW_OPS:
            # Non-viewable reshape / advanced getitem: runtime copy.
            out = pool.get(n.shape, n.dtype)
            if n.op == "reshape":
                src = ins[0]
                ov = out.reshape(src.shape)

                def run(ov=ov, src=src):
                    np.copyto(ov, src)
            else:
                def run(out=out, kernel=kernel, params=n.params, ins=ins):
                    np.copyto(out, kernel.fn(params, *ins))
            plan.add_step(f"{n.op}_copy", run,
                          cost_meta(f"{n.op}_copy", ins, n.shape, n.dtype))
        else:
            # In-place: reuse a dying, shape/dtype-matched operand buffer.
            out = None
            if n.op in _INPLACE_SAFE and kernel.fn_out is not None:
                for i in n.inputs:
                    r = find_root(i)
                    buf = ownerbuf.get(r)
                    if (buf is not None and uses[r] == 1
                            and bound[i] is buf
                            and buf.shape == n.shape
                            and buf.dtype == n.dtype):
                        out = buf
                        inplace_ops += 1
                        break
            if out is None:
                out = pool.get(n.shape, n.dtype)
            name, meta = n.op, None
            if n.op in ("sdpa", "sdpa_varlen"):
                # Attention is one fused step named "sdpa". It costs
                # b·H·L² for its b segments, so a packed step re-stamps
                # its cost per run when profiled.
                name, meta = "sdpa", {"flops": 0.0, "bytes": 0.0}
                fused_sdpa += 1
                packed = n.op == "sdpa_varlen"

                def stamp(meta=meta, ins=ins, h=n.params[0], out=out,
                          packed=packed):
                    b, L, dim = out.shape
                    if packed:
                        b = len(K.varlen_segments(ins[-1]))
                    meta["flops"], meta["bytes"] = kernel_cost(
                        "sdpa", [(b, h, L, dim // h)], out.shape,
                        out.itemsize)

                if not packed:              # input buffers unset yet
                    stamp()

                def run(out=out, kernel=kernel, params=n.params, ins=ins,
                        stamp=stamp, packed=packed):
                    kernel.fn_out(params, out, sc, *ins)
                    if packed and plan.profile_hook is not None:
                        stamp()
            elif kernel.fn_out is not None:
                def run(out=out, kernel=kernel, params=n.params, ins=ins):
                    kernel.fn_out(params, out, sc, *ins)
            else:
                def run(out=out, kernel=kernel, params=n.params, ins=ins):
                    np.copyto(out, kernel.fn(params, *ins))
            if meta is None:
                meta = cost_meta(n.op, ins, n.shape, n.dtype)
            plan.add_step(name, run, meta)

        bound[n.idx] = out
        ownerbuf[n.idx] = out
        keep.add(id(out))
        release_roots(a, keep)

    plan._out = arr(graph.output)
    plan.stats = {
        "steps": len(plan._steps),
        "fused_linear": fused_linear,
        "fused_sdpa": fused_sdpa,
        "inplace": inplace_ops,
        "buffers": pool.allocated,
        "buffer_reuse": pool.reused,
    }
    return plan


class CompiledModel:
    """A model bound to one compiled plan (one input signature).

    Calling it mirrors ``model.forward(tokens, coords, valid)`` but runs
    the plan; the returned logits array is plan-owned (overwritten by the
    next call).
    """

    def __init__(self, model, graph: Graph, plan: ExecutionPlan):
        self.model = model
        self.graph = graph
        self.plan = plan

    def __call__(self, tokens: np.ndarray, coords=None, valid=None,
                 **packed) -> np.ndarray:
        feeds = self.model.prepare_inputs(tokens, coords, valid, **packed)
        return self.plan.run(feeds)


def compile_model(model, tokens: np.ndarray, coords=None, valid=None,
                  **packed) -> CompiledModel:
    """Trace ``model.forward_core`` on example inputs and compile it.

    The model must expose the shape-stable split (``prepare_inputs`` /
    ``forward_core``) — ViTSegmenter, VolumeViTSegmenter, ViTClassifier and
    ViTBackbone do — and should be in ``eval()`` mode (tracing stochastic
    dropout raises). One plan serves every batch with the same input
    signature (shapes + dtypes + presence of coords/valid). ``packed``
    (``segments=``) compiles the packed form, whose signature depends on
    the (rows, width) shape alone: any segment layout runs through it.
    """
    feeds = model.prepare_inputs(tokens, coords, valid, **packed)
    graph = trace(model.forward_core, feeds)
    plan = compile_graph(graph)
    return CompiledModel(model, graph, plan)
