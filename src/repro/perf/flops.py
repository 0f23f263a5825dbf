"""Analytic FLOP and memory models for transformers.

The whole-model counts drive the training cost model that projects
measured laptop-scale runs to the paper's Frontier scales (Table II/III
sec/image columns). They are the standard dense-transformer counts; the
important structural fact is the ``4 L^2 D`` attention term — quadratic
in sequence length — which is exactly what APF's sequence reduction
attacks. :func:`kernel_cost` is the per-step counterpart the kernel
profiler divides measured seconds into.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence, Tuple

__all__ = ["TransformerConfig", "encoder_flops", "attention_flops",
           "training_flops", "activation_bytes",
           "attention_memory_bytes", "kernel_cost"]


@dataclass(frozen=True)
class TransformerConfig:
    """Shape of a ViT-style encoder."""

    seq_len: int
    dim: int
    depth: int
    heads: int = 8
    mlp_ratio: float = 4.0

    def __post_init__(self) -> None:
        if min(self.seq_len, self.dim, self.depth, self.heads) < 1:
            raise ValueError("all transformer dimensions must be >= 1")


def attention_flops(seq_len: int, dim: int) -> float:
    """One attention block forward: QKV+output projections and the two
    ``L x L`` matmuls: ``8 L D^2 + 4 L^2 D``."""
    return 8.0 * seq_len * dim ** 2 + 4.0 * seq_len ** 2 * dim


def encoder_flops(cfg: TransformerConfig) -> float:
    """Forward FLOPs of the full encoder (attention + MLP per layer)."""
    mlp = 4.0 * cfg.mlp_ratio * cfg.seq_len * cfg.dim ** 2
    return cfg.depth * (attention_flops(cfg.seq_len, cfg.dim) + mlp)


def training_flops(cfg: TransformerConfig) -> float:
    """Training step ≈ 3x forward (forward + 2x backward)."""
    return 3.0 * encoder_flops(cfg)


def attention_memory_bytes(cfg: TransformerConfig, bytes_per_el: int = 4) -> float:
    """Attention matrices that must be materialized for the backward pass:
    ``depth * heads * L^2`` elements — the paper's memory wall."""
    return float(cfg.depth) * cfg.heads * cfg.seq_len ** 2 * bytes_per_el


def activation_bytes(cfg: TransformerConfig, bytes_per_el: int = 4) -> float:
    """Per-sample activation footprint: token activations + attention maps."""
    token_acts = cfg.depth * cfg.seq_len * cfg.dim * (4 + 2 * cfg.mlp_ratio)
    return token_acts * bytes_per_el + attention_memory_bytes(cfg, bytes_per_el)


def kernel_cost(op: str, in_shapes: Sequence[Tuple[int, ...]],
                out_shape: Optional[Tuple[int, ...]],
                itemsize: int = 8) -> Tuple[float, float]:
    """Analytic ``(flops, bytes_moved)`` for one compiled-executor step.

    This is the per-kernel counterpart of :func:`encoder_flops`: the
    compiler stamps each :class:`~repro.runtime.compile.ExecutionPlan`
    step with its estimate at compile time (shapes are static), and the
    kernel profiler divides measured seconds into it to report *achieved*
    GFLOP/s and GB/s per kernel — the roofline view of a plan.

    ``op`` is the plan step name (``sdpa``, ``linear_gelu``, ``matmul``,
    ``softmax``, ``reshape_copy``, …); ``in_shapes`` the operand shapes in
    step order; ``out_shape`` the output shape. Bytes are the naive
    streaming traffic (read every input once, write the output once) at
    ``itemsize`` bytes per element — fused kernels deliberately *don't*
    count their internal round trips, so achieved GB/s above the STREAM
    number is the fusion showing up. Counts follow the usual convention:
    a multiply-accumulate is 2 FLOPs, elementwise/normalization ops get
    small constant factors; unknown ops fall back to one FLOP per output
    element. Estimates, not measurements — good to the leading term.
    """
    out_n = float(prod(out_shape)) if out_shape else 0.0

    if op in ("matmul", "linear", "linear_gelu"):
        # out[..., M, N] = in0[..., M, K] @ in1[..., K, N]: 2*K per output.
        k = float(in_shapes[0][-1]) if in_shapes and in_shapes[0] else 0.0
        flops = 2.0 * out_n * k
        if op != "matmul":
            flops += out_n              # bias add
        if op == "linear_gelu":
            flops += 8.0 * out_n        # tanh-GELU polynomial + tanh
    elif op in ("sdpa", "sdpa_varlen"):
        # in_shapes = ((b, H, L, dh),): the b sequences of the call, each
        # attending at length L (a packed call counts its segments, never
        # the packed rows' R²). QK^T and S @ V are 2·dh each per score,
        # plus scale, bias and a 5-op softmax: b·H·L²·(4·dh + 7).
        # Bytes: q, k, v read and the context written.
        b, h, L, dh = in_shapes[0]
        return b * h * L * L * (4.0 * dh + 7.0), 4.0 * itemsize * out_n
    elif op == "softmax":
        flops = 5.0 * out_n
    elif op == "layer_norm":
        flops = 8.0 * out_n
    elif op.endswith("_copy"):
        flops = 0.0                     # pure data movement
    else:
        flops = out_n                   # elementwise default

    in_n = sum(float(prod(s)) for s in in_shapes if s is not None)
    nbytes = float(itemsize) * (in_n + out_n)
    return flops, nbytes
