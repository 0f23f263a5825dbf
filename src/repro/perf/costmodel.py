"""α–β cost model projecting training time to cluster scale.

``seconds/image = training_flops / achieved_flops + allreduce(W) / imgs_per_step``

Data parallelism shards *images* across ranks, not the per-image work, so
per-image compute time does not divide by ``W`` — only the per-step gradient
all-reduce depends on world size (amortized over the images each rank
processes per step).

``achieved_flops`` is *calibrated* from a measured single-process run of this
repository's own transformer, so projections inherit the real constant factor
of the substrate; the paper-scale numbers in EXPERIMENTS.md are therefore
"shape-faithful" (who wins, by what factor) rather than absolute-time claims.
Defaults model a Frontier-like node: MI250X-class GPUs, 50 GB/s intra-node
fabric, 100 GB/s Slingshot between nodes (paper §IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass

from .flops import TransformerConfig, training_flops

__all__ = ["ClusterSpec", "CostModel"]


@dataclass
class ClusterSpec:
    """Hardware constants of the modeled machine."""

    #: Achieved training FLOP/s per GPU (calibratable; MI250X-class default).
    achieved_flops: float = 2.0e13
    #: Per-message latency of one collective step (seconds).
    alpha: float = 10e-6
    #: Inverse bandwidth of the GPU interconnect (seconds per byte).
    beta: float = 1.0 / 50e9
    #: GPUs per node; rings larger than a node pay the slower inter-node beta.
    gpus_per_node: int = 4
    #: Inverse bandwidth between nodes (Slingshot-11: 100 GB/s).
    beta_internode: float = 1.0 / 100e9

    def __post_init__(self) -> None:
        if self.achieved_flops <= 0 or self.alpha < 0 or self.beta <= 0:
            raise ValueError("invalid cluster constants")


class CostModel:
    """Projects per-image training time for data-parallel transformer runs."""

    def __init__(self, spec: ClusterSpec = None):
        self.spec = spec or ClusterSpec()

    # -- calibration -----------------------------------------------------
    def calibrate(self, cfg: TransformerConfig, measured_seconds_per_image: float,
                  batch: int = 1) -> float:
        """Fit ``achieved_flops`` so the model reproduces a measured run.

        Returns the fitted value (also stored on the spec).
        """
        if measured_seconds_per_image <= 0:
            raise ValueError("measured time must be positive")
        flops = training_flops(cfg)
        self.spec.achieved_flops = flops / measured_seconds_per_image
        return self.spec.achieved_flops

    # -- components ------------------------------------------------------
    def compute_seconds_per_image(self, cfg: TransformerConfig) -> float:
        """Pure compute time per image.

        Independent of world size: data parallelism shards the *dataset*
        across ranks, not the per-image work. (The former ``world_size``
        parameter was accepted, validated, and never used — it is gone; rank
        effects enter only through :meth:`allreduce_seconds`.)
        """
        return training_flops(cfg) / self.spec.achieved_flops

    def allreduce_seconds(self, nbytes: float, world_size: int) -> float:
        """Ring all-reduce time: ``2(W-1)/W * bytes * beta + 2(W-1) * alpha``.

        Rings spanning nodes pay the inter-node bandwidth.
        """
        if world_size <= 1:
            return 0.0
        w = world_size
        beta = (self.spec.beta if w <= self.spec.gpus_per_node
                else self.spec.beta_internode)
        return 2.0 * (w - 1) / w * nbytes * beta + 2.0 * (w - 1) * self.spec.alpha

    # -- headline projection ----------------------------------------------
    def seconds_per_image(self, cfg: TransformerConfig, world_size: int = 1,
                          param_bytes: float = 50e6,
                          images_per_rank_step: int = 1) -> float:
        """End-to-end training seconds per image at scale.

        Data parallelism divides *images* across ranks, so per-image compute
        time is unchanged but each rank only processes ``1/W`` of the
        dataset; the per-step all-reduce is amortized over the images each
        rank handles per step.
        """
        compute = self.compute_seconds_per_image(cfg)
        comm = self.allreduce_seconds(param_bytes, world_size) / max(
            images_per_rank_step, 1)
        return compute + comm

    def speedup(self, cfg_base: TransformerConfig, cfg_new: TransformerConfig,
                world_base: int = 1, world_new: int = 1,
                param_bytes: float = 50e6) -> float:
        """Ratio of projected sec/image: base over new (paper's speedup)."""
        t_base = self.seconds_per_image(cfg_base, world_base, param_bytes)
        t_new = self.seconds_per_image(cfg_new, world_new, param_bytes)
        return t_base / t_new
