"""``repro.perf`` — FLOP/memory models, α–β cost model, equal-cost analysis,
serving capacity planning, process-memory tracking, and crash-safe benchmark
artifact I/O."""

from .artifacts import write_json_atomic
from .costmodel import ClusterSpec, CostModel
from .equivalence import (apf_length_curve, equal_cost_patch_size,
                          equivalent_sequence_gain)
from .flops import (TransformerConfig, activation_bytes, attention_flops,
                    attention_memory_bytes, encoder_flops, kernel_cost,
                    training_flops)
from .memory import TracedMemory, current_rss_bytes, peak_rss_bytes
from .serving import (batching_speedup_bound, engine_capacity,
                      fleet_capacity, fleet_scaling_bound, replicas_for_rate,
                      routing_imbalance, serial_capacity, utilization)

__all__ = [
    "TransformerConfig", "attention_flops", "encoder_flops", "training_flops",
    "activation_bytes", "attention_memory_bytes",
    "kernel_cost",
    "ClusterSpec", "CostModel",
    "apf_length_curve", "equal_cost_patch_size", "equivalent_sequence_gain",
    "write_json_atomic",
    "engine_capacity", "serial_capacity", "batching_speedup_bound",
    "utilization", "fleet_capacity", "fleet_scaling_bound",
    "replicas_for_rate", "routing_imbalance",
    "TracedMemory", "current_rss_bytes", "peak_rss_bytes",
]
