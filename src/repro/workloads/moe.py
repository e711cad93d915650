"""Mixture-of-experts FFN as a phase-aware workload.

A sparse MoE transformer layer replaces the dense FFN with ``experts``
independent expert MLPs and a learned router that sends every token to its
``top_k`` best experts (Shazeer et al., 2017; Fedus et al., 2022).  From the
matrix engine's point of view each layer becomes:

* the usual dense attention GEMMs over all tokens;
* a skinny router GEMM (``tokens x experts``);
* one FFN GEMM pair per expert over its routed token subset — under the
  standard balanced-routing assumption each expert sees
  ``tokens * top_k / experts`` tokens (load-balancing losses exist precisely
  to make this assumption hold).

The expert GEMMs are many small identical shapes — a stress test for the
paper's address-prediction path, since each expert touches a different weight
region while the activations stay shared — so the graph keeps them as an
explicit MOE phase whose ``state_bytes`` records the resident expert weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gemm.precision import Precision
from repro.workloads.graph import Phase, PhaseKind, WorkloadGraph
from repro.workloads.layers import attention_gemms, elementwise_cost, linear_gemm

__all__ = [
    "MoEConfig",
    "balanced_routed_tokens",
    "moe_workload_graph",
]


def balanced_routed_tokens(tokens: int, top_k: int, experts: int) -> int:
    """Tokens each expert sees under the balanced-routing assumption.

    Every token goes to ``top_k`` experts, so ``tokens * top_k`` assignments
    spread over ``experts`` experts; the ceiling keeps degenerate shapes legal
    (an expert GEMM needs at least one row).
    """
    if tokens <= 0 or top_k <= 0 or experts <= 0:
        raise ValueError("tokens, top_k and experts must be positive")
    return max(1, math.ceil(tokens * top_k / experts))


@dataclass(frozen=True)
class MoEConfig:
    """Hyper-parameters of a sparse mixture-of-experts transformer."""

    name: str
    layers: int
    hidden: int
    heads: int
    intermediate: int
    experts: int
    top_k: int

    def __post_init__(self) -> None:
        if self.hidden % self.heads:
            raise ValueError(f"{self.name}: hidden must be divisible by heads")
        if self.experts <= 0:
            raise ValueError(f"{self.name}: expert count must be positive")
        if not 1 <= self.top_k <= self.experts:
            raise ValueError(f"{self.name}: top_k must be in 1..{self.experts}, got {self.top_k}")


def moe_workload_graph(
    experts: int = 8,
    top_k: int = 2,
    batch: int = 4,
    seq_len: int = 512,
    num_layers: int = 8,
    hidden: int = 1024,
    heads: int = 16,
    intermediate: int = 4096,
    precision: Precision = Precision.FP32,
) -> WorkloadGraph:
    """A sparse-MoE encoder pass as a two-phase graph per layer fold.

    Phase 1 (``attention``, folded over layers) is the dense attention GEMM
    set; phase 2 (``moe-ffn``) is the router GEMM plus ``experts`` identical
    FFN GEMM pairs over each expert's balanced token share.  Total expert
    FLOPs scale with ``top_k`` (tokens are processed ``top_k`` times), not
    with ``experts`` — adding experts shrinks each GEMM instead.
    """
    if batch <= 0 or seq_len <= 0 or num_layers <= 0:
        raise ValueError("batch, sequence length and layer count must be positive")
    config = MoEConfig(
        name=f"moe-{experts}x",
        layers=num_layers,
        hidden=hidden,
        heads=heads,
        intermediate=intermediate,
        experts=experts,
        top_k=top_k,
    )
    tokens = batch * seq_len

    attention_shapes = tuple(attention_gemms(batch, seq_len, hidden, heads, precision))
    softmax_elements = batch * heads * seq_len * seq_len
    norm_elements = 2 * tokens * hidden
    attn_flops, attn_bytes = elementwise_cost(softmax_elements, 5.0, precision)
    norm_flops, norm_bytes = elementwise_cost(norm_elements, 6.0, precision)
    attention_phase = Phase(
        name="attention",
        kind=PhaseKind.PREFILL,
        shapes=attention_shapes,
        non_gemm_flops=attn_flops + norm_flops,
        non_gemm_bytes=attn_bytes + norm_bytes,
        repeat=num_layers,
    )

    routed_tokens = balanced_routed_tokens(tokens, top_k, experts)
    expert_pair = [
        linear_gemm(routed_tokens, hidden, intermediate, precision),
        linear_gemm(routed_tokens, intermediate, hidden, precision),
    ]
    ffn_shapes = [linear_gemm(tokens, hidden, experts, precision)]  # router logits
    for _ in range(experts):
        ffn_shapes.extend(expert_pair)
    # The router's softmax/top-k over the expert logits, GELU over every routed
    # token's hidden activations, and the weighted combine of top_k outputs.
    router_flops, router_bytes = elementwise_cost(tokens * experts, 8.0, precision)
    gelu_flops, gelu_bytes = elementwise_cost(routed_tokens * experts * intermediate, 8.0, precision)
    combine_flops, combine_bytes = elementwise_cost(tokens * hidden * top_k, 2.0, precision)
    expert_weight_bytes = experts * 2 * hidden * intermediate * precision.bytes_per_element
    moe_phase = Phase(
        name="moe-ffn",
        kind=PhaseKind.MOE,
        shapes=tuple(ffn_shapes),
        non_gemm_flops=router_flops + gelu_flops + combine_flops,
        non_gemm_bytes=router_bytes + gelu_bytes + combine_bytes,
        repeat=num_layers,
        state_bytes=expert_weight_bytes,
    )

    return WorkloadGraph(
        name=f"{config.name}-top{top_k}-b{batch}-s{seq_len}-l{num_layers}",
        phases=[attention_phase, moe_phase],
        params={
            "experts": experts,
            "top_k": top_k,
            "batch": batch,
            "seq_len": seq_len,
            "layers": num_layers,
            "hidden": hidden,
            "heads": heads,
            "intermediate": intermediate,
            "precision": precision.value,
        },
    )
