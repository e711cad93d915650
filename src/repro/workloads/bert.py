"""BERT inference as a GEMM stream (Devlin et al., 2018).

Each encoder layer contributes the six attention GEMMs plus the two MLP GEMMs
(hidden -> 4*hidden -> hidden); layer norm, GELU and softmax are summarised as
element-wise work.  BERT-base (12 layers, hidden 768) and BERT-large
(24 layers, hidden 1024) configurations are provided; the paper does not state
which was used, so BERT-large with a 384-token sequence (a common SQuAD-style
inference setting) is the default.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gemm.precision import Precision
from repro.workloads.graph import Phase, PhaseKind, WorkloadGraph
from repro.workloads.layers import attention_gemms, elementwise_cost, linear_gemm


@dataclass(frozen=True)
class TransformerConfig:
    """Hyper-parameters of an encoder-style transformer."""

    name: str
    layers: int
    hidden: int
    heads: int
    intermediate: int

    def __post_init__(self) -> None:
        if self.hidden % self.heads:
            raise ValueError(f"{self.name}: hidden must be divisible by heads")


BERT_BASE = TransformerConfig("bert-base", layers=12, hidden=768, heads=12, intermediate=3072)
BERT_LARGE = TransformerConfig("bert-large", layers=24, hidden=1024, heads=16, intermediate=4096)


def encoder_layer_phase(
    config: TransformerConfig,
    batch: int,
    seq_len: int,
    precision: Precision = Precision.FP32,
    name: str = "encoder",
) -> Phase:
    """One encoder layer's GEMMs and tails, folded ``config.layers`` times.

    Every BERT encoder layer runs the same six attention GEMMs and two MLP
    GEMMs, so the whole stack is a single phase with ``repeat = layers``.
    """
    tokens = batch * seq_len
    shapes = tuple(
        attention_gemms(batch, seq_len, config.hidden, config.heads, precision)
        + [
            linear_gemm(tokens, config.hidden, config.intermediate, precision),
            linear_gemm(tokens, config.intermediate, config.hidden, precision),
        ]
    )
    # Softmax over attention logits + two layer norms + GELU over the MLP hidden.
    softmax_elements = batch * config.heads * seq_len * seq_len
    norm_elements = 2 * tokens * config.hidden
    gelu_elements = tokens * config.intermediate
    elementwise_flops = 0
    elementwise_bytes = 0
    for elements, flops_per in ((softmax_elements, 5.0), (norm_elements, 6.0), (gelu_elements, 8.0)):
        flops, bytes_touched = elementwise_cost(elements, flops_per, precision)
        elementwise_flops += flops
        elementwise_bytes += bytes_touched
    return Phase(
        name=name,
        kind=PhaseKind.PREFILL,
        shapes=shapes,
        non_gemm_flops=elementwise_flops,
        non_gemm_bytes=elementwise_bytes,
        repeat=config.layers,
    )


def bert_graph(
    config: TransformerConfig = BERT_LARGE,
    batch: int = 8,
    seq_len: int = 384,
    precision: Precision = Precision.FP32,
) -> WorkloadGraph:
    """BERT inference as a single-phase graph (the encoder stack, folded)."""
    if batch <= 0 or seq_len <= 0:
        raise ValueError("batch and sequence length must be positive")
    phase = encoder_layer_phase(config, batch, seq_len, precision)
    return WorkloadGraph(
        name=f"{config.name}-b{batch}-s{seq_len}",
        phases=[phase],
        params={"config": config.name, "batch": batch, "seq_len": seq_len,
                "precision": precision.value},
    )

