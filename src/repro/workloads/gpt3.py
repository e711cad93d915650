"""GPT-3 inference as a GEMM stream (Brown et al., NeurIPS 2020).

Running the full 175-billion-parameter GPT-3 is outside what a 16-node MACO
evaluates; the paper necessarily benchmarks a truncated/proxy configuration
(it reports ~1.1 TFLOPS on the workload, i.e. a few tens of milliseconds of
work).  The reproduction therefore models GPT-3-style decoder layers with the
published hidden sizes and exposes the layer count so experiments can pick a
proxy depth; the default uses the GPT-3 2.7B configuration (hidden 2560,
32 layers), whose large square-ish GEMMs are what give Fig. 8 its biggest
bars.  The prompt-processing (prefill) phase is modelled, which is the
GEMM-dominant phase relevant to a matrix engine.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.gemm.precision import Precision
from repro.workloads.bert import TransformerConfig, encoder_layer_phase
from repro.workloads.graph import WorkloadGraph
from repro.workloads.llm import kv_cache_bytes

#: Published GPT-3 model family configurations (Brown et al., Table 2.1).
GPT3_CONFIGS: Dict[str, TransformerConfig] = {
    "gpt3-small": TransformerConfig("gpt3-small", layers=12, hidden=768, heads=12, intermediate=3072),
    "gpt3-medium": TransformerConfig("gpt3-medium", layers=24, hidden=1024, heads=16, intermediate=4096),
    "gpt3-large": TransformerConfig("gpt3-large", layers=24, hidden=1536, heads=16, intermediate=6144),
    # GPT-3 XL's published head count (24) does not divide its hidden size; the
    # model here uses 16 heads so head_dim stays integral.
    "gpt3-xl": TransformerConfig("gpt3-xl", layers=24, hidden=2048, heads=16, intermediate=8192),
    "gpt3-2.7b": TransformerConfig("gpt3-2.7b", layers=32, hidden=2560, heads=32, intermediate=10240),
    "gpt3-6.7b": TransformerConfig("gpt3-6.7b", layers=32, hidden=4096, heads=32, intermediate=16384),
    "gpt3-175b": TransformerConfig("gpt3-175b", layers=96, hidden=12288, heads=96, intermediate=49152),
}


def gpt3_graph(
    variant: str = "gpt3-2.7b",
    batch: int = 4,
    seq_len: int = 1024,
    num_layers: int | None = None,
    precision: Precision = Precision.FP32,
) -> WorkloadGraph:
    """GPT-3 prompt processing as a single PREFILL phase graph.

    ``num_layers`` overrides the variant's depth (useful for a fixed-work proxy);
    attention is causal but the GEMM shapes are the same as full attention, which
    is how matrix engines execute the prefill phase.  ``state_bytes`` carries
    the KV cache the prefill leaves behind for a subsequent decode.
    """
    if variant not in GPT3_CONFIGS:
        raise ValueError(f"unknown GPT-3 variant {variant!r}; options: {sorted(GPT3_CONFIGS)}")
    if batch <= 0 or seq_len <= 0:
        raise ValueError("batch and sequence length must be positive")
    config = GPT3_CONFIGS[variant]
    layers = num_layers if num_layers is not None else config.layers
    if layers <= 0:
        raise ValueError("layer count must be positive")
    proxy = replace(config, layers=layers)
    base = encoder_layer_phase(proxy, batch, seq_len, precision, name=f"prefill[{seq_len}]")
    # The prefill leaves a KV cache behind for a subsequent decode.
    phase = replace(base, state_bytes=kv_cache_bytes(proxy, batch, seq_len, layers, precision))
    return WorkloadGraph(
        name=f"{config.name}-b{batch}-s{seq_len}-l{layers}",
        phases=[phase],
        params={"variant": config.name, "batch": batch, "seq_len": seq_len,
                "layers": layers, "precision": precision.value},
    )

