"""Workload models (the DNN networks, the HPL ladder) and the phase-aware workload IR.

The Fig. 8 comparison runs ResNet-50, BERT and GPT-3 in FP32 inference; the
scenario catalog extends the set with LLM prefill/decode
(:mod:`repro.workloads.llm`), conv-only ResNet stages and mixture-of-experts
FFNs (:mod:`repro.workloads.moe`).  Every workload — these networks and the
HPL-style square-GEMM ladder alike — is a
:class:`~repro.workloads.graph.WorkloadGraph`: an ordered list of GEMM
phases with footprint/reuse/state metadata, whose
:meth:`~repro.workloads.graph.WorkloadGraph.layers` walk gives phase-blind
consumers the plain GEMM stream.
"""

from repro.workloads.layers import (
    LayerKind,
    LayerSpec,
    conv2d_gemm,
    linear_gemm,
    attention_gemms,
    elementwise_cost,
)
from repro.workloads.graph import Phase, PhaseKind, WorkloadGraph
from repro.workloads.resnet50 import resnet50_graph, RESNET50_LAYERS
from repro.workloads.bert import bert_graph, encoder_layer_phase, BERT_BASE, BERT_LARGE
from repro.workloads.gpt3 import gpt3_graph, GPT3_CONFIGS
from repro.workloads.llm import (
    LLAMA_CONFIGS,
    kv_cache_bytes,
    llm_decode_phases,
    llm_prefill_phase,
    llm_workload_graph,
)
from repro.workloads.moe import (
    MoEConfig,
    balanced_routed_tokens,
    moe_workload_graph,
)
from repro.workloads.registry import (
    WorkloadVariant,
    catalog_entry,
    describe_workload,
    dl_benchmark_suite,
    hpl_graph,
    workload_catalog,
    workload_graph_by_name,
    workload_names,
)

__all__ = [
    "LayerKind",
    "LayerSpec",
    "conv2d_gemm",
    "linear_gemm",
    "attention_gemms",
    "elementwise_cost",
    "Phase",
    "PhaseKind",
    "WorkloadGraph",
    "resnet50_graph",
    "RESNET50_LAYERS",
    "bert_graph",
    "encoder_layer_phase",
    "BERT_BASE",
    "BERT_LARGE",
    "gpt3_graph",
    "GPT3_CONFIGS",
    "LLAMA_CONFIGS",
    "kv_cache_bytes",
    "llm_decode_phases",
    "llm_prefill_phase",
    "llm_workload_graph",
    "MoEConfig",
    "balanced_routed_tokens",
    "moe_workload_graph",
    "WorkloadVariant",
    "catalog_entry",
    "describe_workload",
    "dl_benchmark_suite",
    "hpl_graph",
    "workload_catalog",
    "workload_graph_by_name",
    "workload_names",
]
