"""MACO core: configuration, compute nodes, the full system, mapping and runtime.

This package is the paper's primary contribution assembled from the substrate
packages.  Typical entry points:

* :func:`maco_default_config` / :class:`MACOConfig` — configure a system;
* :class:`MACOSystem` — run partitioned GEMMs and DL workloads;
* :class:`MACORuntime` — the NumPy-level software API over MPAIS;
* :mod:`repro.core.perf` — the per-node performance model used by the sweeps;
* :class:`SweepRunner` / :class:`DesignSpaceExplorer` — the Fig. 6/7 sweeps
  and cached design-space campaigns (``repro.cli explore``);
* :mod:`repro.serve` builds on all of the above for multi-tenant serving
  scenarios (``repro.cli serve``).
"""

from repro.core.config import (
    CPUConfig,
    MMAEConfig,
    MemoryConfig,
    MACOConfig,
    maco_default_config,
)
from repro.core.compute_node import ComputeNode, GEMMSubmission
from repro.core.maco import MACOSystem
from repro.core.mapping import (
    MappingPlan,
    NodeAssignment,
    GemmPlusSchedule,
    layer_stream_seconds,
    partition_gemm,
    partition_workload,
    schedule_gemm_plus,
)
from repro.core.metrics import (
    NodeResult,
    SystemResult,
    WorkloadResult,
    speedup,
    geometric_mean,
)
from repro.core.perf import (
    DEFAULT_TIMING_CACHE,
    EfficiencyPoint,
    TimingCache,
    estimate_node_gemm,
    estimate_node_gemm_cached,
    memory_environment,
    unmapped_memory_environment,
)
from repro.core.runtime import MACORuntime, AsyncHandle
from repro.core.batch import SweepRunner
from repro.core.explorer import (
    DesignPoint,
    DesignSpaceExplorer,
    EvaluationResult,
    GraphEvaluationResult,
    PhaseResult,
    pareto_front,
)

__all__ = [
    "DesignPoint",
    "DesignSpaceExplorer",
    "EvaluationResult",
    "GraphEvaluationResult",
    "PhaseResult",
    "pareto_front",
    "CPUConfig",
    "MMAEConfig",
    "MemoryConfig",
    "MACOConfig",
    "maco_default_config",
    "ComputeNode",
    "GEMMSubmission",
    "MACOSystem",
    "MappingPlan",
    "NodeAssignment",
    "GemmPlusSchedule",
    "layer_stream_seconds",
    "partition_gemm",
    "partition_workload",
    "schedule_gemm_plus",
    "NodeResult",
    "SystemResult",
    "WorkloadResult",
    "speedup",
    "geometric_mean",
    "DEFAULT_TIMING_CACHE",
    "EfficiencyPoint",
    "SweepRunner",
    "TimingCache",
    "estimate_node_gemm",
    "estimate_node_gemm_cached",
    "memory_environment",
    "unmapped_memory_environment",
    "MACORuntime",
    "AsyncHandle",
]
