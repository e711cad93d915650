"""Result dataclasses and metric helpers shared by the MACO system and baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.gemm.workloads import GEMMShape
from repro.mmae.dataflow import GEMMTimingBreakdown


@dataclass
class NodeResult:
    """Timing of the work one compute node performed."""

    node_id: int
    seconds: float
    flops: int
    breakdowns: List[GEMMTimingBreakdown] = field(default_factory=list)

    @property
    def gflops(self) -> float:
        """Achieved throughput of this node's share of the work."""
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0


@dataclass
class SystemResult:
    """Outcome of running one GEMM (or a set of independent GEMMs) on MACO."""

    shape: GEMMShape
    num_nodes: int
    seconds: float
    flops: int
    peak_gflops: float
    node_results: List[NodeResult] = field(default_factory=list)
    prediction_enabled: bool = True

    @property
    def gflops(self) -> float:
        """Aggregate achieved throughput across the active nodes."""
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0

    @property
    def efficiency(self) -> float:
        """Achieved fraction of the aggregate MMAE peak."""
        return self.gflops / self.peak_gflops if self.peak_gflops else 0.0


@dataclass
class WorkloadResult:
    """Outcome of running a full (DL) workload on MACO or a baseline."""

    name: str
    system: str
    num_nodes: int
    seconds: float
    gemm_flops: int
    total_flops: int
    peak_gflops: float
    gemm_seconds: float = 0.0
    non_gemm_seconds: float = 0.0
    overlap_enabled: bool = True

    @property
    def gflops(self) -> float:
        """Throughput on the GEMM FLOPs (the Fig. 8 y-axis metric)."""
        return self.gemm_flops / self.seconds / 1e9 if self.seconds > 0 else 0.0

    @property
    def efficiency(self) -> float:
        """Achieved fraction of the aggregate MMAE peak on the GEMM FLOPs."""
        return self.gflops / self.peak_gflops if self.peak_gflops else 0.0


def speedup(result: WorkloadResult, baseline: WorkloadResult) -> float:
    """How much faster ``result`` is than ``baseline`` (ratio of throughputs)."""
    if baseline.gflops <= 0:
        raise ValueError("baseline throughput must be positive")
    return result.gflops / baseline.gflops


def geometric_mean(values: List[float]) -> float:
    """Geometric mean, the conventional way to average speedups."""
    if not values:
        raise ValueError("cannot average an empty list")
    if any(value <= 0 for value in values):
        raise ValueError("geometric mean requires positive values")
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
