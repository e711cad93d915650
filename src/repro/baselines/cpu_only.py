"""Baseline-1: MACO with CPU cores only (the MMAEs are unused).

Every GEMM runs on the CPU cores' vector FP pipelines with cache blocking, and
the non-GEMM tail operators run on the same cores afterwards.  The GEMMs are
column-partitioned across the cores exactly like the MACO mapping, so the only
differences from MACO are the compute engine and the absence of overlap.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.common import BaselineModel
from repro.core.mapping import layer_stream_seconds, partition_gemm
from repro.core.metrics import WorkloadResult
from repro.cpu.core import CPUCore
from repro.gemm.precision import Precision
from repro.workloads.graph import WorkloadGraph


class CPUOnlyBaseline(BaselineModel):
    """Baseline-1 of the paper's Fig. 8."""

    name = "baseline-1"

    def run_workload(self, workload: WorkloadGraph, num_nodes: Optional[int] = None) -> WorkloadResult:
        nodes = num_nodes if num_nodes is not None else self.config.num_nodes
        if not 1 <= nodes <= self.config.num_nodes:
            raise ValueError(f"num_nodes must be in 1..{self.config.num_nodes}")
        core = CPUCore.from_config(self.config.cpu)
        precision = workload.phases[0].shapes[0].precision
        gemm_seconds = layer_stream_seconds(
            (partition_gemm(shape, nodes) for shape in workload.layers()),
            lambda shape: core.run_gemm(shape).seconds,
        )

        per_core_flops = int(workload.non_gemm_flops / nodes)
        per_core_bytes = int(workload.non_gemm_bytes / nodes)
        non_gemm_seconds = core.run_elementwise(per_core_flops, per_core_bytes).seconds

        total = gemm_seconds + non_gemm_seconds
        cpu_peak = (
            self.config.cpu.peak_gflops_fp64
            if precision is Precision.FP64
            else self.config.cpu.peak_gflops_fp32
        )
        return WorkloadResult(
            name=workload.name,
            system=self.name,
            num_nodes=nodes,
            seconds=total,
            gemm_flops=workload.gemm_flops,
            total_flops=workload.total_flops,
            peak_gflops=cpu_peak * nodes,
            gemm_seconds=gemm_seconds,
            non_gemm_seconds=non_gemm_seconds,
            overlap_enabled=False,
        )
