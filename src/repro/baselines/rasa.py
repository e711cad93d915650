"""RASA-like baseline: a tightly-coupled matrix engine in the CPU pipeline.

RASA (Jeong et al., DAC 2021) integrates a systolic matrix engine into the CPU
core and mitigates its utilisation problems with sub-stage pipelining and
overlap.  The paper compares MACO against a MacSim configuration similar to
RASA with the same total PE count.  Following the trade-offs the MACO paper
attributes to tightly-coupled designs (Section II.A), the model differs from a
MACO node in three ways:

* the engine runs in the **CPU clock domain** (2.2 GHz instead of 2.5 GHz);
* the engine **shares the CPU's MMU and load/store path**, so its streaming
  bandwidth is the core's cache/memory bandwidth rather than dedicated DMA
  engines into the L3, and it suffers a resource-contention penalty whenever
  scalar work (address generation, loop control, tail operators) needs the
  same units;
* there is **no CPU/engine overlap** for the non-GEMM tail operators — the
  core cannot run them while it is busy feeding the engine.

``pipeline_utilization`` reflects the utilisation RASA's own optimisations
recover within these constraints; it is the one calibration constant and is
reported alongside the results in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.common import BaselineModel
from repro.core.mapping import layer_stream_seconds, partition_gemm
from repro.core.metrics import WorkloadResult
from repro.cpu.core import CPUCore
from repro.gemm.precision import Precision
from repro.gemm.workloads import GEMMShape
from repro.workloads.graph import WorkloadGraph


class RASALikeBaseline(BaselineModel):
    """A tightly-coupled (TCA) matrix-engine CPU with MACO's PE count per core."""

    name = "rasa-like"

    #: Utilisation the in-pipeline engine sustains on well-blocked GEMMs once
    #: RASA's sub-stage pipelining hides most fill/drain bubbles.
    pipeline_utilization: float = 0.88
    #: Throughput lost to contention for the shared MMU/LSU with scalar work.
    resource_contention_penalty: float = 0.10

    def _engine_peak_gflops(self, precision: Precision) -> float:
        """Peak of one in-core engine: MACO's PE count at the CPU frequency."""
        lanes = self.config.mmae.sa_rows * self.config.mmae.sa_cols * precision.simd_ways
        return 2.0 * lanes * self.config.cpu.frequency_hz / 1e9

    def _gemm_seconds(self, shape: GEMMShape, core: CPUCore) -> float:
        peak = self._engine_peak_gflops(shape.precision) * 1e9
        sustained = peak * self.pipeline_utilization * (1.0 - self.resource_contention_penalty)
        compute_seconds = shape.flops / sustained
        # The engine streams operands through the core's cache hierarchy; the
        # same L2-blocked traffic model as the CPU GEMM bounds it.
        element = shape.precision.bytes_per_element
        block = max(64, min(512, int((core.l2.config.size_bytes / (3 * element)) ** 0.5)))
        effective_block = min(block, shape.m, shape.n, shape.k)
        bytes_moved = shape.flops / 2.0 * 3.0 * element / effective_block
        memory_seconds = bytes_moved / core.memory_bandwidth_bytes_per_s
        return max(compute_seconds, memory_seconds)

    def run_workload(self, workload: WorkloadGraph, num_nodes: Optional[int] = None) -> WorkloadResult:
        nodes = num_nodes if num_nodes is not None else self.config.num_nodes
        if not 1 <= nodes <= self.config.num_nodes:
            raise ValueError(f"num_nodes must be in 1..{self.config.num_nodes}")
        core = CPUCore.from_config(self.config.cpu)
        precision = workload.phases[0].shapes[0].precision
        gemm_seconds = layer_stream_seconds(
            (partition_gemm(shape, nodes) for shape in workload.layers()),
            lambda shape: self._gemm_seconds(shape, core),
        )

        per_core_flops = int(workload.non_gemm_flops / nodes)
        per_core_bytes = int(workload.non_gemm_bytes / nodes)
        non_gemm_seconds = core.run_elementwise(per_core_flops, per_core_bytes).seconds

        total = gemm_seconds + non_gemm_seconds
        return WorkloadResult(
            name=workload.name,
            system=self.name,
            num_nodes=nodes,
            seconds=total,
            gemm_flops=workload.gemm_flops,
            total_flops=workload.total_flops,
            peak_gflops=self._engine_peak_gflops(precision) * nodes,
            gemm_seconds=gemm_seconds,
            non_gemm_seconds=non_gemm_seconds,
            overlap_enabled=False,
        )
