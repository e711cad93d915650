"""Gemmini-like baseline: a loosely-coupled accelerator without MACO's extensions.

Gemmini (Genc et al., DAC 2021) attaches a systolic-array accelerator to the
core over a co-processor interface, with its own scratchpads and DMA and with
address-translation support.  The MACO paper's criticism of this design point
(Section I) is what this model removes relative to a MACO node:

* **no predictive address translation** — demand page-table walks stall the
  DMA streams on large workloads (the Fig. 6 "without prediction" path);
* **no stash/lock mapping scheme** — operand re-reads are not pinned in the
  L3 and the CPU's tail operators do not overlap with the accelerator;
* **host-synchronised task execution** — without the MTQ/STQ queues, the core
  issues one accelerator task at a time and blocks on a fence before the next
  layer (``host_sync_overhead_s`` per GEMM), and multi-process sharing is not
  supported.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.common import BaselineModel
from repro.core.mapping import layer_stream_seconds, partition_gemm
from repro.core.metrics import WorkloadResult
from repro.core.perf import (
    estimate_node_gemm_cached,
    memory_environment,
    unmapped_memory_environment,
)
from repro.cpu.core import CPUCore
from repro.workloads.graph import WorkloadGraph


class GemminiLikeBaseline(BaselineModel):
    """A loosely-coupled accelerator without prediction, stash/lock or task queues."""

    name = "gemmini-like"

    #: Host round trip per accelerator task: configure over the co-processor
    #: interface, launch, and fence on completion (no queued tasks to hide it).
    host_sync_overhead_s: float = 12e-6
    #: Utilisation ceiling of the accelerator on DNN layers.  Gemmini's own
    #: evaluation reports well below-peak utilisation on ResNet-50-class layers
    #: because the RoCC command stream, scratchpad double-buffering limits and
    #: im2col handling leave the array idle part of the time; this constant is
    #: the one calibration knob and is reported in EXPERIMENTS.md.
    utilization_ceiling: float = 0.80

    def run_workload(self, workload: WorkloadGraph, num_nodes: Optional[int] = None) -> WorkloadResult:
        nodes = num_nodes if num_nodes is not None else self.config.num_nodes
        if not 1 <= nodes <= self.config.num_nodes:
            raise ValueError(f"num_nodes must be in 1..{self.config.num_nodes}")
        precision = workload.phases[0].shapes[0].precision

        # Without stash/lock the accelerator cannot keep its re-read working set
        # resident in the shared L3 (same collapse as Baseline-2).
        env = unmapped_memory_environment(memory_environment(self.config, nodes))
        gemm_seconds = layer_stream_seconds(
            (partition_gemm(shape, nodes) for shape in workload.layers()),
            lambda shape: estimate_node_gemm_cached(
                self.config, shape, active_nodes=nodes, prediction_enabled=False, env=env,
            ).seconds / self.utilization_ceiling,
            layer_overhead_s=self.host_sync_overhead_s,
        )

        # Tail operators are distributed across the CPU cores (that part needs
        # no accelerator support) but run after the accelerator finishes,
        # streaming unlocked (cold) data.
        core = CPUCore.from_config(self.config.cpu)
        non_gemm_seconds = core.run_elementwise(
            int(workload.non_gemm_flops / nodes), int(workload.non_gemm_bytes / nodes)
        ).seconds * 2.0

        total = gemm_seconds + non_gemm_seconds
        return WorkloadResult(
            name=workload.name,
            system=self.name,
            num_nodes=nodes,
            seconds=total,
            gemm_flops=workload.gemm_flops,
            total_flops=workload.total_flops,
            peak_gflops=self.config.mmae.peak_gflops(precision) * nodes,
            gemm_seconds=gemm_seconds,
            non_gemm_seconds=non_gemm_seconds,
            overlap_enabled=False,
        )
