"""The full MACO system: compute nodes, distributed L3, DDR controllers.

:class:`MACOSystem` is the top-level object users interact with.  It offers
two execution entry points:

* :meth:`run_gemm` — one GEMM partitioned across the compute nodes with the
  Fig. 5(a) mapping (used by the examples and the DL workloads);
* :meth:`run_workload` — a full GEMM+ workload (DL network) with or without
  the stash/lock + overlap mapping scheme (the Fig. 8 experiment and the
  Baseline-2 ablation).

The Fig. 6 and Fig. 7 sweeps run one GEMM per node and go through
:class:`repro.core.batch.SweepRunner` instead.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.compute_node import ComputeNode
from repro.core.config import MACOConfig, maco_default_config
from repro.core.mapping import layer_stream_seconds, partition_gemm, schedule_gemm_plus
from repro.core.metrics import NodeResult, SystemResult, WorkloadResult
from repro.core.perf import (
    estimate_node_gemm,
    estimate_node_gemm_cached,
    memory_environment,
    unmapped_memory_environment,
)
from repro.gemm.precision import Precision
from repro.gemm.workloads import GEMMShape
from repro.mem.dram import DRAMModel
from repro.mem.l3cache import DistributedL3Cache
from repro.workloads.graph import WorkloadGraph


class MACOSystem:
    """A configured MACO instance."""

    def __init__(self, config: Optional[MACOConfig] = None) -> None:
        self.config = config if config is not None else maco_default_config()
        self.l3 = DistributedL3Cache(
            num_slices=self.config.memory.l3_slices,
            slice_size_bytes=self.config.memory.l3_slice_bytes,
            associativity=self.config.memory.l3_associativity,
            line_size=self.config.memory.line_size,
        )
        self.dram = DRAMModel(config=self.config.memory.dram)
        self.nodes: List[ComputeNode] = [
            ComputeNode(node_id, self.config, l3=self.l3)
            for node_id in range(self.config.num_nodes)
        ]

    # --------------------------------------------------------------------- peaks
    @property
    def num_nodes(self) -> int:
        """Number of compute nodes in this system."""
        return self.config.num_nodes

    def peak_gflops(self, precision: Precision, num_nodes: Optional[int] = None) -> float:
        """Aggregate MMAE peak of ``num_nodes`` nodes (default: all) at a precision."""
        nodes = num_nodes if num_nodes is not None else self.num_nodes
        return self.config.mmae.peak_gflops(precision) * nodes

    # ------------------------------------------------------------------ one GEMM
    def run_gemm(
        self,
        shape: GEMMShape,
        num_nodes: Optional[int] = None,
        prediction_enabled: Optional[bool] = None,
    ) -> SystemResult:
        """Run one GEMM partitioned across ``num_nodes`` compute nodes."""
        nodes = num_nodes if num_nodes is not None else self.num_nodes
        if not 1 <= nodes <= self.num_nodes:
            raise ValueError(f"num_nodes must be in 1..{self.num_nodes}")
        plan = partition_gemm(shape, nodes)
        active = plan.num_nodes
        env = memory_environment(self.config, active)
        node_results = []
        longest = 0.0
        for assignment in plan.assignments:
            timing = estimate_node_gemm(
                self.config, assignment.shape, active_nodes=active,
                prediction_enabled=prediction_enabled, env=env,
            )
            node_results.append(
                NodeResult(
                    node_id=assignment.node_id,
                    seconds=timing.seconds,
                    flops=assignment.shape.flops,
                    breakdowns=[timing],
                )
            )
            longest = max(longest, timing.seconds)
        return SystemResult(
            shape=shape,
            num_nodes=active,
            seconds=longest,
            flops=shape.flops,
            peak_gflops=self.peak_gflops(shape.precision, active),
            node_results=node_results,
            prediction_enabled=(
                prediction_enabled if prediction_enabled is not None else self.config.prediction_enabled
            ),
        )

    # ------------------------------------------------------------- full workload
    def run_workload(
        self,
        workload: WorkloadGraph,
        num_nodes: Optional[int] = None,
        mapping_enabled: Optional[bool] = None,
        prediction_enabled: Optional[bool] = None,
    ) -> WorkloadResult:
        """Run a GEMM+ workload (e.g. a DL network) across the compute nodes.

        Every layer's GEMM is column-partitioned across the active nodes; the
        per-layer time is the slowest node's time (layers are data dependent
        and execute in order).  The non-GEMM tail operators run on the CPU
        cores; the mapping scheme decides whether they overlap with the MMAEs
        and whether their inputs are still locked in the L3.
        """
        nodes = num_nodes if num_nodes is not None else self.num_nodes
        if not 1 <= nodes <= self.num_nodes:
            raise ValueError(f"num_nodes must be in 1..{self.num_nodes}")
        if mapping_enabled is None:
            mapping_enabled = self.config.mapping_scheme_enabled
        precision = workload.phases[0].shapes[0].precision

        env = memory_environment(self.config, nodes)
        if not mapping_enabled:
            env = unmapped_memory_environment(env)

        # The per-layer timings run through the memoized timing cache: a column
        # partition yields at most two distinct sub-shapes per layer, and DL
        # workloads repeat the same layer shapes many times (e.g. one GEMM set
        # per BERT encoder block), so most estimates are cache hits.
        plans = [partition_gemm(shape, nodes) for shape in workload.layers()]
        mmae_seconds = layer_stream_seconds(
            plans,
            lambda shape: estimate_node_gemm_cached(
                self.config, shape, active_nodes=nodes,
                prediction_enabled=prediction_enabled, env=env,
            ).seconds,
        )

        # Non-GEMM tail operators.  The mapping scheme distributes them across
        # the active CPU cores (each core post-processes its own output tiles);
        # without it the launching core runs the whole tail by itself.
        cpu = self.nodes[0].cpu
        tail_cores = nodes if mapping_enabled else 1
        per_core_flops = workload.non_gemm_flops / tail_cores
        per_core_bytes = workload.non_gemm_bytes / tail_cores
        cpu_seconds = cpu.run_elementwise(int(per_core_flops), int(per_core_bytes)).seconds

        # Stash traffic: the shared A panels plus each node's B/C columns are
        # prefetched from DRAM once per layer.
        stash_bytes = sum(plan.stash_bytes for plan in plans)
        stash_seconds = stash_bytes / self.dram.effective_bandwidth(nodes)

        schedule = schedule_gemm_plus(
            mmae_seconds=mmae_seconds,
            cpu_seconds=cpu_seconds,
            stash_seconds=stash_seconds,
            mapping_enabled=mapping_enabled,
        )
        total_seconds = schedule.total_seconds
        return WorkloadResult(
            name=workload.name,
            system="maco" if mapping_enabled else "maco-nomap",
            num_nodes=nodes,
            seconds=total_seconds,
            gemm_flops=workload.gemm_flops,
            total_flops=workload.total_flops,
            peak_gflops=self.peak_gflops(precision, nodes),
            gemm_seconds=mmae_seconds,
            non_gemm_seconds=cpu_seconds,
            overlap_enabled=mapping_enabled,
        )

    # ----------------------------------------------------------------- functional
    def node(self, node_id: int = 0) -> ComputeNode:
        """Access a compute node (e.g. to drive the functional MPAIS path)."""
        return self.nodes[node_id]
