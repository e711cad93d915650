"""Baseline-2: MACO with MMAEs but without the Section IV.B mapping scheme.

The MMAEs still execute the GEMMs, but:

* operand tiles are not stashed/locked in the L3, so the re-read traffic of
  the tile schedule spills to DRAM and competes with the other nodes
  (modelled by collapsing the node's effective L3 share); and
* the CPU's non-GEMM tail operators do not overlap with the MMAE and stream
  their inputs from DRAM (the locked-in-L3 guarantee is gone).

Everything else — the MPAIS interface, the predictive address translation,
the per-node partitioning — is identical to MACO, so the measured gap isolates
the mapping scheme's contribution (the paper reports 1.45x).
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.common import BaselineModel
from repro.core.maco import MACOSystem
from repro.core.metrics import WorkloadResult
from repro.workloads.graph import WorkloadGraph


class NoMappingBaseline(BaselineModel):
    """Baseline-2 of the paper's Fig. 8."""

    name = "baseline-2"

    def __init__(self, config=None) -> None:
        super().__init__(config)
        self._system = MACOSystem(self.config.with_mapping(False))

    def run_workload(self, workload: WorkloadGraph, num_nodes: Optional[int] = None) -> WorkloadResult:
        result = self._system.run_workload(
            workload, num_nodes=num_nodes, mapping_enabled=False,
        )
        result.system = self.name
        return result
