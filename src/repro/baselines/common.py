"""Shared interface and comparison harness for the Fig. 8 baselines."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import MACOConfig, maco_default_config
from repro.core.metrics import WorkloadResult, geometric_mean
from repro.workloads.graph import WorkloadGraph


class BaselineModel(abc.ABC):
    """A system that can run a GEMM+ workload and report throughput."""

    name: str = "baseline"

    def __init__(self, config: Optional[MACOConfig] = None) -> None:
        self.config = config if config is not None else maco_default_config()

    @abc.abstractmethod
    def run_workload(self, workload: WorkloadGraph, num_nodes: Optional[int] = None) -> WorkloadResult:
        """Run the workload and return its throughput result."""


@dataclass
class BaselineComparison:
    """Results of every system on every workload (the Fig. 8 data)."""

    results: Dict[str, Dict[str, WorkloadResult]] = field(default_factory=dict)

    def add(self, result: WorkloadResult) -> None:
        self.results.setdefault(result.system, {})[result.name] = result

    def systems(self) -> List[str]:
        return list(self.results)

    def workloads(self) -> List[str]:
        names: List[str] = []
        for per_system in self.results.values():
            for name in per_system:
                if name not in names:
                    names.append(name)
        return names

    def throughput(self, system: str, workload: str) -> float:
        return self.results[system][workload].gflops

    def average_speedup(self, system: str, over: str) -> float:
        """Geometric-mean speedup of ``system`` over ``over`` across all workloads."""
        ratios = []
        for workload in self.workloads():
            ratios.append(self.throughput(system, workload) / self.throughput(over, workload))
        return geometric_mean(ratios)

    def best_throughput(self, system: str) -> float:
        return max(result.gflops for result in self.results[system].values())


def compare_systems(
    systems: List[BaselineModel],
    workloads: List[WorkloadGraph],
    num_nodes: Optional[int] = None,
    jobs: Optional[int] = None,
) -> BaselineComparison:
    """Run every workload on every system (the Fig. 8 experiment driver).

    With ``jobs`` set, the (system, workload) pairs fan out over a
    :class:`repro.core.batch.SweepRunner` worker pool; each worker rebuilds
    the system from its class and configuration, so results are identical to
    the serial path.
    """
    comparison = BaselineComparison()
    if jobs is None or jobs == 1:
        for system in systems:
            for workload in workloads:
                comparison.add(system.run_workload(workload, num_nodes=num_nodes))
        return comparison

    from repro.core.batch import SweepRunner

    runner = SweepRunner(jobs=jobs)
    for result in runner.run_workloads(systems, workloads, num_nodes=num_nodes):
        comparison.add(result)
    return comparison
