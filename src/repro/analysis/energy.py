"""Energy and power modelling at the compute-node and system level.

Extends the paper's Table IV (static per-component power) into an activity-based
energy model: a run's energy is the busy-time of each component weighted by its
power draw (plus an idle fraction), which lets the examples and the exploration
tools report energy-to-solution and GFLOPS/W for whole workloads rather than
just the theoretical Table IV ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.metrics import WorkloadResult


@dataclass(frozen=True)
class PowerParameters:
    """Activity-based power parameters of one compute node.

    ``*_idle_fraction`` is the fraction of the component's active power it
    still draws while idle (clock gating is never perfect); ``uncore_w`` covers
    the node's share of the NoC routers, CCM slice and memory controller.
    """

    cpu_active_w: float = 2.0
    mmae_active_w: float = 1.5
    cpu_idle_fraction: float = 0.30
    mmae_idle_fraction: float = 0.15
    uncore_w: float = 0.8

    def __post_init__(self) -> None:
        if min(self.cpu_active_w, self.mmae_active_w, self.uncore_w) < 0:
            raise ValueError("power values cannot be negative")
        for fraction in (self.cpu_idle_fraction, self.mmae_idle_fraction):
            if not 0.0 <= fraction <= 1.0:
                raise ValueError("idle fractions must be within [0, 1]")


@dataclass
class EnergyBreakdown:
    """Energy consumed by one run, split by component."""

    cpu_joules: float
    mmae_joules: float
    uncore_joules: float
    seconds: float
    flops: int

    @property
    def total_joules(self) -> float:
        return self.cpu_joules + self.mmae_joules + self.uncore_joules

    @property
    def average_power_w(self) -> float:
        return self.total_joules / self.seconds if self.seconds > 0 else 0.0

    @property
    def gflops_per_watt(self) -> float:
        if self.total_joules <= 0:
            return 0.0
        return self.flops / self.total_joules / 1e9


class EnergyModel:
    """Turns run results (busy times per component) into energy estimates."""

    def __init__(self, params: Optional[PowerParameters] = None, num_nodes: int = 16) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.params = params if params is not None else PowerParameters()
        self.num_nodes = num_nodes

    def _component_energy(
        self, active_w: float, idle_fraction: float, busy_seconds: float, total_seconds: float
    ) -> float:
        busy_seconds = min(busy_seconds, total_seconds)
        idle_seconds = total_seconds - busy_seconds
        return active_w * busy_seconds + active_w * idle_fraction * idle_seconds

    def estimate(
        self,
        total_seconds: float,
        mmae_busy_seconds: float,
        cpu_busy_seconds: float,
        flops: int,
        active_nodes: Optional[int] = None,
    ) -> EnergyBreakdown:
        """Energy of a run given per-node busy times (assumed equal across nodes)."""
        if total_seconds <= 0:
            raise ValueError("total_seconds must be positive")
        nodes = active_nodes if active_nodes is not None else self.num_nodes
        if not 1 <= nodes <= self.num_nodes:
            raise ValueError(f"active_nodes must be in 1..{self.num_nodes}")
        cpu = nodes * self._component_energy(
            self.params.cpu_active_w, self.params.cpu_idle_fraction, cpu_busy_seconds, total_seconds
        )
        mmae = nodes * self._component_energy(
            self.params.mmae_active_w, self.params.mmae_idle_fraction, mmae_busy_seconds, total_seconds
        )
        uncore = nodes * self.params.uncore_w * total_seconds
        return EnergyBreakdown(
            cpu_joules=cpu, mmae_joules=mmae, uncore_joules=uncore,
            seconds=total_seconds, flops=flops,
        )

    # -------------------------------------------------------------- result adapter
    def for_workload(self, result: WorkloadResult) -> EnergyBreakdown:
        """Energy of a :class:`WorkloadResult` (DL workload run)."""
        return self.estimate(
            total_seconds=result.seconds,
            mmae_busy_seconds=result.gemm_seconds,
            cpu_busy_seconds=result.non_gemm_seconds,
            flops=result.gemm_flops,
            active_nodes=result.num_nodes,
        )
