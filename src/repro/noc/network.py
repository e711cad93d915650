"""NoC configuration: the paper's 4x4 mesh with 256-bit links at 2 GHz.

The timing model reads one number from it: the per-node injection/ejection
bandwidth (:attr:`NocConfig.node_bandwidth_bytes_per_s`), which caps the
node's aggregate DMA bandwidth in :mod:`repro.mmae.dataflow`.  The collective cost model in
:mod:`repro.parallel.collective` prices transfers over the X-Y routes of
:mod:`repro.noc.routing` with the link bandwidth and router pipeline depth
configured here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NocConfig:
    """NoC parameters from the paper: 4x4 mesh, 256-bit links at 2 GHz."""

    width: int = 4
    height: int = 4
    link_width_bytes: int = 32
    frequency_hz: float = 2.0e9
    router_pipeline_cycles: int = 3

    def __post_init__(self) -> None:
        if self.link_width_bytes <= 0 or self.frequency_hz <= 0:
            raise ValueError("invalid NoC configuration")

    @property
    def cycle_time_s(self) -> float:
        return 1.0 / self.frequency_hz

    @property
    def link_bandwidth_bytes_per_s(self) -> float:
        """Unidirectional bandwidth of one link."""
        return self.link_width_bytes * self.frequency_hz

    @property
    def node_bandwidth_bytes_per_s(self) -> float:
        """Bidirectional injection/ejection bandwidth available to one node (128 GB/s)."""
        return 2 * self.link_bandwidth_bytes_per_s
