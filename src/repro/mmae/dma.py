"""The MMAE's DMA engines.

Two DMA engines move tiles between the L3 system cache and the A/B/C buffers
(paper Fig. 2(a)) and also service the MA_MOVE / MA_INIT bulk operations.  The
timing model is latency-bandwidth limited: each engine keeps a bounded number
of outstanding line requests, so its sustained bandwidth is
``min(peak_bandwidth, outstanding_bytes / round_trip_latency)`` — the quantity
that degrades as more compute nodes contend for the L3 slices and the DDR
controllers (the Fig. 7 effect).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.mem.address import DEFAULT_LINE_SIZE


@dataclass
class DMATransferResult:
    """Outcome of one DMA transfer."""

    bytes_transferred: int
    cycles: int
    translation_stall_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        return self.cycles + self.translation_stall_cycles


@dataclass
class DMAEngine:
    """One DMA engine of the Accelerator Data Engine.

    ``peak_bytes_per_cycle`` is the engine's datapath width (the NoC interface
    provides 256 bits at the MMAE clock, i.e. 32 bytes per MMAE cycle per
    direction); ``max_outstanding_lines`` bounds the memory-level parallelism.
    """

    engine_id: int = 0
    peak_bytes_per_cycle: float = 32.0
    max_outstanding_lines: int = 32
    line_size: int = DEFAULT_LINE_SIZE
    frequency_hz: float = 2.5e9

    def __post_init__(self) -> None:
        if self.peak_bytes_per_cycle <= 0:
            raise ValueError("peak bandwidth must be positive")
        if self.max_outstanding_lines <= 0:
            raise ValueError("need at least one outstanding request")

    # ----------------------------------------------------------------- bandwidth
    @property
    def peak_bandwidth_bytes_per_s(self) -> float:
        return self.peak_bytes_per_cycle * self.frequency_hz

    def sustained_bytes_per_cycle(self, round_trip_latency_cycles: float) -> float:
        """Little's-law bandwidth under a given memory round-trip latency."""
        if round_trip_latency_cycles <= 0:
            return self.peak_bytes_per_cycle
        window_bytes = self.max_outstanding_lines * self.line_size
        latency_limited = window_bytes / round_trip_latency_cycles
        return min(self.peak_bytes_per_cycle, latency_limited)

    # ------------------------------------------------------------------ transfers
    def transfer(
        self,
        size_bytes: int,
        round_trip_latency_cycles: float = 0.0,
        translation_stall_cycles: int = 0,
    ) -> DMATransferResult:
        """Time a transfer of ``size_bytes`` under the given memory latency."""
        if size_bytes < 0:
            raise ValueError("transfer size cannot be negative")
        if size_bytes == 0:
            return DMATransferResult(0, 0, translation_stall_cycles)
        bandwidth = self.sustained_bytes_per_cycle(round_trip_latency_cycles)
        # The first line's latency is exposed; the rest pipelines behind it.
        cycles = math.ceil(round_trip_latency_cycles + size_bytes / bandwidth)
        return DMATransferResult(size_bytes, cycles, translation_stall_cycles)
