"""DDR memory controller / DRAM bandwidth-latency-capacity model.

The NoC provides up to 128 GB/s per compute node (paper Section III.A); the
DDR controllers behind the CCMs provide a finite aggregate bandwidth that
becomes the bottleneck when many nodes stream large matrices simultaneously —
the effect behind the Fig. 7 scalability loss.  The same channels also bound
*capacity*: each node's DRAM share must hold the resident model weights plus
whatever KV state the serving layer admits, which is where the auto-derived
per-node KV budget comes from.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DRAMConfig:
    """Aggregate DRAM subsystem parameters."""

    num_channels: int = 4
    channel_bandwidth_bytes_per_s: float = 51.2e9  # e.g. one DDR5-6400 64-bit channel
    access_latency_ns: float = 80.0
    row_buffer_bytes: int = 8192
    channel_capacity_bytes: int = 16 << 30  # e.g. one 16 GiB DDR5 DIMM per channel

    def __post_init__(self) -> None:
        if self.num_channels <= 0:
            raise ValueError("num_channels must be positive")
        if self.channel_bandwidth_bytes_per_s <= 0:
            raise ValueError("channel bandwidth must be positive")
        if self.access_latency_ns < 0:
            raise ValueError("access latency cannot be negative")
        if self.channel_capacity_bytes <= 0:
            raise ValueError("channel capacity must be positive")

    @property
    def total_bandwidth_bytes_per_s(self) -> float:
        return self.num_channels * self.channel_bandwidth_bytes_per_s

    @property
    def total_capacity_bytes(self) -> int:
        """Aggregate DRAM capacity across every channel."""
        return self.num_channels * self.channel_capacity_bytes


@dataclass
class DRAMModel:
    """Bandwidth and capacity shares of the DRAM channels.

    The effective aggregate bandwidth shrinks as more agents stream
    concurrently; the stash traffic of the GEMM+ schedule is charged at it.
    """

    config: DRAMConfig = field(default_factory=DRAMConfig)

    def effective_bandwidth(self, concurrent_streams: int = 1) -> float:
        """Aggregate bandwidth available to ``concurrent_streams`` equal streams.

        Channel-level parallelism lets a handful of streams use the full
        aggregate bandwidth; beyond that, bank conflicts and row-buffer misses
        erode efficiency slightly (empirically ~3% per extra stream, floor 70%).
        """
        if concurrent_streams <= 0:
            raise ValueError("concurrent_streams must be positive")
        total = self.config.total_bandwidth_bytes_per_s
        if concurrent_streams <= self.config.num_channels:
            return total
        excess = concurrent_streams - self.config.num_channels
        efficiency = max(0.70, 1.0 - 0.03 * excess)
        return total * efficiency

    def node_capacity_bytes(self, num_nodes: int = 1) -> int:
        """DRAM capacity one of ``num_nodes`` equal nodes can claim.

        The aggregate capacity behind the CCMs splits evenly across the fleet.
        The serving simulator sizes its per-node KV budget as this share minus
        the resident model weights (``repro.serve.autoscale.derive_kv_budget``).
        """
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        return self.config.total_capacity_bytes // num_nodes
