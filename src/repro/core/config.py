"""Configuration dataclasses for the MACO system.

Defaults follow the paper's published parameters: Table I (CPU core), Table IV
(frequencies, areas, power, FMAC counts), Section III.A (MMAE buffers, NoC
geometry and bandwidth, distributed L3), and Section V.B.2 (page size and
tiling used by the evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.gemm.precision import Precision
from repro.gemm.tiling import TileConfig
from repro.gemm.workloads import GEMMShape
from repro.mem.dram import DRAMConfig
from repro.mmae.dataflow import MMAETimingParameters
from repro.mmae.matlb import TranslationTimingParameters
from repro.noc.network import NocConfig


@dataclass(frozen=True)
class CPUConfig:
    """Architectural parameters of one CPU core (paper Table I / Table IV).

    It is also the core's one throughput model for the FP work the core runs
    itself: the CPU-only GEMM of Baseline-1 and the non-GEMM operators of
    GEMM+ workloads.  The functional core (:class:`repro.cpu.core.CPUCore`)
    is built from it and has no timing of its own.
    """

    frequency_hz: float = 2.2e9
    instruction_width_bits: int = 64
    data_bus_width_bits: int = 256
    instruction_fetch_width_bits: int = 128
    pipeline_stages: int = 12
    issue_width: int = 4
    out_of_order: bool = True
    l1i_size_bytes: int = 48 * 1024
    l1i_associativity: int = 4
    l1d_size_bytes: int = 48 * 1024
    l1d_associativity: int = 4
    l2_size_bytes: int = 512 * 1024
    l2_associativity: int = 8
    itlb_entries: int = 48
    dtlb_entries: int = 48
    l2_tlb_entries: int = 1024
    fmac_lanes: int = 8
    mtq_entries: int = 8
    memory_bandwidth_bytes_per_s: float = 32e9
    area_mm2: float = 6.25
    power_w: float = 2.0

    @property
    def frequency_ghz(self) -> float:
        """Core clock in GHz."""
        return self.frequency_hz / 1e9

    @property
    def peak_gflops_fp64(self) -> float:
        """FP64 peak (Table IV)."""
        return self.peak_gflops(Precision.FP64)

    @property
    def peak_gflops_fp32(self) -> float:
        """FP32 peak (Table IV)."""
        return self.peak_gflops(Precision.FP32)

    def peak_gflops(self, precision: Precision) -> float:
        """Theoretical peak (Table IV footnote: 2 x freq x FMACs), scaled by SIMD width.

        The CPU's vector units double their lane count at FP32 relative to FP64
        (35.2 -> 71 GFLOPS in Table IV); FP16 is not a native CPU GEMM type in
        the paper, so it reuses the FP32 rate.
        """
        base = 2.0 * self.frequency_hz * self.fmac_lanes / 1e9
        if precision is Precision.FP64:
            return base
        return base * 2.0

    def l2_block_edge(self, shape: GEMMShape) -> int:
        """Block edge of an L2-blocked GEMM loop, clipped to the shape.

        Three square operand blocks fill the private L2; the edge is kept in
        64..512 and never exceeds a dimension of the GEMM.
        """
        element_bytes = shape.precision.bytes_per_element
        block = max(64, min(512, int((self.l2_size_bytes / (3 * element_bytes)) ** 0.5)))
        return min(block, shape.m, shape.n, shape.k)

    def gemm_efficiency(self, shape: GEMMShape) -> float:
        """Fraction of peak a cache-blocked CPU GEMM sustains for this shape.

        The model combines a compute-bound ceiling (vector pipelines sustain
        ~70% of peak on well-blocked code) with a bandwidth bound from the
        operand traffic that the L2-blocked loop must move per FLOP.
        """
        compute_ceiling = 0.70
        # Each operand element of the block is reused ~block times; traffic
        # per FLOP falls as 1/block.
        bytes_per_flop = 3.0 * shape.precision.bytes_per_element / (2.0 * self.l2_block_edge(shape))
        peak_flops = self.peak_gflops(shape.precision) * 1e9
        bandwidth_bound = self.memory_bandwidth_bytes_per_s / bytes_per_flop / peak_flops
        efficiency = min(compute_ceiling, bandwidth_bound)
        # Very small GEMMs lose additional time to loop and call overhead.
        smallest_dim = min(shape.m, shape.n, shape.k)
        if smallest_dim < 128:
            efficiency *= smallest_dim / 128.0
        return max(0.01, min(1.0, efficiency))

    def gemm_seconds(self, shape: GEMMShape) -> float:
        """Seconds of a GEMM run on the core itself (the Baseline-1 path)."""
        sustained = self.peak_gflops(shape.precision) * 1e9 * self.gemm_efficiency(shape)
        return shape.flops / sustained

    def elementwise_seconds(self, flops: int, bytes_touched: int) -> float:
        """Seconds of an element-wise operator (activation / normalisation / softmax).

        These operators are memory-bound on the CPU: the time is the maximum of
        the vector-FP time and the streaming-bandwidth time.
        """
        if flops < 0 or bytes_touched < 0:
            raise ValueError("flops and bytes must be non-negative")
        vector_rate = self.peak_gflops(Precision.FP32) * 1e9 * 0.5
        compute_seconds = flops / vector_rate if vector_rate else 0.0
        memory_seconds = bytes_touched / self.memory_bandwidth_bytes_per_s
        return max(compute_seconds, memory_seconds)


@dataclass(frozen=True)
class MMAEConfig:
    """Architectural parameters of one MMAE (paper Table IV / Fig. 2)."""

    frequency_hz: float = 2.5e9
    sa_rows: int = 4
    sa_cols: int = 4
    a_buffer_bytes: int = 64 * 1024
    b_buffer_bytes: int = 64 * 1024
    c_buffer_bytes: int = 64 * 1024
    dma_engines: int = 2
    dma_outstanding_lines: int = 32
    stq_entries: int = 8
    matlb_entries: int = 64
    area_mm2: float = 1.58
    power_w: float = 1.5
    #: Area breakdown fractions (Table IV footnote b).
    area_breakdown: tuple = (("buffers", 0.367), ("systolic_array", 0.247),
                             ("controller", 0.234), ("data_engine", 0.158))

    @property
    def frequency_ghz(self) -> float:
        """MMAE clock in GHz."""
        return self.frequency_hz / 1e9

    @property
    def fmac_lanes(self) -> int:
        """FP64 MAC lanes of the systolic array (Table IV reports 16)."""
        return self.sa_rows * self.sa_cols

    @property
    def total_buffer_bytes(self) -> int:
        """Combined capacity of the A/B/C scratchpad buffers."""
        return self.a_buffer_bytes + self.b_buffer_bytes + self.c_buffer_bytes

    @property
    def peak_gflops_fp64(self) -> float:
        """Theoretical FP64 peak: 2 x freq x systolic MAC lanes."""
        return 2.0 * self.frequency_ghz * self.fmac_lanes

    @property
    def peak_gflops_fp32(self) -> float:
        """FP32 peak: twice the FP64 rate."""
        return self.peak_gflops(Precision.FP32)

    @property
    def peak_gflops_fp16(self) -> float:
        """FP16 peak: four times the FP64 rate."""
        return self.peak_gflops(Precision.FP16)

    def peak_gflops(self, precision: Precision) -> float:
        """Theoretical peak at a precision: each PE packs ``simd_ways`` MACs (Fig. 2)."""
        return self.peak_gflops_fp64 * precision.simd_ways

    def timing_parameters(self) -> MMAETimingParameters:
        """Build the timing-parameter bundle used by the dataflow model."""
        return MMAETimingParameters(
            frequency_hz=self.frequency_hz,
            sa_rows=self.sa_rows,
            sa_cols=self.sa_cols,
            dma_engines=self.dma_engines,
            dma_outstanding_lines=self.dma_outstanding_lines,
            translation=TranslationTimingParameters(),
        )


@dataclass(frozen=True)
class MemoryConfig:
    """Shared memory-system parameters: distributed L3, DDR controllers, paging."""

    l3_slice_bytes: int = 8 * 1024 * 1024
    l3_slices: int = 4
    page_size: int = 4096
    dram: DRAMConfig = field(default_factory=lambda: DRAMConfig(
        num_channels=4, channel_bandwidth_bytes_per_s=51.2e9, access_latency_ns=80.0,
    ))
    #: Base round-trip latency of an L3 access from a compute node (NoC + CCM + slice).
    l3_round_trip_ns: float = 60.0
    #: Extra round-trip latency when the access misses to DRAM.
    dram_round_trip_ns: float = 95.0
    #: Queueing delay added per additional active node (CCM and DDR controller queues).
    queue_ns_per_active_node: float = 4.0

    @property
    def l3_total_bytes(self) -> int:
        """Total distributed L3 capacity across all slices."""
        return self.l3_slice_bytes * self.l3_slices


@dataclass(frozen=True)
class MACOConfig:
    """Top-level configuration of a MACO system instance."""

    num_nodes: int = 16
    cpu: CPUConfig = field(default_factory=CPUConfig)
    mmae: MMAEConfig = field(default_factory=MMAEConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    level1_tile: TileConfig = field(default_factory=lambda: TileConfig(1024, 1024))
    level2_tile: TileConfig = field(default_factory=lambda: TileConfig(64, 64))
    prediction_enabled: bool = True
    mapping_scheme_enabled: bool = True

    def __post_init__(self) -> None:
        max_nodes = self.noc.width * self.noc.height
        if not 1 <= self.num_nodes <= max_nodes:
            raise ValueError(
                f"num_nodes must be between 1 and the mesh size ({max_nodes}), got {self.num_nodes}"
            )

    def peak_gflops(self, precision: Precision) -> float:
        """Aggregate MMAE peak across all compute nodes for a precision."""
        return self.mmae.peak_gflops(precision) * self.num_nodes

    def with_nodes(self, num_nodes: int) -> "MACOConfig":
        """A copy of this configuration with a different node count."""
        return replace(self, num_nodes=num_nodes)

    def with_prediction(self, enabled: bool) -> "MACOConfig":
        """Copy of this config with predictive address translation toggled."""
        return replace(self, prediction_enabled=enabled)

    def with_mapping(self, enabled: bool) -> "MACOConfig":
        """Copy of this config with the stash/lock mapping scheme toggled."""
        return replace(self, mapping_scheme_enabled=enabled)


def maco_default_config(
    num_nodes: int = 16,
    prediction_enabled: bool = True,
    mapping_scheme_enabled: bool = True,
) -> MACOConfig:
    """The paper's default MACO configuration with ``num_nodes`` compute nodes."""
    return MACOConfig(
        num_nodes=num_nodes,
        prediction_enabled=prediction_enabled,
        mapping_scheme_enabled=mapping_scheme_enabled,
    )
