"""Tile-granular timing model of a GEMM executed by one MMAE.

This module is the cycle-approximate engine behind the evaluation figures: it
walks the two-level tile schedule, computes per-first-level-tile systolic
array occupancy and DMA transfer time, overlaps them (double buffering), adds
the exposed address-translation stalls from :mod:`repro.mmae.matlb`, and
produces a :class:`GEMMTimingBreakdown` with enough detail for the benchmark
harnesses to report where time went.

The memory system surrounding the MMAE is abstracted into a
:class:`MemoryEnvironment` (L3 share, per-node DRAM bandwidth share, memory
round-trip latencies) that :mod:`repro.core.perf` derives from the system
configuration and the NoC contention model; this keeps the per-node model
independent of how many nodes are active.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.gemm.tiling import TileConfig, check_tile_levels, tile_classes
from repro.gemm.workloads import GEMMShape
from repro.mmae.matlb import (
    TranslationStallEstimate,
    TranslationTimingParameters,
    estimate_translation_stalls,
)


@dataclass(frozen=True)
class MMAETimingParameters:
    """Fixed architectural timing constants of one MMAE (paper Table IV / Fig. 2)."""

    frequency_hz: float = 2.5e9
    sa_rows: int = 4
    sa_cols: int = 4
    dma_engines: int = 2
    dma_peak_bytes_per_cycle: float = 32.0       # per engine (256-bit interface)
    dma_outstanding_lines: int = 32              # per engine
    line_size: int = 64
    task_setup_cycles: int = 6000                # MA_CFG handshake + STQ parse + AC configure
    tile_setup_cycles: int = 400                 # per first-level tile reconfiguration
    drain_cycles: int = 2000                     # final C write-back / completion response
    translation: TranslationTimingParameters = field(default_factory=TranslationTimingParameters)

    def __post_init__(self) -> None:
        if (self.frequency_hz <= 0 or self.dma_engines <= 0
                or self.sa_rows <= 0 or self.sa_cols <= 0):
            raise ValueError("invalid MMAE timing parameters")


@dataclass(frozen=True)
class MemoryEnvironment:
    """What the memory system looks like from one MMAE's point of view.

    ``l3_share_bytes`` is the slice of the distributed L3 this node can
    effectively keep resident (total capacity divided by the active nodes);
    ``dram_bandwidth_share_bytes_per_s`` is the node's share of the DDR
    controllers; the two round-trip latencies already include any queueing
    added by other active nodes.
    """

    l3_share_bytes: float = 32 * 1024 * 1024
    dram_bandwidth_share_bytes_per_s: float = 150e9
    noc_node_bandwidth_bytes_per_s: float = 128e9
    l3_round_trip_ns: float = 60.0
    dram_round_trip_ns: float = 95.0

    def __post_init__(self) -> None:
        if self.l3_share_bytes <= 0 or self.dram_bandwidth_share_bytes_per_s <= 0:
            raise ValueError("memory environment shares must be positive")
        if self.noc_node_bandwidth_bytes_per_s <= 0:
            raise ValueError("NoC bandwidth must be positive")


@dataclass
class TileSchedule:
    """Static per-GEMM schedule statistics (counts and traffic volumes)."""

    shape: GEMMShape
    level1: TileConfig
    level2: TileConfig
    num_level1_tiles: int
    num_level2_tiles: int
    compute_cycles: float
    l3_traffic_bytes: float
    dram_traffic_bytes: float


@dataclass(frozen=True)
class GEMMTimingBreakdown:
    """Where the cycles of one GEMM went."""

    shape: GEMMShape
    prediction_enabled: bool
    frequency_hz: float
    peak_gflops: float
    compute_cycles: float = 0.0
    dma_l3_cycles: float = 0.0
    dma_dram_cycles: float = 0.0
    exposed_dma_cycles: float = 0.0
    translation_stall_cycles: float = 0.0
    setup_cycles: float = 0.0
    fill_cycles: float = 0.0
    total_cycles: float = 0.0
    translation: Optional[TranslationStallEstimate] = None

    @property
    def seconds(self) -> float:
        return self.total_cycles / self.frequency_hz

    @property
    def achieved_gflops(self) -> float:
        return self.shape.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0

    @property
    def efficiency(self) -> float:
        """Achieved fraction of the MMAE's theoretical peak for this precision."""
        return self.achieved_gflops / self.peak_gflops if self.peak_gflops else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "total_cycles": self.total_cycles,
            "compute_cycles": self.compute_cycles,
            "exposed_dma_cycles": self.exposed_dma_cycles,
            "translation_stall_cycles": self.translation_stall_cycles,
            "setup_cycles": self.setup_cycles,
            "fill_cycles": self.fill_cycles,
            "achieved_gflops": self.achieved_gflops,
            "efficiency": self.efficiency,
        }


def _ceil_blocks(extent: int, tile: int, block: int) -> int:
    """``Σ⌈t / block⌉`` over the level-2 tile extents ``t`` of ``tile_classes(extent, tile)``."""
    full, remainder = divmod(extent, tile)
    return full * -(-tile // block) + -(-remainder // block)


def build_tile_schedule(
    shape: GEMMShape,
    level1: TileConfig,
    level2: TileConfig,
    params: MMAETimingParameters,
    env: MemoryEnvironment,
) -> TileSchedule:
    """Compute the static schedule statistics (compute cycles and traffic volumes).

    Each distinct first-level tile shape (at most eight, see
    :func:`~repro.gemm.tiling.tile_classes`) is evaluated once and weighted
    by its count (DESIGN.md section 4.1).  A tile's systolic-array cycles
    factor over its level-2 tiles: one ``rows x cols x depth`` tile takes
    ``rows × Σ⌈c / (sa_cols·lanes)⌉ × Σ⌈d / sa_rows⌉`` streaming cycles
    (the sums over its level-2 column and depth extents) plus one
    ``sa_rows + sa_cols`` fill and drain per level-2 tile, which is what
    :meth:`~repro.mmae.systolic_array.SystolicArray.tile_cycles` adds up
    tile by tile.  Tile counts, compute cycles and L3 bytes are integers
    below 2**53, so ``count × value`` is exact.  A tile's DRAM bytes turn
    fractional once its working set overflows the L3 share: when every
    class's value is integral and the total is below 2**53 the total is the
    exact integer ``Σ count × value``, and otherwise it is added one float
    per tile in schedule order, as the per-tile reference
    :func:`repro.conformance.analytic_oracle.build_tile_schedule` does.
    """
    check_tile_levels(level1, level2)
    precision = shape.precision
    element = precision.bytes_per_element
    stream_width = params.sa_cols * precision.simd_ways
    sa_rows = params.sa_rows
    fill_drain = sa_rows + params.sa_cols
    l2_rows, l2_cols, l2_depth = level2.rows, level2.cols, level2.k_block
    l3_share = env.l3_share_bytes
    row_classes = tile_classes(shape.m, level1.rows)
    col_classes = tile_classes(shape.n, level1.cols)
    depth_classes = tile_classes(shape.k, level1.k_block)

    compute_cycles = 0
    l3_traffic = 0
    num_level1 = 0
    num_level2 = 0
    # One tile's DRAM bytes for each class, row class outermost and depth
    # class innermost, and their count-weighted sum.
    class_dram: List[float] = []
    weighted_dram = 0.0
    for rows, rows_count in row_classes:
        row_tiles = -(-rows // l2_rows)
        for cols, cols_count in col_classes:
            col_tiles = -(-cols // l2_cols)
            col_blocks = _ceil_blocks(cols, l2_cols, stream_width)
            c_tile = rows * cols * element
            for depth, depth_count in depth_classes:
                depth_tiles = -(-depth // l2_depth)
                count = rows_count * cols_count * depth_count
                level2_tiles = row_tiles * col_tiles * depth_tiles
                num_level1 += count
                num_level2 += count * level2_tiles
                compute_cycles += count * (
                    rows * col_blocks * _ceil_blocks(depth, l2_depth, sa_rows)
                    + fill_drain * level2_tiles
                )
                a_panel = rows * depth * element
                b_panel = depth * cols * element
                tile_l3 = col_tiles * a_panel + row_tiles * b_panel + 2 * c_tile
                l3_traffic += count * tile_l3
                # DRAM traffic: the compulsory panel reads plus the fraction of the
                # re-reads that do not fit in this node's share of the L3.
                compulsory = a_panel + b_panel + 2 * c_tile
                # The fraction of the working set the L3 share holds, at most 1.
                held = l3_share / (a_panel + b_panel + c_tile)
                reuse_fraction = held if held < 1.0 else 1.0
                tile_dram = compulsory + (tile_l3 - compulsory) * (1.0 - reuse_fraction)
                class_dram.append(tile_dram)
                weighted_dram += count * tile_dram

    if weighted_dram < 2**53 and all(map(float.is_integer, class_dram)):
        # Whole values: each product and each partial sum, here and in the
        # per-tile loop, is an integer below 2**53, so every one is exact.
        dram_traffic = weighted_dram
    else:
        # Each tile's value in schedule order (rows, then columns, then
        # depth), added one float at a time.
        values = iter(class_dram)
        in_order: List[float] = []
        for _, rows_count in row_classes:
            row: List[float] = []
            for _, cols_count in col_classes:
                run: List[float] = []
                for _, depth_count in depth_classes:
                    run += [next(values)] * depth_count
                row += run * cols_count
            in_order += row * rows_count
        dram_traffic = 0.0
        for tile_dram in in_order:
            dram_traffic += tile_dram

    # Positional, in field order: keyword arguments to a class build a dict
    # on every call.
    return TileSchedule(
        shape, level1, level2, num_level1, num_level2,
        float(compute_cycles), float(l3_traffic), dram_traffic,
    )


def _dma_bandwidth_bytes_per_cycle(
    params: MMAETimingParameters, env: MemoryEnvironment, dram_fraction: float
) -> float:
    """Sustained aggregate DMA bandwidth of the node in bytes per MMAE cycle.

    The engines are latency-limited (Little's law over their outstanding-line
    windows) with the round-trip latency weighted by how much of the traffic
    has to travel beyond the L3, and capped by both the engines' datapaths and
    the node's NoC port.  The minimums are spelled out for the reason
    :func:`timing_from_schedule` gives.
    """
    cycle_ns = 1e9 / params.frequency_hz
    round_trip_ns = env.l3_round_trip_ns + dram_fraction * env.dram_round_trip_ns
    round_trip_cycles = round_trip_ns / cycle_ns
    window_bytes = params.dma_outstanding_lines * params.line_size
    peak = params.dma_peak_bytes_per_cycle
    latency_bound = window_bytes / round_trip_cycles
    per_engine = latency_bound if latency_bound < peak else peak
    aggregate = per_engine * params.dma_engines
    noc_cap = env.noc_node_bandwidth_bytes_per_s / params.frequency_hz
    return noc_cap if noc_cap < aggregate else aggregate


def estimate_gemm_timing(
    shape: GEMMShape,
    level1: TileConfig = TileConfig(1024, 1024),
    level2: TileConfig = TileConfig(64, 64),
    params: MMAETimingParameters = MMAETimingParameters(),
    env: MemoryEnvironment = MemoryEnvironment(),
    prediction_enabled: bool = True,
    page_size: int = 4096,
) -> GEMMTimingBreakdown:
    """Estimate the execution time of one GEMM on one MMAE."""
    schedule = build_tile_schedule(shape, level1, level2, params, env)
    translation = estimate_translation_stalls(
        shape, level1, level2, page_size, prediction_enabled, params.translation
    )
    return timing_from_schedule(schedule, translation, params, env)


def timing_from_schedule(
    schedule: TileSchedule,
    translation: TranslationStallEstimate,
    params: MMAETimingParameters,
    env: MemoryEnvironment,
) -> GEMMTimingBreakdown:
    """Combine a tile schedule and its translation stalls into the GEMM's time.

    The per-first-level-tile time is ``max(compute, dma)`` (double buffering
    overlaps transfers with computation); the first tile's buffer fill, the
    task setup/drain handshakes, and the exposed translation stalls are serial.

    This runs once per timing-cache miss, and Python 3.11's builtin ``min``
    and ``max`` parse their arguments generically, which costs more than
    the comparison, so each is a conditional expression that picks the
    value the builtin would: ``max(a, b)`` is ``b if b > a else a``.
    """
    shape, level2 = schedule.shape, schedule.level2

    dram_fraction = (
        schedule.dram_traffic_bytes / schedule.l3_traffic_bytes
        if schedule.l3_traffic_bytes
        else 0.0
    )
    dma_bpc = _dma_bandwidth_bytes_per_cycle(params, env, dram_fraction)
    dram_bpc = env.dram_bandwidth_share_bytes_per_s / params.frequency_hz

    dma_l3_cycles = schedule.l3_traffic_bytes / dma_bpc
    dma_dram_cycles = schedule.dram_traffic_bytes / dram_bpc
    dma_cycles = dma_dram_cycles if dma_dram_cycles > dma_l3_cycles else dma_l3_cycles

    # Per-tile overlap: both compute and DMA scale uniformly over tiles in this
    # closed form, so the overlapped total is max of the two sums plus the
    # per-tile reconfiguration cost.
    compute_cycles = schedule.compute_cycles
    overlapped = dma_cycles if dma_cycles > compute_cycles else compute_cycles
    excess_dma = dma_cycles - compute_cycles
    exposed_dma = excess_dma if excess_dma > 0.0 else 0.0

    # First fill: the first level-2 tile's A and B blocks cannot be overlapped.
    element = shape.precision.bytes_per_element
    ttr = shape.m if shape.m < level2.rows else level2.rows
    ttc = shape.n if shape.n < level2.cols else level2.cols
    k_block = level2.k_block
    ttk = shape.k if shape.k < k_block else k_block
    fill_bytes = (ttr * ttk + ttk * ttc) * element
    fill_cycles = fill_bytes / dma_bpc

    setup_cycles = (
        params.task_setup_cycles
        + params.drain_cycles
        + params.tile_setup_cycles * schedule.num_level1_tiles
    )

    total = overlapped + translation.stall_cycles + fill_cycles + setup_cycles

    # Two ops per MAC of the packed array, as SystolicArray.peak_gflops.
    peak_gflops = (
        2.0 * (params.sa_rows * params.sa_cols * shape.precision.simd_ways)
        * params.frequency_hz / 1e9
    )
    # Positional, in field order: keyword arguments to a class build a dict
    # on every call.
    return GEMMTimingBreakdown(
        shape, translation.prediction_enabled, params.frequency_hz, peak_gflops,
        compute_cycles, dma_l3_cycles, dma_dram_cycles, exposed_dma,
        translation.stall_cycles, setup_cycles, fill_cycles, total, translation,
    )
