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

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.gemm.precision import Precision
from repro.gemm.tiling import TileConfig, TwoLevelTiling, tile_classes
from repro.gemm.workloads import GEMMShape
from repro.mmae.matlb import (
    TranslationStallEstimate,
    TranslationTimingParameters,
    estimate_translation_stalls,
)
from repro.mmae.systolic_array import SystolicArray


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
        if self.frequency_hz <= 0 or self.dma_engines <= 0:
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


def _level1_tile_compute_cycles(
    array: SystolicArray, tile_rows: int, tile_cols: int, tile_depth: int,
    level2: TileConfig, precision: Precision,
) -> int:
    """Systolic-array cycles for one first-level tile, summed over its level-2 tiles.

    The level-2 grid has at most eight distinct tile shapes
    (:func:`~repro.gemm.tiling.tile_classes`), so each is timed once and
    weighted by its count instead of iterating every micro tile.
    """
    total = 0
    for rows, rows_count in tile_classes(tile_rows, level2.rows):
        for cols, cols_count in tile_classes(tile_cols, level2.cols):
            for depth, depth_count in tile_classes(tile_depth, level2.k_block):
                count = rows_count * cols_count * depth_count
                total += count * array.tile_cycles(rows, cols, depth, precision)
    return total


def _schedule_order(classes: List[Tuple[int, int]]) -> List[int]:
    """Class index of every tile along one dimension, in schedule order."""
    return [index for index, (_, count) in enumerate(classes) for _ in range(count)]


def build_tile_schedule(
    shape: GEMMShape,
    level1: TileConfig,
    level2: TileConfig,
    params: MMAETimingParameters,
    env: MemoryEnvironment,
) -> TileSchedule:
    """Compute the static schedule statistics (compute cycles and traffic volumes).

    Each distinct first-level tile shape (at most eight, see
    :func:`~repro.gemm.tiling.tile_classes`) is evaluated once.  The
    integer-valued sums (tile counts, compute cycles, L3 bytes) are its value
    times its count, exact because every term is an integer below 2**53.  A
    tile's DRAM traffic turns fractional once its working set overflows the
    L3 share, so that sum is still added tile by tile in schedule order, as
    the per-tile reference
    :func:`repro.conformance.analytic_oracle.build_tile_schedule` does.
    """
    TwoLevelTiling(shape, level1, level2)  # rejects a level-2 tile larger than level 1
    array = SystolicArray(params.sa_rows, params.sa_cols, params.frequency_hz)
    element = shape.precision.bytes_per_element
    row_classes = tile_classes(shape.m, level1.rows)
    col_classes = tile_classes(shape.n, level1.cols)
    depth_classes = tile_classes(shape.k, level1.k_block)

    compute_cycles = 0
    l3_traffic = 0
    num_level1 = 0
    num_level2 = 0
    depth_order = _schedule_order(depth_classes)
    # dram_runs[r][c]: the DRAM bytes of each tile of row class r and column
    # class c, one entry per tile in depth (schedule) order.
    dram_runs: List[List[List[float]]] = []
    for rows, rows_count in row_classes:
        reloads_b = math.ceil(rows / level2.rows)
        row_runs = []
        for cols, cols_count in col_classes:
            reloads_a = math.ceil(cols / level2.cols)
            depth_dram = []
            for depth, depth_count in depth_classes:
                count = rows_count * cols_count * depth_count
                num_level1 += count
                num_level2 += count * reloads_b * reloads_a * math.ceil(depth / level2.k_block)
                compute_cycles += count * _level1_tile_compute_cycles(
                    array, rows, cols, depth, level2, shape.precision
                )
                a_panel = rows * depth * element
                b_panel = depth * cols * element
                c_tile = rows * cols * element
                tile_l3 = reloads_a * a_panel + reloads_b * b_panel + 2 * c_tile
                l3_traffic += count * tile_l3
                # DRAM traffic: the compulsory panel reads plus the fraction of the
                # re-reads that do not fit in this node's share of the L3.
                compulsory = a_panel + b_panel + 2 * c_tile
                working_set = a_panel + b_panel + c_tile
                reuse_fraction = min(1.0, env.l3_share_bytes / working_set)
                depth_dram.append(compulsory + (tile_l3 - compulsory) * (1.0 - reuse_fraction))
            row_runs.append([depth_dram[d] for d in depth_order])
        dram_runs.append(row_runs)

    dram_traffic = 0.0
    for r in _schedule_order(row_classes):
        for c in _schedule_order(col_classes):
            for tile_dram in dram_runs[r][c]:
                dram_traffic += tile_dram

    return TileSchedule(
        shape=shape,
        level1=level1,
        level2=level2,
        num_level1_tiles=num_level1,
        num_level2_tiles=num_level2,
        compute_cycles=float(compute_cycles),
        l3_traffic_bytes=float(l3_traffic),
        dram_traffic_bytes=dram_traffic,
    )


def _dma_bandwidth_bytes_per_cycle(
    params: MMAETimingParameters, env: MemoryEnvironment, dram_fraction: float
) -> float:
    """Sustained aggregate DMA bandwidth of the node in bytes per MMAE cycle.

    The engines are latency-limited (Little's law over their outstanding-line
    windows) with the round-trip latency weighted by how much of the traffic
    has to travel beyond the L3, and capped by both the engines' datapaths and
    the node's NoC port.
    """
    cycle_ns = 1e9 / params.frequency_hz
    round_trip_ns = env.l3_round_trip_ns + dram_fraction * env.dram_round_trip_ns
    round_trip_cycles = round_trip_ns / cycle_ns
    window_bytes = params.dma_outstanding_lines * params.line_size
    per_engine = min(params.dma_peak_bytes_per_cycle, window_bytes / round_trip_cycles)
    aggregate = per_engine * params.dma_engines
    noc_cap = env.noc_node_bandwidth_bytes_per_s / params.frequency_hz
    return min(aggregate, noc_cap)


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
        shape, level1, level2,
        page_size=page_size,
        prediction_enabled=prediction_enabled,
        params=params.translation,
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
    """
    shape, level2 = schedule.shape, schedule.level2
    array = SystolicArray(params.sa_rows, params.sa_cols, params.frequency_hz)

    dram_fraction = (
        schedule.dram_traffic_bytes / schedule.l3_traffic_bytes
        if schedule.l3_traffic_bytes
        else 0.0
    )
    dma_bpc = _dma_bandwidth_bytes_per_cycle(params, env, dram_fraction)
    dram_bpc = env.dram_bandwidth_share_bytes_per_s / params.frequency_hz

    dma_l3_cycles = schedule.l3_traffic_bytes / dma_bpc
    dma_dram_cycles = schedule.dram_traffic_bytes / dram_bpc
    dma_cycles = max(dma_l3_cycles, dma_dram_cycles)

    # Per-tile overlap: both compute and DMA scale uniformly over tiles in this
    # closed form, so the overlapped total is max of the two sums plus the
    # per-tile reconfiguration cost.
    overlapped = max(schedule.compute_cycles, dma_cycles)
    exposed_dma = max(0.0, dma_cycles - schedule.compute_cycles)

    # First fill: the first level-2 tile's A and B blocks cannot be overlapped.
    element = shape.precision.bytes_per_element
    ttr = min(level2.rows, shape.m)
    ttc = min(level2.cols, shape.n)
    ttk = min(level2.k_block, shape.k)
    fill_bytes = (ttr * ttk + ttk * ttc) * element
    fill_cycles = fill_bytes / dma_bpc

    setup_cycles = (
        params.task_setup_cycles
        + params.drain_cycles
        + params.tile_setup_cycles * schedule.num_level1_tiles
    )

    total = overlapped + translation.stall_cycles + fill_cycles + setup_cycles

    return GEMMTimingBreakdown(
        shape=shape,
        prediction_enabled=translation.prediction_enabled,
        frequency_hz=params.frequency_hz,
        peak_gflops=array.peak_gflops(shape.precision),
        compute_cycles=schedule.compute_cycles,
        dma_l3_cycles=dma_l3_cycles,
        dma_dram_cycles=dma_dram_cycles,
        exposed_dma_cycles=exposed_dma,
        translation_stall_cycles=translation.stall_cycles,
        setup_cycles=setup_cycles,
        fill_cycles=fill_cycles,
        total_cycles=total,
        translation=translation,
    )
