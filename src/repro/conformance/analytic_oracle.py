"""Per-tile and per-layer references for the analytic timing path.

:func:`build_tile_schedule` and :func:`estimate_translation_stalls` are the
readable specifications of their namesakes in :mod:`repro.mmae.dataflow` and
:mod:`repro.mmae.matlb`: they visit every first-level tile of
:meth:`~repro.gemm.tiling.TwoLevelTiling.level1_tiles` in schedule order and
add its compute cycles (its level-2 tiles timed by
:meth:`~repro.mmae.systolic_array.SystolicArray.tile_cycles`), traffic and
page walks one tile at a time.  The production versions evaluate each
distinct tile shape once, count its compute cycles in closed form and
weight it by its count, and must match these loops bit for bit (DESIGN.md
section 4.1).  That includes the DRAM traffic sum: production takes the
exact integer total when every tile's bytes are whole, and otherwise adds
one float per tile in this loop's schedule order.
:func:`estimate_gemm_timing` feeds the two through the production
:func:`~repro.mmae.dataflow.timing_from_schedule`, and
:func:`check_tile_schedule` diffs all three results — the contract the
``tile-schedule`` fuzz kind, the parity tests and ``bench tile_schedule``
check.

:func:`layer_stream_seconds` is the same kind of reference one level up, for
:func:`repro.core.mapping.layer_stream_seconds`: it partitions and times
every layer of a stream, where production times each distinct layer shape
once; the ``layer-stream`` fuzz kind and ``bench layer_stream`` check the
two agree bit for bit (DESIGN.md section 4.2).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterable, List, Optional, Tuple

from repro.core.mapping import partition_gemm
from repro.gemm.precision import Precision
from repro.gemm.tiling import TileConfig, TwoLevelTiling
from repro.gemm.workloads import GEMMShape
from repro.mem.address import DEFAULT_PAGE_SIZE
from repro.mmae import dataflow, matlb
from repro.mmae.dataflow import (
    GEMMTimingBreakdown,
    MemoryEnvironment,
    MMAETimingParameters,
    TileSchedule,
    timing_from_schedule,
)
from repro.mmae.matlb import (
    TranslationStallEstimate,
    TranslationTimingParameters,
    _unique_pages,
)
from repro.mmae.systolic_array import SystolicArray

__all__ = [
    "build_tile_schedule",
    "estimate_translation_stalls",
    "estimate_gemm_timing",
    "check_tile_schedule",
    "layer_stream_seconds",
]


# --------------------------------------------------------------- tile schedule
def _level1_tile_compute_cycles(
    array: SystolicArray, tile_rows: int, tile_cols: int, tile_depth: int,
    level2: TileConfig, precision: Precision,
) -> float:
    """Systolic-array cycles for one first-level tile, summed over its level-2 tiles.

    The level-2 grid contains at most two distinct extents per dimension (the
    full tile size and one edge remainder), so the sum is computed from the
    up-to-eight distinct (rows, cols, depth) combinations instead of iterating
    every micro tile.
    """
    def split(extent: int, tile: int) -> List[tuple[int, int]]:
        full, remainder = divmod(extent, tile)
        parts = []
        if full:
            parts.append((tile, full))
        if remainder:
            parts.append((remainder, 1))
        return parts

    total = 0.0
    for rows, rows_count in split(tile_rows, level2.rows):
        for cols, cols_count in split(tile_cols, level2.cols):
            for depth, depth_count in split(tile_depth, level2.k_block):
                count = rows_count * cols_count * depth_count
                total += count * array.tile_cycles(rows, cols, depth, precision)
    return total


def build_tile_schedule(
    shape: GEMMShape,
    level1: TileConfig,
    level2: TileConfig,
    params: MMAETimingParameters,
    env: MemoryEnvironment,
) -> TileSchedule:
    """Compute the static schedule statistics (compute cycles and traffic volumes)."""
    array = SystolicArray(params.sa_rows, params.sa_cols, params.frequency_hz)
    tiling = TwoLevelTiling(shape, level1, level2)
    element = shape.precision.bytes_per_element

    compute_cycles = 0.0
    l3_traffic = 0.0
    dram_traffic = 0.0
    num_level1 = 0
    num_level2 = 0
    for tile in tiling.level1_tiles():
        num_level1 += 1
        num_level2 += tiling.num_level2_tiles(tile)
        compute_cycles += _level1_tile_compute_cycles(
            array, tile.rows, tile.cols, tile.depth, level2, shape.precision
        )
        reloads_a = math.ceil(tile.cols / level2.cols)
        reloads_b = math.ceil(tile.rows / level2.rows)
        a_panel = tile.rows * tile.depth * element
        b_panel = tile.depth * tile.cols * element
        c_tile = tile.rows * tile.cols * element
        tile_l3 = reloads_a * a_panel + reloads_b * b_panel + 2 * c_tile
        # DRAM traffic: the compulsory panel reads plus the fraction of the
        # re-reads that do not fit in this node's share of the L3.
        compulsory = a_panel + b_panel + 2 * c_tile
        working_set = a_panel + b_panel + c_tile
        reuse_fraction = min(1.0, env.l3_share_bytes / working_set) if working_set else 1.0
        tile_dram = compulsory + (tile_l3 - compulsory) * (1.0 - reuse_fraction)
        l3_traffic += tile_l3
        dram_traffic += tile_dram

    return TileSchedule(
        shape=shape,
        level1=level1,
        level2=level2,
        num_level1_tiles=num_level1,
        num_level2_tiles=num_level2,
        compute_cycles=compute_cycles,
        l3_traffic_bytes=l3_traffic,
        dram_traffic_bytes=dram_traffic,
    )


# ----------------------------------------------------------- translation stalls
def estimate_translation_stalls(
    shape: GEMMShape,
    level1: TileConfig,
    level2: TileConfig,
    page_size: int = DEFAULT_PAGE_SIZE,
    prediction_enabled: bool = True,
    params: TranslationTimingParameters = TranslationTimingParameters(),
) -> TranslationStallEstimate:
    """Estimate the DMA stall cycles caused by address translation for one GEMM.

    The derivation (DESIGN.md Section 5) follows the paper's Fig. 4 reasoning:
    when a matrix row spans more than one page, every tile row starts on a new
    page, so a first-level tile's A/B/C panels touch far more pages than the
    shared L2 TLB holds; every re-streaming of a panel (once per second-level
    column/row block) then re-walks the evicted entries.  With prediction the
    mATLB issues those walks ahead of the DMA streams and only a small residual
    remains exposed.
    """
    element = shape.precision.bytes_per_element
    tiling = TwoLevelTiling(shape, level1, level2)
    total_first = 0
    total_retouch = 0
    total_unique = 0
    for tile in tiling.level1_tiles():
        pages_a = _unique_pages(tile.rows, tile.depth * element, shape.k * element, page_size)
        pages_b = _unique_pages(tile.depth, tile.cols * element, shape.n * element, page_size)
        pages_c = _unique_pages(tile.rows, tile.cols * element, shape.n * element, page_size)
        unique = pages_a + pages_b + pages_c
        total_unique += unique
        thrash_fraction = max(0.0, (unique - params.shared_tlb_entries) / unique) if unique else 0.0
        touches_a = math.ceil(tile.cols / level2.cols)
        touches_b = math.ceil(tile.rows / level2.rows)
        retouch = (
            (touches_a - 1) * pages_a * thrash_fraction
            + (touches_b - 1) * pages_b * thrash_fraction
        )
        total_first += unique
        total_retouch += int(round(retouch))

    stall_cycles = (
        total_first * params.first_touch_walk_cycles
        + total_retouch * params.retouch_walk_cycles
    )
    if prediction_enabled:
        stall_cycles *= params.predicted_exposed_fraction
    return TranslationStallEstimate(
        unique_pages=total_unique,
        first_touch_walks=total_first,
        retouch_walks=total_retouch,
        stall_cycles=stall_cycles,
        prediction_enabled=prediction_enabled,
    )


# ------------------------------------------------------------------ end to end
def estimate_gemm_timing(
    shape: GEMMShape,
    level1: TileConfig,
    level2: TileConfig,
    params: MMAETimingParameters,
    env: MemoryEnvironment,
    prediction_enabled: bool = True,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> GEMMTimingBreakdown:
    """:func:`repro.mmae.dataflow.estimate_gemm_timing` on the per-tile loops."""
    schedule = build_tile_schedule(shape, level1, level2, params, env)
    translation = estimate_translation_stalls(
        shape, level1, level2, page_size=page_size,
        prediction_enabled=prediction_enabled, params=params.translation,
    )
    return timing_from_schedule(schedule, translation, params, env)


def _first_difference(name: str, production: object, oracle: object) -> Optional[str]:
    """The first field whose ``repr`` differs (``repr`` keeps every float bit and type)."""
    for item in dataclasses.fields(production):
        ours, theirs = getattr(production, item.name), getattr(oracle, item.name)
        if repr(ours) != repr(theirs):
            return f"{name}.{item.name}: {ours!r} != oracle {theirs!r}"
    return None


def _outcome(run: Callable[[], object]) -> Tuple[object, Optional[str]]:
    try:
        return run(), None
    except ValueError as error:
        return None, str(error)


def check_tile_schedule(
    shape: GEMMShape,
    level1: TileConfig,
    level2: TileConfig,
    params: MMAETimingParameters,
    env: MemoryEnvironment,
    prediction_enabled: bool = True,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> Optional[str]:
    """Diff the class-based schedule, stall estimate and breakdown against the oracle.

    Returns a description of the first field that differs, or ``None`` when
    :class:`~repro.mmae.dataflow.TileSchedule`,
    :class:`~repro.mmae.matlb.TranslationStallEstimate` and
    :class:`~repro.mmae.dataflow.GEMMTimingBreakdown` agree in every field,
    or when both sides raise the same :class:`ValueError`.
    """
    translation_args = dict(page_size=page_size, prediction_enabled=prediction_enabled,
                            params=params.translation)
    pairs = [
        ("TileSchedule",
         lambda: dataflow.build_tile_schedule(shape, level1, level2, params, env),
         lambda: build_tile_schedule(shape, level1, level2, params, env)),
        ("TranslationStallEstimate",
         lambda: matlb.estimate_translation_stalls(shape, level1, level2, **translation_args),
         lambda: estimate_translation_stalls(shape, level1, level2, **translation_args)),
        ("GEMMTimingBreakdown",
         lambda: dataflow.estimate_gemm_timing(shape, level1, level2, params, env,
                                               prediction_enabled, page_size),
         lambda: estimate_gemm_timing(shape, level1, level2, params, env,
                                      prediction_enabled, page_size)),
    ]
    for name, production, oracle in pairs:
        (ours, error), (theirs, oracle_error) = _outcome(production), _outcome(oracle)
        if error != oracle_error:
            texts = ["no error" if text is None else f"ValueError({text!r})"
                     for text in (error, oracle_error)]
            return f"{name}: production raised {texts[0]}, the oracle {texts[1]}"
        if error is None:
            difference = _first_difference(name, ours, theirs)
            if difference is not None:
                return difference
    return None


# ---------------------------------------------------------------- layer stream
def layer_stream_seconds(
    layers: Iterable[GEMMShape],
    num_nodes: int,
    node_seconds: Callable[[GEMMShape], float],
    layer_overhead_s: float = 0.0,
) -> float:
    """:func:`repro.core.mapping.layer_stream_seconds`, one layer at a time.

    Every layer is partitioned and each of its sub-GEMMs timed, repeats
    included; the layer lasts as long as its slowest sub-GEMM, and the
    layers add left to right.
    """
    total = 0.0
    for shape in layers:
        plan = partition_gemm(shape, num_nodes)
        total += max(node_seconds(sub) for sub in plan.sub_shapes) + layer_overhead_s
    return total
