"""Two-level tiling of GEMM operands, as used by the MACO evaluation.

The paper tiles the output matrix twice (Section V.B.2): a first-level tile of
``<Tr, Tc> = <1024, 1024>`` selects the working set stashed/locked in the L3
cache, and a second-level tile of ``<ttr, ttc> = <64, 64>`` selects the block
that is streamed through the MMAE's A/B/C buffers and the systolic array.
The reduction dimension K is blocked with the second-level factor as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.gemm.workloads import GEMMShape


@dataclass(frozen=True)
class TileConfig:
    """Tiling factors for one level of the hierarchy."""

    rows: int
    cols: int
    depth: int = 0  # 0 means "use cols" (square blocking of K)

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0 or self.depth < 0:
            raise ValueError(f"invalid tile config {self}")

    @property
    def k_block(self) -> int:
        return self.depth if self.depth else self.cols


#: First-level tiling used throughout the paper's evaluation.
PAPER_LEVEL1 = TileConfig(rows=1024, cols=1024)
#: Second-level tiling used throughout the paper's evaluation.
PAPER_LEVEL2 = TileConfig(rows=64, cols=64)


@dataclass(frozen=True)
class Tile:
    """A rectangular region of the output matrix plus its K extent."""

    row_start: int
    row_end: int
    col_start: int
    col_end: int
    k_start: int
    k_end: int

    @property
    def rows(self) -> int:
        return self.row_end - self.row_start

    @property
    def cols(self) -> int:
        return self.col_end - self.col_start

    @property
    def depth(self) -> int:
        return self.k_end - self.k_start

    @property
    def macs(self) -> int:
        return self.rows * self.cols * self.depth


def tile_ranges(extent: int, tile: int) -> List[Tuple[int, int]]:
    """Split ``[0, extent)`` into consecutive ranges of at most ``tile`` elements."""
    if extent <= 0:
        raise ValueError(f"extent must be positive, got {extent}")
    if tile <= 0:
        raise ValueError(f"tile must be positive, got {tile}")
    ranges = []
    start = 0
    while start < extent:
        end = min(start + tile, extent)
        ranges.append((start, end))
        start = end
    return ranges


def tile_classes(extent: int, tile: int) -> List[Tuple[int, int]]:
    """The distinct range lengths of :func:`tile_ranges` with their counts.

    Every range but the last spans a full ``tile``, so a dimension has at most
    two classes, in schedule order: ``(tile, extent // tile)`` and the
    remainder ``(extent % tile, 1)``.  A grid of tiles therefore has at most
    eight distinct tile shapes, which lets the timing model evaluate each once
    and weight it by its count instead of visiting every tile.
    """
    if extent <= 0:
        raise ValueError(f"extent must be positive, got {extent}")
    if tile <= 0:
        raise ValueError(f"tile must be positive, got {tile}")
    full, remainder = divmod(extent, tile)
    classes = []
    if full:
        classes.append((tile, full))
    if remainder:
        classes.append((remainder, 1))
    return classes


def check_tile_levels(level1: TileConfig, level2: TileConfig) -> None:
    """Reject a second-level tile wider or taller than the first-level tile."""
    if level2.rows > level1.rows or level2.cols > level1.cols:
        raise ValueError("second-level tile must not exceed the first-level tile")


class TwoLevelTiling:
    """Enumerates the two-level tile hierarchy for a GEMM shape.

    The iteration order matches the MACO schedule: first-level tiles of C are
    visited in row-major order; within a first-level tile, K is blocked at the
    first-level granularity and the second-level (ttr, ttc, ttk) blocks stream
    through the systolic array.
    """

    def __init__(
        self,
        shape: GEMMShape,
        level1: TileConfig = PAPER_LEVEL1,
        level2: TileConfig = PAPER_LEVEL2,
    ) -> None:
        check_tile_levels(level1, level2)
        self.shape = shape
        self.level1 = level1
        self.level2 = level2

    # ------------------------------------------------------------------ counts
    def level2_grid(self, tile: Tile) -> Tuple[int, int, int]:
        """Number of second-level tiles along (M, N, K) inside a first-level tile."""
        return (
            math.ceil(tile.rows / self.level2.rows),
            math.ceil(tile.cols / self.level2.cols),
            math.ceil(tile.depth / self.level2.k_block),
        )

    def num_level2_tiles(self, tile: Tile) -> int:
        grid_m, grid_n, grid_k = self.level2_grid(tile)
        return grid_m * grid_n * grid_k

    # --------------------------------------------------------------- iteration
    def level1_tiles(self) -> Iterator[Tile]:
        """Yield the first-level tiles in schedule order."""
        col_ranges = tile_ranges(self.shape.n, self.level1.cols)
        k_ranges = tile_ranges(self.shape.k, self.level1.k_block)
        for row_start, row_end in tile_ranges(self.shape.m, self.level1.rows):
            for col_start, col_end in col_ranges:
                for k_start, k_end in k_ranges:
                    yield Tile(row_start, row_end, col_start, col_end, k_start, k_end)

    def level2_tiles(self, parent: Tile) -> Iterator[Tile]:
        """Yield the second-level tiles of a first-level tile in schedule order."""
        row0, col0, k0 = parent.row_start, parent.col_start, parent.k_start
        col_ranges = tile_ranges(parent.cols, self.level2.cols)
        k_ranges = tile_ranges(parent.depth, self.level2.k_block)
        for row_start, row_end in tile_ranges(parent.rows, self.level2.rows):
            for col_start, col_end in col_ranges:
                for k_start, k_end in k_ranges:
                    yield Tile(
                        row0 + row_start,
                        row0 + row_end,
                        col0 + col_start,
                        col0 + col_end,
                        k0 + k_start,
                        k0 + k_end,
                    )
