"""The Accelerator Data Engine (ADE).

The ADE owns the MMAE's two DMA engines and is responsible for moving tile
data between the L3 system cache and the A/B/C scratchpad buffers (paper
Fig. 2(a)).  For the functional execution path it also performs the actual
NumPy sub-block reads/writes against the :class:`~repro.mem.hostmem.HostMemory`
view, translating virtual addresses through the mATLB (predictive path) or the
shared MMU (demand path) so the tests exercise the same translation machinery
the timing model charges for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.gemm.tiling import Tile
from repro.isa.instructions import GEMMDescriptor
from repro.mem.hostmem import HostMemory
from repro.mmae.buffers import BufferSet
from repro.mmae.dma import DMAEngine
from repro.mmae.matlb import MATLB, MatrixLayout


@dataclass
class TileTransferPlan:
    """Byte volumes a second-level tile moves through the DMA engines."""

    a_bytes: int
    b_bytes: int
    c_read_bytes: int
    c_write_bytes: int

    @property
    def load_bytes(self) -> int:
        return self.a_bytes + self.b_bytes + self.c_read_bytes

    @property
    def total_bytes(self) -> int:
        return self.load_bytes + self.c_write_bytes


class AcceleratorDataEngine:
    """Schedules tile transfers over the MMAE's DMA engines."""

    def __init__(
        self,
        buffers: Optional[BufferSet] = None,
        num_engines: int = 2,
        frequency_hz: float = 2.5e9,
        matlb: Optional[MATLB] = None,
    ) -> None:
        if num_engines <= 0:
            raise ValueError("the ADE needs at least one DMA engine")
        self.buffers = buffers if buffers is not None else BufferSet()
        self.engines: List[DMAEngine] = [
            DMAEngine(engine_id=index, frequency_hz=frequency_hz) for index in range(num_engines)
        ]
        self.matlb = matlb if matlb is not None else MATLB()
        self.translation_stall_cycles = 0
        self.demand_translations = 0

    def transfer_cycles(self, plan: TileTransferPlan, round_trip_latency_cycles: float = 0.0) -> int:
        """Cycles to move a tile's data, splitting the load across both engines."""
        per_engine = plan.total_bytes / len(self.engines)
        results = [
            engine.transfer(int(round(per_engine)), round_trip_latency_cycles)
            for engine in self.engines
        ]
        return max(result.total_cycles for result in results)

    # ----------------------------------------------------------------- functional
    def load_operands(
        self,
        memory: HostMemory,
        descriptor: GEMMDescriptor,
        tile: Tile,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read the A, B and C sub-blocks of a tile from host memory."""
        a = memory.matrix_at(descriptor.addr_a)
        b = memory.matrix_at(descriptor.addr_b)
        c = memory.matrix_at(descriptor.addr_c)
        a_block = a[tile.row_start : tile.row_end, tile.k_start : tile.k_end]
        b_block = b[tile.k_start : tile.k_end, tile.col_start : tile.col_end]
        c_block = c[tile.row_start : tile.row_end, tile.col_start : tile.col_end]
        return a_block, b_block, c_block

    # ---------------------------------------------------------------- translation
    def translate_tile(
        self,
        mmu,
        asid: int,
        layout: MatrixLayout,
        tile_rows: Tuple[int, int],
        tile_cols: Tuple[int, int],
        prediction_enabled: bool,
    ) -> int:
        """Translate every page a tile touches; returns the exposed stall cycles.

        With prediction the mATLB pre-walks the tile's pages through the shared
        MMU (walk cycles are treated as hidden) and the demand lookups hit;
        without it each page missing from the mATLB costs a demand walk.  The
        prewalk and the demand stream each go to the MMU as one batch: the
        mATLB and the MMU never touch each other's state, so splitting the
        per-page loop of :func:`repro.conformance.functional_oracle.translate_tile`
        into two passes leaves every counter and LRU order as the loop leaves
        them.  A page with no translation raises
        :class:`~repro.mem.page_table.PageFaultError` for the first unmapped
        page in access order; the translation state after a fault is
        unspecified.
        """
        row_start, row_count = tile_rows
        col_start, col_count = tile_cols
        pages = self.matlb.predictor.tile_page_vaddrs(
            layout, row_start, row_count, col_start, col_count
        )
        page_list = pages.tolist()
        if self.matlb.buffer_matches(page_list):
            # Steady-state reuse tile: the prewalk skips every page (no stats,
            # no LRU change) and the lookup stream hits every page while
            # leaving the LRU order exactly as it is, so the whole pass
            # reduces to the bulk hit count with zero stall cycles.
            self.matlb.stats.hits += len(page_list)
            return 0
        if prediction_enabled:
            self.matlb.prewalk_pages_batch(mmu, asid, pages)
        paddrs = self.matlb.lookup_batch(pages)
        missing = pages[paddrs < 0]
        stall_cycles = 0
        if missing.size:
            demand = mmu.translate_data_batch(asid, missing)
            self.demand_translations += int(missing.size)
            stall_cycles = int(demand.cycles.sum())
        self.translation_stall_cycles += stall_cycles
        return stall_cycles

    #: The batched name of :meth:`translate_tile`, kept for callers that
    #: address it by that name.
    translate_tile_batch = translate_tile
