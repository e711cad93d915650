"""The Accelerator Data Engine (ADE).

The ADE owns the MMAE's two DMA engines and is responsible for moving tile
data between the L3 system cache and the A/B/C scratchpad buffers (paper
Fig. 2(a)).  For the functional execution path it also fetches a GEMM's
operands from the :class:`~repro.mem.hostmem.HostMemory` view in the
datapath's form, and translates every tile's virtual addresses through the
mATLB (predictive path) or the shared MMU (demand path) so the tests exercise
the same translation machinery the timing model charges for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.isa.instructions import GEMMDescriptor
from repro.mem.hostmem import HostMemory
from repro.mmae.buffers import BufferSet
from repro.mmae.dma import DMAEngine
from repro.mmae.matlb import MATLB, MatrixLayout
from repro.mmae.systolic_array import datapath_operand


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
        self._tile_scope: Optional[tuple] = None
        self._tile_memo: Dict[Tuple[int, ...], Tuple[List[int], List[Tuple[int, int]]]] = {}

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
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fetch a GEMM's operands from host memory in the datapath's form, once per GEMM.

        Returns A and B as :func:`~repro.mmae.systolic_array.datapath_operand`
        casts them (through the storage precision into the accumulator
        precision), and a fresh accumulator-precision copy of C.  Every cast
        is elementwise, so each tile's block equals the cast of that block.
        """
        precision = descriptor.precision
        a = datapath_operand(memory.matrix_at(descriptor.addr_a), precision)
        b = datapath_operand(memory.matrix_at(descriptor.addr_b), precision)
        accumulator = memory.matrix_at(descriptor.addr_c).astype(precision.accumulate_dtype)
        return a, b, accumulator

    # ---------------------------------------------------------------- translation
    def _tile_pages(
        self,
        mmu,
        asid: int,
        layout: MatrixLayout,
        tile_rows: Tuple[int, int],
        tile_cols: Tuple[int, int],
    ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """A tile's page list and those pages' L1 DTLB keys, memoised per tile rectangle.

        The memo serves one (layout, ASID, MMU) triple and starts afresh when
        any of them changes.  The controller builds one layout per GEMM, so
        no memoised page crosses tasks.
        """
        scope = self._tile_scope
        if scope is None or scope[0] is not layout or scope[1] != asid or scope[2] is not mmu:
            self._tile_scope = (layout, asid, mmu)
            self._tile_memo = {}
        rectangle = (*tile_rows, *tile_cols)
        found = self._tile_memo.get(rectangle)
        if found is None:
            pages = self.matlb.predictor.tile_page_vaddrs(layout, *rectangle).tolist()
            found = self._tile_memo[rectangle] = (pages, mmu.data_keys(asid, pages))
        return found

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
        them.

        A tile that re-streams the pages of the tiles before it replays
        (DESIGN.md section 6).  With prediction, pages that are the mATLB's
        most recently used entries in order cost ``len(pages)`` hits and no
        stall.  Without prediction the mATLB stays empty (only prewalks fill
        it), so every lookup misses, and the demand batch replays in the L1
        DTLB by the same rule (:meth:`~repro.cpu.mmu.MMU.translate_data_cycles`).
        Any other tile takes the batched path.  A page with no translation
        raises :class:`~repro.mem.page_table.PageFaultError` for the first
        unmapped page in access order; the translation state after a fault is
        unspecified.
        """
        pages, keys = self._tile_pages(mmu, asid, layout, tile_rows, tile_cols)
        matlb = self.matlb
        if prediction_enabled:
            if matlb.suffix_matches(pages):
                # Replay: every prewalk skips and every lookup hits.
                matlb.stats.hits += len(pages)
                return 0
            matlb.prewalk_pages_batch(mmu, asid, pages)
        if prediction_enabled or len(matlb):
            paddrs = matlb.lookup_batch(pages).tolist()
            missing = [page for page, paddr in zip(pages, paddrs) if paddr < 0]
            keys = None
        else:
            # An empty mATLB: every lookup misses and leaves it empty.
            matlb.stats.misses += len(pages)
            missing = pages
        if not missing:
            return 0
        stall_cycles = mmu.translate_data_cycles(asid, missing, keys)
        self.demand_translations += len(missing)
        self.translation_stall_cycles += stall_cycles
        return stall_cycles

    #: The batched name of :meth:`translate_tile`, kept for callers that
    #: address it by that name.
    translate_tile_batch = translate_tile
