"""Scalar references for the functional MPAIS fast paths: tile translation and the wavefront.

:func:`translate_tile` is the readable specification of
:meth:`~repro.mmae.data_engine.AcceleratorDataEngine.translate_tile` (paper
Sec. IV.A): enumerate the pages a tile touches element row by element row
(:func:`tile_page_addresses`), pre-walk the ones the mATLB lacks through the
shared MMU one request at a time (:func:`prewalk_pages`), then look every page
up in the mATLB (:func:`lookup`) and send each miss to the MMU as a demand
translation.  It composes only the per-address API of :mod:`repro.cpu.mmu`
and :mod:`repro.mem.tlb` (``MMU.prewalk``, ``MMU.translate_data``,
``TLBHierarchy.translate``, ``PageTableWalker.walk``), so it shares none of
the batched path's code.  Both fault the same way: a page with no
translation raises :class:`~repro.mem.page_table.PageFaultError` for the
first unmapped page in access order.  :func:`check_tile_stream` runs one tile
stream through both on twin stacks and diffs every counter and LRU order —
the contract the ``tile-translation`` fuzz kind, the parity tests and
``bench`` check.

:class:`SystolicArrayEmulator` steps the input-stationary wavefront PE by PE
(:class:`ProcessingElement`);
:class:`~repro.mmae.systolic_array.VectorizedSystolicArrayEmulator` must
reproduce its outputs, cycles and MAC counts bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cpu.mmu import MMU
from repro.gemm.precision import Precision
from repro.mem.address import DEFAULT_PAGE_SIZE, align_down
from repro.mem.page_table import PageFaultError, PageTable
from repro.mmae.data_engine import AcceleratorDataEngine
from repro.mmae.matlb import MATLB, MatrixLayout
from repro.mmae.systolic_array import TileComputeResult

__all__ = [
    "tile_page_addresses",
    "prewalk_pages",
    "lookup",
    "translate_tile",
    "translation_state",
    "check_tile_stream",
    "ProcessingElement",
    "SystolicArrayEmulator",
]


# ------------------------------------------------------------ tile translation
def tile_page_addresses(
    layout: MatrixLayout,
    row_start: int,
    row_count: int,
    col_start: int,
    col_count: int,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> List[int]:
    """Page-aligned virtual addresses a tile touches, in access order (Fig. 4).

    Walks each tile row from its first to its last byte a page at a time and
    keeps the first visit of every page.
    """
    if row_start < 0 or col_start < 0:
        raise ValueError("tile origin must be non-negative")
    if row_start + row_count > layout.rows or col_start + col_count > layout.cols:
        raise ValueError("tile exceeds the matrix bounds")
    pages: List[int] = []
    seen: Set[int] = set()
    for row in range(row_start, row_start + row_count):
        first = layout.element_vaddr(row, col_start)
        last = layout.element_vaddr(row, col_start + col_count - 1) + layout.element_bytes - 1
        page = align_down(first, page_size)
        while page <= last:
            if page not in seen:
                seen.add(page)
                pages.append(page)
            page += page_size
    return pages


def prewalk_pages(matlb: MATLB, mmu: MMU, asid: int, page_vaddrs: Sequence[int]) -> int:
    """Walk the pages the mATLB lacks through ``mmu``, one request each, and buffer them.

    Returns the walk cycles spent.  A full buffer evicts its least recently
    used entry; an unmapped page raises from :meth:`MMU.prewalk`.
    """
    entries = matlb._entries
    total_cycles = 0
    for vaddr in page_vaddrs:
        page_vaddr = align_down(vaddr, matlb.page_size)
        if page_vaddr in entries:
            continue
        result = mmu.prewalk(asid, page_vaddr)
        matlb.stats.prewalks += 1
        total_cycles += result.cycles
        if len(entries) >= matlb.capacity:
            entries.popitem(last=False)
            matlb.stats.evictions += 1
        entries[page_vaddr] = align_down(result.paddr, matlb.page_size)
    return total_cycles


def lookup(matlb: MATLB, vaddr: int) -> Optional[int]:
    """The translated physical address if ``vaddr``'s page is buffered, else ``None``.

    A hit refreshes the page's LRU position; hits and misses are counted.
    """
    page_vaddr = align_down(vaddr, matlb.page_size)
    paddr_page = matlb._entries.get(page_vaddr)
    if paddr_page is None:
        matlb.stats.misses += 1
        return None
    matlb._entries.move_to_end(page_vaddr)
    matlb.stats.hits += 1
    return paddr_page + (vaddr - page_vaddr)


def translate_tile(
    ade: AcceleratorDataEngine,
    mmu: MMU,
    asid: int,
    layout: MatrixLayout,
    tile_rows: Tuple[int, int],
    tile_cols: Tuple[int, int],
    prediction_enabled: bool,
) -> int:
    """Translate every page a tile touches through ``ade``'s mATLB; returns the stall cycles.

    With prediction the pages are pre-walked first (their walk cycles are
    hidden); then every page the mATLB misses costs a demand translation
    whose cycles stall the DMA stream.
    """
    matlb = ade.matlb
    pages = tile_page_addresses(layout, *tile_rows, *tile_cols, page_size=matlb.page_size)
    if prediction_enabled:
        prewalk_pages(matlb, mmu, asid, pages)
    stall_cycles = 0
    for page_vaddr in pages:
        if lookup(matlb, page_vaddr) is None:
            stall_cycles += mmu.translate_data(asid, page_vaddr).cycles
            ade.demand_translations += 1
    ade.translation_stall_cycles += stall_cycles
    return stall_cycles


def translation_state(mmu: MMU, ade: AcceleratorDataEngine) -> tuple:
    """Every counter and LRU order tile translation can change."""
    matlb, dtlb, walker = ade.matlb, mmu.dtlb, mmu.walker
    return (
        vars(matlb.stats).copy(),
        list(matlb._entries.items()),
        vars(mmu.stats).copy(),
        vars(dtlb.l1.stats).copy(),
        vars(dtlb.l2.stats).copy(),
        list(dtlb.l1._entries.items()),
        list(dtlb.l2._entries.items()),
        walker.walks_performed,
        walker.total_walk_cycles,
        walker._inserts,
        dict(walker._walk_cache),
        ade.translation_stall_cycles,
        ade.demand_translations,
    )


def check_tile_stream(
    page_table: PageTable,
    layout: MatrixLayout,
    tiles: Sequence[Tuple[int, int, int, int]],
    prediction_enabled: bool,
    matlb_entries: int = 64,
    tlb_entries: Tuple[int, int] = (48, 1024),
) -> Optional[str]:
    """Diff :meth:`AcceleratorDataEngine.translate_tile` against :func:`translate_tile`.

    Each ``(row, rows, col, cols)`` tile of ``tiles`` goes through a fresh
    MMU (``tlb_entries`` L1/L2 entries) and ADE (``matlb_entries`` mATLB
    entries) per side, both translating ``layout`` in ``page_table``'s
    address space.  Returns a description of the first difference, or
    ``None`` when the per-tile stall cycles and :func:`translation_state`
    are identical, or when both sides raise :class:`PageFaultError` at the
    same virtual address.
    """

    def run(translate):
        mmu = MMU(dtlb_entries=tlb_entries[0], l2_entries=tlb_entries[1],
                  page_size=page_table.page_size)
        mmu.register_page_table(page_table)
        ade = AcceleratorDataEngine(matlb=MATLB(matlb_entries, page_table.page_size))
        stalls = []
        try:
            for row, rows, col, cols in tiles:
                stalls.append(translate(ade, mmu, page_table.asid, layout, (row, rows),
                                        (col, cols), prediction_enabled))
        except PageFaultError as fault:
            return fault.vaddr, None
        return None, (stalls, translation_state(mmu, ade))

    fault, outcome = run(AcceleratorDataEngine.translate_tile)
    oracle_fault, oracle_outcome = run(translate_tile)
    if fault != oracle_fault:
        texts = ["no fault" if vaddr is None else f"a page fault at {vaddr:#x}"
                 for vaddr in (fault, oracle_fault)]
        return f"translate_tile raised {texts[0]}, the oracle {texts[1]}"
    if fault is None:
        if outcome[0] != oracle_outcome[0]:
            return "translate_tile and the oracle differ in per-tile stall cycles"
        if outcome[1] != oracle_outcome[1]:
            return "translate_tile and the oracle leave different translation state"
    return None


# ------------------------------------------------------------------ wavefront
@dataclass
class ProcessingElement:
    """One MAC unit of the systolic array (paper Fig. 1).

    The PE holds a stationary operand (an element of the B sub-matrix),
    receives an A element and a partial sum from its neighbours each cycle,
    multiply-accumulates, and forwards the partial sum down its column.  The
    SIMD modes of Fig. 2(c)/(d) pack two FP32 or four FP16 lanes into one
    PE, which then holds a short vector of stationary operands.
    """

    row: int
    col: int
    precision: Precision = Precision.FP64
    weights: List[float] = field(default_factory=list)
    macs_performed: int = 0

    @property
    def lanes(self) -> int:
        """Number of SIMD lanes in the current precision mode."""
        return self.precision.simd_ways

    def set_precision(self, precision: Precision) -> None:
        """Switch compute mode; clears the stationary operands."""
        self.precision = precision
        self.weights = []

    def load_weights(self, values: Sequence[float]) -> None:
        """Load the stationary operand vector (length must equal the lane count)."""
        if len(values) != self.lanes:
            raise ValueError(
                f"PE({self.row},{self.col}): expected {self.lanes} stationary values, got {len(values)}"
            )
        dtype = self.precision.dtype
        self.weights = [float(np.asarray(v, dtype=dtype)) for v in values]

    def mac(self, activations: Sequence[float], partial_sums: Sequence[float]) -> List[float]:
        """One cycle of work: ``partial + activation * weight`` per lane.

        Arithmetic is performed in the accumulator precision (FP32 for FP16
        inputs, native otherwise) to mirror the hardware datapath.
        """
        if not self.weights:
            raise RuntimeError(f"PE({self.row},{self.col}): stationary operands not loaded")
        if len(activations) != self.lanes or len(partial_sums) != self.lanes:
            raise ValueError(
                f"PE({self.row},{self.col}): expected {self.lanes} lanes of inputs"
            )
        in_dtype = self.precision.dtype
        acc_dtype = self.precision.accumulate_dtype
        results = []
        for activation, weight, partial in zip(activations, self.weights, partial_sums):
            a = np.asarray(activation, dtype=in_dtype).astype(acc_dtype)
            w = np.asarray(weight, dtype=in_dtype).astype(acc_dtype)
            p = np.asarray(partial, dtype=acc_dtype)
            results.append(float(a * w + p))
            self.macs_performed += 1
        return results


class SystolicArrayEmulator:
    """Cycle-stepped, PE-by-PE emulation of the input-stationary wavefront.

    The emulator instantiates real :class:`ProcessingElement` objects and
    advances the array cycle by cycle: A elements enter from the west edge
    skewed by row, partial sums propagate south, and results exit the south
    edge skewed by column.  It is quadratic in tile size, which is why
    production validates wavefronts with the vectorized emulator.
    """

    def __init__(self, rows: int = 4, cols: int = 4, precision: Precision = Precision.FP64) -> None:
        self.rows = rows
        self.cols = cols
        self.precision = precision
        self.pes = [
            [ProcessingElement(row=r, col=c, precision=precision) for c in range(cols)]
            for r in range(rows)
        ]

    def run_block(self, a_block: np.ndarray, b_block: np.ndarray) -> TileComputeResult:
        """Run one stationary block: ``a_block (tr x rows) @ b_block (rows x cols)``.

        The B block must match the array dimensions exactly (one stationary
        element per PE, single-lane mode).
        """
        if self.precision.simd_ways != 1:
            raise NotImplementedError("the emulator models the single-lane (FP64) dataflow")
        tr, depth = a_block.shape
        if depth != self.rows or b_block.shape != (self.rows, self.cols):
            raise ValueError(
                f"expected A (tr x {self.rows}) and B ({self.rows} x {self.cols}), "
                f"got {a_block.shape} and {b_block.shape}"
            )
        for r in range(self.rows):
            for c in range(self.cols):
                self.pes[r][c].load_weights([float(b_block[r, c])])

        acc_dtype = self.precision.accumulate_dtype
        output = np.zeros((tr, self.cols), dtype=acc_dtype)
        total_cycles = self.rows + self.cols + tr - 2
        # partial[r][c] holds the value travelling from PE (r-1, c) to PE (r, c);
        # a_in_flight[r][c] the A value travelling from PE (r, c-1) to PE (r, c).
        partial = np.zeros((self.rows + 1, self.cols), dtype=acc_dtype)
        a_in_flight = np.zeros((self.rows, self.cols + 1), dtype=acc_dtype)
        for cycle in range(total_cycles):
            new_partial = np.zeros_like(partial)
            new_a = np.zeros_like(a_in_flight)
            for r in range(self.rows):
                # A value entering row r this cycle (skewed injection).
                inject_index = cycle - r
                if 0 <= inject_index < tr:
                    new_a[r, 0] = a_block[inject_index, r]
                for c in range(self.cols):
                    # Column 0 consumes this cycle's injection directly.
                    a_value = new_a[r, 0] if c == 0 else a_in_flight[r, c]
                    p_value = partial[r, c]
                    result = self.pes[r][c].mac([float(a_value)], [float(p_value)])[0]
                    new_partial[r + 1, c] = result
                    new_a[r, c + 1] = a_value
            partial = new_partial
            a_in_flight = new_a
            # Results leave the south edge; the injection skew fixes their row.
            for c in range(self.cols):
                out_index = cycle - (self.rows - 1) - c
                if 0 <= out_index < tr:
                    output[out_index, c] = partial[self.rows, c]
        return TileComputeResult(output=output, cycles=total_cycles, macs=tr * self.rows * self.cols)
