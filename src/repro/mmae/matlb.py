"""Predictive address translation: the mATLB (paper Section IV.A).

The MMAE's DMA engines operate on virtual addresses, and for large matrices a
tile's rows land on many different pages (Fig. 4), so demand page-table walks
would stall the DMA streams.  The mATLB exploits the fact that the access
pattern is fully determined by the GEMM parameters (matrix column count, tile
size, page size) that the CPU configures in advance:

1. the :class:`PageTablePredictor` computes, for each upcoming tile, the
   virtual address of the first element in every page the tile will touch;
2. the mATLB sends those addresses to the CPU core's MMU for page-table walks
   ahead of time and buffers the returned translations locally;
3. the DMA engines consume translations from the buffer, so the walk latency
   overlaps with computation instead of stalling the transfer.

Two views are provided: a functional mATLB used by the controller's functional
mode, and a closed-form :func:`estimate_translation_stalls` used by the parameter
sweeps of Fig. 6 (see DESIGN.md for the derivation and calibration).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.gemm.tiling import TileConfig, check_tile_levels, tile_classes
from repro.gemm.workloads import GEMMShape
from repro.mem.address import DEFAULT_PAGE_SIZE
from repro.mem.page_table import PageFaultError
from repro.mem.tlb import mru_suffix_matches


# --------------------------------------------------------------------------- prediction
@dataclass(frozen=True)
class MatrixLayout:
    """Row-major layout of one operand matrix in virtual memory."""

    base_vaddr: int
    rows: int
    cols: int
    row_stride_elements: int
    element_bytes: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if self.row_stride_elements < self.cols:
            raise ValueError("row stride cannot be smaller than the column count")

    def element_vaddr(self, row: int, col: int) -> int:
        return self.base_vaddr + (row * self.row_stride_elements + col) * self.element_bytes


class PageTablePredictor:
    """Computes which pages a rectangular tile of a matrix will touch (Fig. 4).

    The enumeration is vectorized: the per-row page runs collapse to
    ``arange``/``unique`` arithmetic, and because the page pattern of a tile
    depends only on its geometry (row count, segment bytes, row stride) and on
    the first element's offset within its page, interior tiles of a sweep share
    one cached *offset template* that is rebased per tile instead of being
    re-enumerated.  The element-at-a-time reference is
    :func:`repro.conformance.functional_oracle.tile_page_addresses`; the two
    are bit-identical, page order included, which the parity tests enforce.
    """

    #: Geometry templates kept before the memo is reset (each is a small array).
    TEMPLATE_CACHE_ENTRIES = 1024

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError("page size must be a positive power of two")
        self.page_size = page_size
        self._templates: Dict[Tuple[int, int, int, int], np.ndarray] = {}

    def _page_offsets(self, first_offset: int, row_count: int, segment_bytes: int,
                      row_stride_bytes: int) -> np.ndarray:
        """Deduplicated page offsets (relative to the first element's page base).

        ``first_offset`` is the first element's offset within its page; the
        returned array is the tile's page-aligned addresses minus
        ``align_down(first_element_vaddr, page_size)``, in access order.
        """
        shift = self.page_size.bit_length() - 1
        rows = np.arange(row_count, dtype=np.int64)
        row_first = first_offset + rows * row_stride_bytes
        row_last = row_first + segment_bytes - 1
        first_page = row_first >> shift
        counts = (row_last >> shift) - first_page + 1
        total = int(counts.sum())
        if total <= 0:
            return np.empty(0, dtype=np.int64)
        # Flatten the per-row page runs: page index p of row r is
        # first_page[r] + p, visited rows-outer / pages-inner.
        run_starts = np.cumsum(counts) - counts
        flat = np.repeat(first_page, counts) + (
            np.arange(total, dtype=np.int64) - np.repeat(run_starts, counts)
        )
        # Deduplicate keeping the first occurrence, preserving access order.
        _, first_seen = np.unique(flat, return_index=True)
        return flat[np.sort(first_seen)] << shift

    def tile_page_vaddrs(
        self,
        layout: MatrixLayout,
        row_start: int,
        row_count: int,
        col_start: int,
        col_count: int,
    ) -> np.ndarray:
        """Page-aligned virtual addresses the tile touches, in access order.

        This reproduces the observation of Fig. 4: the first element located
        in each page determines the pages the DMA stream will need translated.
        """
        if row_start < 0 or col_start < 0:
            raise ValueError("tile origin must be non-negative")
        if row_start + row_count > layout.rows or col_start + col_count > layout.cols:
            raise ValueError("tile exceeds the matrix bounds")
        element = layout.element_bytes
        stride_bytes = layout.row_stride_elements * element
        first = layout.base_vaddr + (row_start * layout.row_stride_elements + col_start) * element
        first_offset = first & (self.page_size - 1)
        key = (row_count, col_count * element, stride_bytes, first_offset)
        offsets = self._templates.get(key)
        if offsets is None:
            offsets = self._page_offsets(first_offset, row_count, col_count * element, stride_bytes)
            if len(self._templates) >= self.TEMPLATE_CACHE_ENTRIES:
                self._templates.clear()
            self._templates[key] = offsets
        return (first - first_offset) + offsets


# --------------------------------------------------------------------------- functional mATLB
@dataclass
class MATLBStats:
    prewalks: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class MATLB:
    """The MMAE-local buffer of pre-walked translations."""

    def __init__(self, entries: int = 64, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if entries <= 0:
            raise ValueError("mATLB needs at least one entry")
        self.capacity = entries
        self.page_size = page_size
        self.predictor = PageTablePredictor(page_size)
        self.stats = MATLBStats()
        self._entries: "OrderedDict[int, int]" = OrderedDict()  # page vaddr -> page paddr

    def __len__(self) -> int:
        return len(self._entries)

    def prewalk_pages_batch(self, mmu, asid: int, page_vaddrs: Sequence[int]) -> int:
        """Walk the pages the buffer lacks through the shared MMU and buffer them.

        Returns the walk cycles spent (the caller decides whether they are
        hidden).  Pages already buffered are skipped, and pages made resident
        or evicted earlier in this very batch are accounted for, as the
        per-page loop of :func:`repro.conformance.functional_oracle.prewalk_pages`
        does.  The buffer inserts resolve translations directly against the
        page table so the membership scan stays a tight dict loop; the
        MMU/TLB/walker charge for the walked pages happens in one batched
        prewalk afterwards, which cannot change the outcome because the MMU
        never touches the mATLB state.  (Like the batched TLB path, this
        assumes the TLBs are consistent with the page table, which holds by
        construction: a page table has no unmap, and an address space maps
        only fresh virtual pages.)  A page with no translation raises
        :class:`~repro.mem.page_table.PageFaultError`.
        """
        v = np.asarray(page_vaddrs, dtype=np.int64)
        if v.size == 0:
            return 0
        page_mask = self.page_size - 1
        pages = (v & ~page_mask).tolist()
        entries = self._entries
        capacity = self.capacity
        to_walk: List[int] = []
        page_table = None
        evictions = 0
        for page_vaddr in pages:
            if page_vaddr in entries:
                continue
            if page_table is None:
                # Deferred so a fully buffered batch never asks the MMU for
                # the ASID's page table, as the per-page loop never does.
                page_table = mmu.page_table(asid)
                pt_shift = page_table.page_size.bit_length() - 1
                pt_lookup = page_table.lookup
            pfn = pt_lookup(page_vaddr >> pt_shift)
            if pfn is None:
                raise PageFaultError(asid, page_vaddr)
            to_walk.append(page_vaddr)
            if len(entries) >= capacity:
                entries.popitem(last=False)
                evictions += 1
            paddr = (pfn << pt_shift) | (page_vaddr & (page_table.page_size - 1))
            entries[page_vaddr] = paddr & ~page_mask
        self.stats.prewalks += len(to_walk)
        self.stats.evictions += evictions
        if not to_walk:
            return 0
        return int(mmu.prewalk_batch(asid, to_walk).cycles.sum())

    def suffix_matches(self, page_vaddrs: Sequence[int]) -> bool:
        """True iff these pages are the buffer's most recently used entries, in LRU order.

        This is the replay test of a tile that re-streams the pages of the
        tile before it (the Fig. 4 reuse pattern).  When it holds, a prewalk
        skips every page without touching stats or LRU state, and a lookup
        stream over the pages hits every page while re-establishing the very
        same LRU order, so the whole prewalk and lookup pass reduces to a bulk
        hit-counter update.  Older entries (a previous row block's pages) may
        sit below the suffix.  Callers must pass page-aligned addresses in
        access order.
        """
        return mru_suffix_matches(self._entries, page_vaddrs)

    def lookup_batch(self, vaddrs: Sequence[int]) -> np.ndarray:
        """Translated physical addresses of buffered pages; misses yield ``-1``.

        Hits refresh the LRU order and the hit/miss counts advance as the
        per-address :func:`repro.conformance.functional_oracle.lookup` calls
        would (lookups never change membership, so one pass over the batch
        suffices).
        """
        v = np.asarray(vaddrs, dtype=np.int64)
        page_mask = self.page_size - 1
        entries = self._entries
        get = entries.get
        move = entries.move_to_end
        paddrs: List[int] = []
        append = paddrs.append
        hits = 0
        for vaddr in v.tolist():
            page_vaddr = vaddr & ~page_mask
            paddr_page = get(page_vaddr)
            if paddr_page is None:
                append(-1)
            else:
                move(page_vaddr)
                hits += 1
                append(paddr_page + vaddr - page_vaddr)
        self.stats.hits += hits
        self.stats.misses += len(v) - hits
        return np.array(paddrs, dtype=np.int64)


# ------------------------------------------------------------------- closed-form stall model
@dataclass(frozen=True)
class TranslationTimingParameters:
    """Calibration constants of the closed-form translation-stall model.

    ``first_touch_walk_cycles`` is the amortised cost of walking a page that
    has never been touched in this tile pass (consecutive pages share
    page-table-entry cache lines, so the leaf fetch is amortised over ~8
    pages); ``retouch_walk_cycles`` is the cost of re-walking a page whose
    translation fell out of the shared L2 TLB; ``predicted_exposed_fraction``
    is the small residual of walks the mATLB fails to hide (mispredicted or
    issued too late).  Cycles are in the MMAE clock domain.
    """

    first_touch_walk_cycles: float = 28.0
    retouch_walk_cycles: float = 85.0
    predicted_exposed_fraction: float = 0.03
    shared_tlb_entries: int = 1024


@dataclass(frozen=True)
class TranslationStallEstimate:
    """Outcome of the closed-form model for one GEMM."""

    unique_pages: int
    first_touch_walks: int
    retouch_walks: int
    stall_cycles: float
    prediction_enabled: bool

    @property
    def total_walks(self) -> int:
        return self.first_touch_walks + self.retouch_walks


def _unique_pages(rows: int, segment_bytes: int, row_stride_bytes: int, page_size: int) -> int:
    """Distinct pages touched by ``rows`` row segments of a row-major panel.

    Each ``max(1, pages)`` is a conditional expression: the estimate calls
    this up to three times per tile class, and Python 3.11's builtin ``max``
    parses its arguments generically.
    """
    if rows <= 0:
        return 0
    if row_stride_bytes <= page_size:
        band = math.ceil(rows * row_stride_bytes / page_size)
        return band if band > 1 else 1
    per_row = math.ceil(segment_bytes / page_size)
    return rows * (per_row if per_row > 1 else 1)


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

    Every count is an integer per first-level tile, so each distinct tile
    shape (at most eight, see :func:`~repro.gemm.tiling.tile_classes`) is
    evaluated once and weighted by its count.  The C panel's pages and the
    re-touch counts do not depend on the depth class, so they are computed
    outside the depth loop.  The per-tile reference is
    :func:`repro.conformance.analytic_oracle.estimate_translation_stalls`.
    """
    element = shape.precision.bytes_per_element
    check_tile_levels(level1, level2)
    a_stride = shape.k * element
    bc_stride = shape.n * element
    tlb_entries = params.shared_tlb_entries
    col_classes = tile_classes(shape.n, level1.cols)
    depth_classes = tile_classes(shape.k, level1.k_block)
    total_first = 0
    total_retouch = 0
    for rows, rows_count in tile_classes(shape.m, level1.rows):
        touches_b = math.ceil(rows / level2.rows)
        for cols, cols_count in col_classes:
            touches_a = math.ceil(cols / level2.cols)
            pages_c = _unique_pages(rows, cols * element, bc_stride, page_size)
            for depth, depth_count in depth_classes:
                pages_a = _unique_pages(rows, depth * element, a_stride, page_size)
                pages_b = _unique_pages(depth, cols * element, bc_stride, page_size)
                unique = pages_a + pages_b + pages_c
                count = rows_count * cols_count * depth_count
                total_first += count * unique
                if unique > tlb_entries:
                    thrash_fraction = (unique - tlb_entries) / unique
                    retouch = (
                        (touches_a - 1) * pages_a * thrash_fraction
                        + (touches_b - 1) * pages_b * thrash_fraction
                    )
                    total_retouch += count * int(round(retouch))

    stall_cycles = (
        total_first * params.first_touch_walk_cycles
        + total_retouch * params.retouch_walk_cycles
    )
    if prediction_enabled:
        stall_cycles *= params.predicted_exposed_fraction
    # Every unique page is walked once on first touch.  Positional, in field
    # order: keyword arguments to a class build a dict on every call.
    return TranslationStallEstimate(
        total_first, total_first, total_retouch, stall_cycles, prediction_enabled
    )
