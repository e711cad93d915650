"""Page tables, address spaces and the page-table walker.

MACO runs a modified Linux on the FPGA prototype; for the reproduction we only
need the parts of virtual memory that the MMAE interacts with: per-process
(ASID-tagged) page tables, a frame allocator, and a page-table walker whose
latency is what the mATLB's predictive translation hides (paper Section IV.A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.mem.address import DEFAULT_PAGE_SIZE, page_number, page_offset


class PageFaultError(Exception):
    """Raised when a virtual address has no mapping in the current address space."""

    def __init__(self, asid: int, vaddr: int) -> None:
        super().__init__(f"page fault: ASID {asid}, virtual address {vaddr:#x}")
        self.asid = asid
        self.vaddr = vaddr


@dataclass
class FrameAllocator:
    """Hands out physical frames from a flat physical address space."""

    total_frames: int
    page_size: int = DEFAULT_PAGE_SIZE
    _next_frame: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.total_frames <= 0:
            raise ValueError("total_frames must be positive")

    @property
    def frames_free(self) -> int:
        return self.total_frames - self._next_frame

    def allocate(self, count: int = 1) -> list[int]:
        """Allocate ``count`` consecutive physical frame numbers."""
        if count <= 0:
            raise ValueError("count must be positive")
        if self._next_frame + count > self.total_frames:
            raise MemoryError(
                f"out of physical frames: requested {count}, free {self.frames_free}"
            )
        frames = list(range(self._next_frame, self._next_frame + count))
        self._next_frame += count
        return frames


@dataclass
class PageTable:
    """A per-process map from virtual page numbers to physical frame numbers.

    The model is flat but the walker charges the latency of a multi-level walk
    (``levels`` memory accesses), which is what matters for Fig. 6.
    """

    asid: int
    page_size: int = DEFAULT_PAGE_SIZE
    levels: int = 4
    _entries: Dict[int, int] = field(default_factory=dict, init=False)

    def map_page(self, vpn: int, pfn: int) -> None:
        if vpn < 0 or pfn < 0:
            raise ValueError("page numbers must be non-negative")
        self._entries[vpn] = pfn

    def lookup(self, vpn: int) -> Optional[int]:
        return self._entries.get(vpn)

    def translate(self, vaddr: int) -> int:
        """Translate a virtual address; raises :class:`PageFaultError` if unmapped."""
        vpn = page_number(vaddr, self.page_size)
        pfn = self._entries.get(vpn)
        if pfn is None:
            raise PageFaultError(self.asid, vaddr)
        return pfn * self.page_size + page_offset(vaddr, self.page_size)

    @property
    def mapped_pages(self) -> int:
        return len(self._entries)


@dataclass
class AddressSpace:
    """An ASID plus its page table and a simple bump allocator for regions."""

    asid: int
    frame_allocator: FrameAllocator
    page_size: int = DEFAULT_PAGE_SIZE
    page_table: PageTable = field(init=False)
    _next_vaddr: int = field(default=0x10_0000, init=False)
    _regions: Dict[str, tuple[int, int]] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        self.page_table = PageTable(asid=self.asid, page_size=self.page_size)

    def allocate_region(self, name: str, size_bytes: int) -> int:
        """Allocate and map a named, page-aligned region; returns its base virtual address."""
        if size_bytes <= 0:
            raise ValueError("region size must be positive")
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        pages = -(-size_bytes // self.page_size)
        base_vaddr = self._next_vaddr
        base_vpn = page_number(base_vaddr, self.page_size)
        frames = self.frame_allocator.allocate(pages)
        for offset, pfn in enumerate(frames):
            self.page_table.map_page(base_vpn + offset, pfn)
        self._next_vaddr += pages * self.page_size
        self._regions[name] = (base_vaddr, size_bytes)
        return base_vaddr

    def region(self, name: str) -> tuple[int, int]:
        """Return ``(base_vaddr, size_bytes)`` of a previously allocated region."""
        if name not in self._regions:
            raise KeyError(f"no region named {name!r}")
        return self._regions[name]

    def translate(self, vaddr: int) -> int:
        return self.page_table.translate(vaddr)


@dataclass
class WalkResult:
    """Outcome of a page-table walk."""

    paddr: int
    cycles: int
    memory_accesses: int


class PageTableWalker:
    """Charges the latency of walking a multi-level page table.

    Each level costs one memory access; accesses that hit in the (physically
    tagged) cache hierarchy are cheaper than those that go to DRAM.  The walker
    keeps a small cache of recently used page-table lines to model the common
    case where consecutive walks share upper-level entries.

    The walk cache is a FIFO of ``walk_cache_entries`` lines, represented as a
    map from line key to the insertion sequence number: a line is resident iff
    its last insertion lies within the most recent ``walk_cache_entries``
    insertions.  This is exactly equivalent to evicting the oldest entry of an
    insertion-ordered dict (every insertion targets a line that just missed,
    so the live lines are always the last ``walk_cache_entries`` insertions),
    but it needs no per-insert eviction bookkeeping, which keeps the batched
    :meth:`walk_batch` loop tight.
    """

    def __init__(
        self,
        memory_latency_cycles: int = 160,
        cached_level_latency_cycles: int = 12,
        walk_cache_entries: int = 64,
    ) -> None:
        if memory_latency_cycles <= 0 or cached_level_latency_cycles <= 0:
            raise ValueError("latencies must be positive")
        self.memory_latency_cycles = memory_latency_cycles
        self.cached_level_latency_cycles = cached_level_latency_cycles
        self.walk_cache_entries = walk_cache_entries
        self._walk_cache: Dict[tuple[int, int], int] = {}  # line key -> insertion number
        self._inserts = 0
        self.walks_performed = 0
        self.total_walk_cycles = 0

    def _walk_cycles(self, asid: int, vpn: int, levels: int) -> int:
        """Charge one walk's cache accesses; shared by the scalar and batch paths."""
        cache = self._walk_cache
        capacity = self.walk_cache_entries
        cheap = self.cached_level_latency_cycles
        expensive = self.memory_latency_cycles
        inserts = self._inserts
        cycles = 0
        for level in range(levels):
            # Upper levels cover huge regions, so they almost always hit the walk cache;
            # the leaf level is the one that typically misses for streaming access.
            key = (asid, vpn >> (9 * (levels - 1 - level)))
            stamp = cache.get(key)
            if stamp is not None and stamp >= inserts - capacity:
                cycles += cheap
            else:
                cycles += expensive
                cache[key] = inserts
                inserts += 1
        self._inserts = inserts
        if len(cache) > 4 * capacity + 256:
            # Drop stale (already evicted) stamps so the map stays bounded.
            floor = inserts - capacity
            self._walk_cache = {k: t for k, t in cache.items() if t >= floor}
        return cycles

    def walk(self, page_table: PageTable, vaddr: int) -> WalkResult:
        """Walk ``page_table`` for ``vaddr``, returning the translation and its cost."""
        paddr = page_table.translate(vaddr)  # raises PageFaultError if unmapped
        vpn = page_number(vaddr, page_table.page_size)
        cycles = self._walk_cycles(page_table.asid, vpn, page_table.levels)
        self.walks_performed += 1
        self.total_walk_cycles += cycles
        return WalkResult(paddr=paddr, cycles=cycles, memory_accesses=page_table.levels)

    def walk_batch(self, page_table: PageTable, vpns: Sequence[int]) -> np.ndarray:
        """Charge the walks of already-translated page numbers; returns their cycles.

        Equivalent to calling :meth:`walk` per page in order (same cycles,
        walk-cache evolution and stats), but it does not translate: its
        caller, :meth:`~repro.mem.tlb.TLBHierarchy.translate_batch`, has
        looked every page up, raised :class:`PageFaultError` for an unmapped
        one and holds the physical addresses.
        """
        levels = page_table.levels
        asid = page_table.asid
        charge = self._walk_cycles
        cycles = np.fromiter(
            (charge(asid, vpn, levels) for vpn in vpns), dtype=np.int64, count=len(vpns))
        self.walks_performed += len(vpns)
        self.total_walk_cycles += int(cycles.sum())
        return cycles

    @property
    def average_walk_cycles(self) -> float:
        return self.total_walk_cycles / self.walks_performed if self.walks_performed else 0.0
