"""TLB models: single level and the ITLB/DTLB + shared L2 TLB hierarchy of Table I."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from operator import eq
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.mem.address import DEFAULT_PAGE_SIZE, page_number, page_offset
from repro.mem.page_table import PageFaultError, PageTable, PageTableWalker


def mru_suffix_matches(entries: "OrderedDict", keys: Sequence[Hashable]) -> bool:
    """True iff ``keys`` are the ``len(keys)`` most recently used keys of ``entries``, in order.

    This is the replay rule of the functional path (DESIGN.md section 6).
    When it holds, looking the keys up in order hits every one, and each
    move-to-end leaves the map in the order it started, so the whole pass
    reduces to hit counts.  The capacity test comes first: a stream longer
    than the map's occupancy cannot be its suffix, and the pairwise scan
    stops at the shorter of the two.  A stream with a repeated key never
    matches, because a map's keys are distinct.
    """
    return len(keys) <= len(entries) and all(map(eq, reversed(entries), reversed(keys)))


@dataclass(frozen=True)
class TLBEntry:
    """One cached translation."""

    asid: int
    vpn: int
    pfn: int


@dataclass
class TLBStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class TLB:
    """A fully associative, LRU-replaced TLB (the paper's TLBs are fully associative)."""

    def __init__(self, entries: int, page_size: int = DEFAULT_PAGE_SIZE, name: str = "tlb") -> None:
        if entries <= 0:
            raise ValueError("TLB must have at least one entry")
        self.capacity = entries
        self.page_size = page_size
        self.name = name
        self.stats = TLBStats()
        self._entries: OrderedDict[tuple[int, int], int] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, asid: int, vaddr: int) -> Optional[int]:
        """Return the physical address on hit, ``None`` on miss (stats are updated)."""
        vpn = page_number(vaddr, self.page_size)
        key = (asid, vpn)
        pfn = self._entries.get(key)
        if pfn is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return pfn * self.page_size + page_offset(vaddr, self.page_size)

    def keys(self, asid: int, vaddrs: Sequence[int]) -> List[Tuple[int, int]]:
        """The entry keys of ``vaddrs`` in ``asid``, in order."""
        page_size = self.page_size
        return [(asid, vaddr // page_size) for vaddr in vaddrs]

    def suffix_matches(self, keys: Sequence[Tuple[int, int]]) -> bool:
        """True iff ``keys`` are this TLB's most recently used entries, in LRU order."""
        return mru_suffix_matches(self._entries, keys)

    def probe(self, asid: int, vaddr: int) -> bool:
        """Check for a translation without touching LRU state or stats."""
        return (asid, page_number(vaddr, self.page_size)) in self._entries

    def insert(self, asid: int, vaddr: int, paddr: int) -> None:
        """Install a translation, evicting the least recently used entry if full."""
        vpn = page_number(vaddr, self.page_size)
        pfn = page_number(paddr, self.page_size)
        key = (asid, vpn)
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[key] = pfn


@dataclass
class TranslationResult:
    """Outcome of a translation through the TLB hierarchy."""

    paddr: int
    cycles: int
    level: str  # "l1", "l2" or "walk"

    @property
    def hit(self) -> bool:
        return self.level != "walk"


#: Per-address level codes used by the batched translation path.
LEVEL_L1, LEVEL_L2, LEVEL_WALK = 0, 1, 2


@dataclass
class BatchTranslationResult:
    """Outcome of translating a batch of addresses through the hierarchy.

    ``levels`` holds one of ``LEVEL_L1``/``LEVEL_L2``/``LEVEL_WALK`` per
    address.
    """

    paddrs: np.ndarray
    cycles: np.ndarray
    levels: np.ndarray

    def __len__(self) -> int:
        return len(self.paddrs)

    @property
    def walk_count(self) -> int:
        return int(np.count_nonzero(self.levels == LEVEL_WALK))

    @property
    def walk_cycles_total(self) -> int:
        return int(self.cycles[self.levels == LEVEL_WALK].sum())


class TLBHierarchy:
    """The per-core translation machinery: L1 TLB, shared L2 TLB, page-table walker.

    The MMAE shares the CPU core's L2 ("shared") TLB via a customised interface
    (paper Section III.A); :meth:`translate` is the path exercised both by CPU
    loads/stores and by mATLB pre-walk requests.
    """

    def __init__(
        self,
        l1_entries: int = 48,
        l2_entries: int = 1024,
        page_size: int = DEFAULT_PAGE_SIZE,
        l1_latency_cycles: int = 1,
        l2_latency_cycles: int = 4,
        walker: Optional[PageTableWalker] = None,
        name: str = "dtlb",
    ) -> None:
        self.l1 = TLB(l1_entries, page_size, name=f"{name}.l1")
        self.l2 = TLB(l2_entries, page_size, name=f"{name}.l2")
        self.page_size = page_size
        self.l1_latency_cycles = l1_latency_cycles
        self.l2_latency_cycles = l2_latency_cycles
        self.walker = walker if walker is not None else PageTableWalker()
        self.name = name

    def translate(self, page_table: PageTable, vaddr: int) -> TranslationResult:
        """Translate ``vaddr`` for the address space behind ``page_table``."""
        asid = page_table.asid
        paddr = self.l1.lookup(asid, vaddr)
        if paddr is not None:
            return TranslationResult(paddr, self.l1_latency_cycles, "l1")
        paddr = self.l2.lookup(asid, vaddr)
        if paddr is not None:
            self.l1.insert(asid, vaddr, paddr)
            return TranslationResult(paddr, self.l1_latency_cycles + self.l2_latency_cycles, "l2")
        walk = self.walker.walk(page_table, vaddr)
        self.l1.insert(asid, vaddr, walk.paddr)
        self.l2.insert(asid, vaddr, walk.paddr)
        cycles = self.l1_latency_cycles + self.l2_latency_cycles + walk.cycles
        return TranslationResult(walk.paddr, cycles, "walk")

    def prewalk(self, page_table: PageTable, vaddr: int) -> TranslationResult:
        """Install a translation ahead of use (issued by the mATLB).

        Identical to :meth:`translate` except the caller treats the returned
        cycles as background work that can overlap with computation.
        """
        return self.translate(page_table, vaddr)

    def translate_batch(self, page_table: PageTable, vaddrs: Sequence[int]) -> BatchTranslationResult:
        """Translate a batch of addresses exactly as per-address :meth:`translate` calls.

        The per-address hit levels, charged cycles, L1/L2 stats and LRU/eviction
        behaviour match the scalar loop bit for bit; page-table walks are issued
        through :meth:`PageTableWalker.walk_batch` in access order once the
        lookup pass has decided which addresses miss both TLB levels (the
        lookup pass translates them, so the walker only charges cycles).  The
        lookup pass collects its per-address results in lists and builds each
        result column with one ``np.array`` call at the end.  An address that
        misses both levels and has no mapping raises :class:`PageFaultError`
        for the first such address in order; the TLB and walker state after a
        fault is unspecified.
        """
        v = np.asarray(vaddrs, dtype=np.int64)
        if len(v) == 0:
            empty = np.empty(0, dtype=np.int64)
            return BatchTranslationResult(empty, empty.copy(), np.empty(0, dtype=np.uint8))

        asid = page_table.asid
        shift = self.page_size.bit_length() - 1
        pt_shift = page_table.page_size.bit_length() - 1
        pt_mask = page_table.page_size - 1

        l1_entries = self.l1._entries
        l2_entries = self.l2._entries
        l1_capacity = self.l1.capacity
        l2_capacity = self.l2.capacity
        l1_cost = self.l1_latency_cycles
        l2_cost = l1_cost + self.l2_latency_cycles
        pt_lookup = page_table.lookup
        l1_hits = l1_misses = l2_hits = l2_misses = 0
        walk_indices: List[int] = []
        walk_vpns: List[int] = []
        pfns: List[int] = []
        levels: List[int] = []
        cycles: List[int] = []

        for index, vaddr in enumerate(v.tolist()):
            key = (asid, vaddr >> shift)
            pfn = l1_entries.get(key)
            if pfn is not None:
                l1_entries.move_to_end(key)
                l1_hits += 1
                pfns.append(pfn)
                levels.append(LEVEL_L1)
                cycles.append(l1_cost)
                continue
            l1_misses += 1
            pfn = l2_entries.get(key)
            if pfn is not None:
                l2_entries.move_to_end(key)
                l2_hits += 1
                if len(l1_entries) >= l1_capacity:
                    l1_entries.popitem(last=False)
                l1_entries[key] = pfn
                pfns.append(pfn)
                levels.append(LEVEL_L2)
                cycles.append(l2_cost)
                continue
            l2_misses += 1
            # Miss at both levels: the walk's translation is known from the page
            # table, so the entry installs immediately (later duplicates in the
            # batch must hit it) and only the walk-cycle charging is deferred.
            vpn = vaddr >> pt_shift
            frame = pt_lookup(vpn)
            if frame is None:
                raise PageFaultError(asid, vaddr)
            pfn = ((frame << pt_shift) | (vaddr & pt_mask)) >> shift
            if len(l1_entries) >= l1_capacity:
                l1_entries.popitem(last=False)
            l1_entries[key] = pfn
            if len(l2_entries) >= l2_capacity:
                l2_entries.popitem(last=False)
            l2_entries[key] = pfn
            walk_indices.append(index)
            walk_vpns.append(vpn)
            pfns.append(pfn)
            levels.append(LEVEL_WALK)
            cycles.append(0)

        self.l1.stats.hits += l1_hits
        self.l1.stats.misses += l1_misses
        self.l2.stats.hits += l2_hits
        self.l2.stats.misses += l2_misses

        cycle_column = np.array(cycles, dtype=np.int64)
        if walk_indices:
            cycle_column[walk_indices] = l2_cost + self.walker.walk_batch(page_table, walk_vpns)

        paddrs = (np.array(pfns, dtype=np.int64) << shift) | (v & (self.page_size - 1))
        return BatchTranslationResult(paddrs, cycle_column, np.array(levels, dtype=np.uint8))
