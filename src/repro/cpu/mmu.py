"""The memory-management unit shared between the CPU core and the MMAE.

The MMAE has no MMU of its own: it shares the CPU core's L2 ("shared") TLB via
a customised interface, and the mATLB sends its predictive page-table-walk
requests through this MMU (paper Sections III.A and IV.A).  Only data
accesses are translated; instruction fetch is not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.mem.address import DEFAULT_PAGE_SIZE
from repro.mem.page_table import PageTable, PageTableWalker
from repro.mem.tlb import BatchTranslationResult, TLBHierarchy, TranslationResult


@dataclass
class MMUStats:
    translations: int = 0
    dtlb_accesses: int = 0
    walks: int = 0
    walk_cycles: int = 0
    prewalk_requests: int = 0


class MMU:
    """DTLB + shared L2 TLB + page-table walker (Table I geometry)."""

    def __init__(
        self,
        dtlb_entries: int = 48,
        l2_entries: int = 1024,
        page_size: int = DEFAULT_PAGE_SIZE,
        walker: Optional[PageTableWalker] = None,
    ) -> None:
        self.page_size = page_size
        self.walker = walker if walker is not None else PageTableWalker()
        # The L2 capacity is what matters for the MMAE's streaming accesses.
        self.dtlb = TLBHierarchy(
            l1_entries=dtlb_entries, l2_entries=l2_entries, page_size=page_size,
            walker=self.walker, name="dtlb",
        )
        self.stats = MMUStats()
        self._page_tables: Dict[int, PageTable] = {}

    # ------------------------------------------------------------------ contexts
    def register_page_table(self, page_table: PageTable) -> None:
        """Make an address space translatable through this MMU."""
        self._page_tables[page_table.asid] = page_table

    def page_table(self, asid: int) -> PageTable:
        if asid not in self._page_tables:
            raise KeyError(f"no page table registered for ASID {asid}")
        return self._page_tables[asid]

    # --------------------------------------------------------------- translation
    def translate_data(self, asid: int, vaddr: int) -> TranslationResult:
        """Translate a data access (CPU load/store or MMAE DMA)."""
        self.stats.translations += 1
        self.stats.dtlb_accesses += 1
        result = self.dtlb.translate(self.page_table(asid), vaddr)
        if result.level == "walk":
            self.stats.walks += 1
            self.stats.walk_cycles += result.cycles
        return result

    def prewalk(self, asid: int, vaddr: int) -> TranslationResult:
        """Perform a predictive walk on behalf of the mATLB.

        The result is installed in the shared TLBs so the later demand access
        hits; the caller decides whether the walk cycles are hidden.
        """
        self.stats.prewalk_requests += 1
        result = self.dtlb.prewalk(self.page_table(asid), vaddr)
        if result.level == "walk":
            self.stats.walks += 1
            self.stats.walk_cycles += result.cycles
        return result

    def translate_data_batch(self, asid: int, vaddrs: Sequence[int]) -> BatchTranslationResult:
        """Translate a batch of data accesses; exact batch twin of :meth:`translate_data`.

        An unmapped address raises :class:`~repro.mem.page_table.PageFaultError`
        for the first such address in order; the MMU state after a fault is
        unspecified.
        """
        result = self.dtlb.translate_batch(self.page_table(asid), vaddrs)
        self.stats.translations += len(result)
        self.stats.dtlb_accesses += len(result)
        self.stats.walks += result.walk_count
        self.stats.walk_cycles += result.walk_cycles_total
        return result

    def data_keys(self, asid: int, vaddrs: Sequence[int]) -> List[Tuple[int, int]]:
        """The L1 DTLB keys of ``vaddrs`` in ``asid``, in order (see :meth:`translate_data_cycles`)."""
        return self.dtlb.l1.keys(asid, vaddrs)

    def translate_data_cycles(
        self,
        asid: int,
        vaddrs: Sequence[int],
        keys: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> int:
        """Total cycles of :meth:`translate_data_batch` over ``vaddrs``, with the same effects.

        When the addresses' L1 DTLB keys (``keys``, as :meth:`data_keys`
        returns them, computed here when omitted) are the L1's most recently
        used entries in order, the batch replays: every access hits the L1
        and leaves its LRU order as it was, so it costs ``len(vaddrs)`` L1
        hits, MMU translations and DTLB accesses, ``l1_latency_cycles`` each,
        and no :class:`BatchTranslationResult` is built.  Any other batch
        takes :meth:`translate_data_batch`.
        """
        if keys is None:
            keys = self.data_keys(asid, vaddrs)
        l1 = self.dtlb.l1
        if l1.suffix_matches(keys):
            count = len(keys)
            l1.stats.hits += count
            self.stats.translations += count
            self.stats.dtlb_accesses += count
            return count * self.dtlb.l1_latency_cycles
        return int(self.translate_data_batch(asid, vaddrs).cycles.sum())

    def prewalk_batch(self, asid: int, vaddrs: Sequence[int]) -> BatchTranslationResult:
        """Batched mATLB prewalk; exact batch twin of per-address :meth:`prewalk` calls.

        Faults as :meth:`translate_data_batch` does.
        """
        result = self.dtlb.translate_batch(self.page_table(asid), vaddrs)
        self.stats.prewalk_requests += len(result)
        self.stats.walks += result.walk_count
        self.stats.walk_cycles += result.walk_cycles_total
        return result
