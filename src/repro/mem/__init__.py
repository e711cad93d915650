"""Memory substrate: addresses, paging, TLBs, host memory and DRAM.

The MACO evaluation depends on two memory-system behaviours that this
package models explicitly:

* virtual-to-physical translation (page tables, TLBs, page-table walks) — the
  substrate under the predictive address translation study of Fig. 6;
* bandwidth, latency and capacity of the DDR memory controllers.

The L3 "system cache" and its stash/lock operations enter the timing model
analytically, as memory environments (:mod:`repro.core.perf`) and as
MA_STASH's cycles in :class:`repro.mmae.controller.AcceleratorController`;
no functional cache state is kept.
"""

from repro.mem.address import align_down, page_number, page_offset
from repro.mem.page_table import AddressSpace, FrameAllocator, PageTable, PageTableWalker
from repro.mem.tlb import TLB, TLBEntry, TLBHierarchy
from repro.mem.dram import DRAMConfig, DRAMModel

__all__ = [
    "align_down",
    "page_number",
    "page_offset",
    "AddressSpace",
    "FrameAllocator",
    "PageTable",
    "PageTableWalker",
    "TLB",
    "TLBEntry",
    "TLBHierarchy",
    "DRAMConfig",
    "DRAMModel",
]
