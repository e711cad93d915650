"""Tests for the TLB models and the per-core TLB hierarchy."""

import pytest

from repro.mem.page_table import PageTable
from repro.mem.tlb import TLB, TLBHierarchy


def make_page_table(pages: int = 256, asid: int = 0) -> PageTable:
    table = PageTable(asid=asid)
    for vpn in range(pages):
        table.map_page(vpn, vpn + 5000)
    return table


class TestTLB:
    def test_miss_then_hit(self):
        tlb = TLB(entries=4)
        assert tlb.lookup(0, 0x1000) is None
        tlb.insert(0, 0x1000, 0x8000)
        assert tlb.lookup(0, 0x1234) == 0x8234

    def test_lru_eviction(self):
        tlb = TLB(entries=2)
        tlb.insert(0, 0x0000, 0x10000)
        tlb.insert(0, 0x1000, 0x11000)
        tlb.lookup(0, 0x0000)              # touch page 0 so page 1 becomes LRU
        tlb.insert(0, 0x2000, 0x12000)     # evicts page 1
        assert tlb.probe(0, 0x0000)
        assert not tlb.probe(0, 0x1000)
        assert tlb.probe(0, 0x2000)

    def test_asid_isolation(self):
        tlb = TLB(entries=8)
        tlb.insert(0, 0x1000, 0x8000)
        assert tlb.lookup(1, 0x1000) is None

    def test_same_page_in_two_asids_keeps_both_translations(self):
        tlb = TLB(entries=8)
        tlb.insert(0, 0x1000, 0x8000)
        tlb.insert(1, 0x1000, 0x9000)
        assert tlb.lookup(0, 0x1004) == 0x8004
        assert tlb.lookup(1, 0x1004) == 0x9004

    def test_stats_track_hits_and_misses(self):
        tlb = TLB(entries=4)
        tlb.lookup(0, 0)
        tlb.insert(0, 0, 0x4000)
        tlb.lookup(0, 0)
        assert tlb.stats.misses == 1
        assert tlb.stats.hits == 1
        assert tlb.stats.hit_rate == pytest.approx(0.5)

    def test_capacity_never_exceeded(self):
        tlb = TLB(entries=4)
        for vpn in range(32):
            tlb.insert(0, vpn * 4096, vpn * 4096)
        assert len(tlb) == 4

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            TLB(entries=0)


class TestTLBHierarchy:
    def test_first_access_walks_then_hits_l1(self):
        hierarchy = TLBHierarchy(l1_entries=4, l2_entries=16)
        table = make_page_table()
        first = hierarchy.translate(table, 0x2000)
        second = hierarchy.translate(table, 0x2008)
        assert first.level == "walk"
        assert second.level == "l1"
        assert second.cycles < first.cycles
        assert first.paddr + 8 == second.paddr

    def test_l1_eviction_falls_back_to_l2(self):
        hierarchy = TLBHierarchy(l1_entries=2, l2_entries=64)
        table = make_page_table()
        for vpn in range(8):
            hierarchy.translate(table, vpn * 4096)
        result = hierarchy.translate(table, 0)  # evicted from L1 but still in L2
        assert result.level == "l2"

    def test_paper_table1_geometry_defaults(self):
        hierarchy = TLBHierarchy()
        assert hierarchy.l1.capacity == 48
        assert hierarchy.l2.capacity == 1024

    def test_prewalk_installs_translation(self):
        hierarchy = TLBHierarchy()
        table = make_page_table()
        hierarchy.prewalk(table, 0x5000)
        result = hierarchy.translate(table, 0x5010)
        assert result.hit

    def test_walk_installs_the_translation_in_both_levels(self):
        hierarchy = TLBHierarchy()
        table = make_page_table()
        assert hierarchy.translate(table, 0x3000).level == "walk"
        assert hierarchy.l1.probe(0, 0x3000) and hierarchy.l2.probe(0, 0x3000)
        assert hierarchy.translate(table, 0x3000).level == "l1"
        assert hierarchy.walker.walks_performed == 1

    def test_translation_correctness_across_levels(self):
        hierarchy = TLBHierarchy(l1_entries=2, l2_entries=8)
        table = make_page_table()
        expected = {vaddr: table.translate(vaddr) for vaddr in range(0, 16 * 4096, 4096)}
        for _ in range(3):
            for vaddr, paddr in expected.items():
                assert hierarchy.translate(table, vaddr).paddr == paddr
