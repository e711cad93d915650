"""Tests for page tables, address spaces, frame allocation and the walker."""

import pytest

from repro.mem.page_table import (
    AddressSpace,
    FrameAllocator,
    PageFaultError,
    PageTable,
    PageTableWalker,
)


class TestFrameAllocator:
    def test_allocates_consecutive_frames(self):
        allocator = FrameAllocator(total_frames=16)
        assert allocator.allocate(3) == [0, 1, 2]
        assert allocator.allocate(2) == [3, 4]

    def test_out_of_frames(self):
        allocator = FrameAllocator(total_frames=2)
        allocator.allocate(2)
        with pytest.raises(MemoryError):
            allocator.allocate(1)

    def test_free_count(self):
        allocator = FrameAllocator(total_frames=10)
        allocator.allocate(4)
        assert allocator.frames_free == 6


class TestPageTable:
    def test_translate_mapped_page(self):
        table = PageTable(asid=1)
        table.map_page(vpn=5, pfn=42)
        paddr = table.translate(5 * 4096 + 123)
        assert paddr == 42 * 4096 + 123

    def test_unmapped_page_faults(self):
        table = PageTable(asid=1)
        with pytest.raises(PageFaultError) as excinfo:
            table.translate(0x10000)
        assert excinfo.value.asid == 1

    def test_remap_replaces_the_frame(self):
        table = PageTable(asid=0)
        table.map_page(1, 1)
        table.map_page(1, 7)
        assert table.translate(4096 + 5) == 7 * 4096 + 5
        assert table.mapped_pages == 1

    def test_mapped_pages_count(self):
        table = PageTable(asid=0)
        for vpn in range(8):
            table.map_page(vpn, vpn + 100)
        assert table.mapped_pages == 8


class TestAddressSpace:
    def test_region_allocation_is_page_aligned_and_mapped(self):
        space = AddressSpace(asid=3, frame_allocator=FrameAllocator(1024))
        base = space.allocate_region("a", 10000)
        assert base % 4096 == 0
        # Every byte of the region translates without faulting.
        assert space.translate(base) >= 0
        assert space.translate(base + 9999) >= 0

    def test_regions_do_not_overlap(self):
        space = AddressSpace(asid=0, frame_allocator=FrameAllocator(1024))
        base_a = space.allocate_region("a", 4096)
        base_b = space.allocate_region("b", 4096)
        assert base_b >= base_a + 4096

    def test_duplicate_region_name_rejected(self):
        space = AddressSpace(asid=0, frame_allocator=FrameAllocator(1024))
        space.allocate_region("a", 100)
        with pytest.raises(ValueError):
            space.allocate_region("a", 100)

    def test_region_lookup(self):
        space = AddressSpace(asid=0, frame_allocator=FrameAllocator(1024))
        base = space.allocate_region("weights", 8192)
        assert space.region("weights") == (base, 8192)
        with pytest.raises(KeyError):
            space.region("missing")

    def test_distinct_address_spaces_use_distinct_frames(self):
        allocator = FrameAllocator(1024)
        space_a = AddressSpace(asid=0, frame_allocator=allocator)
        space_b = AddressSpace(asid=1, frame_allocator=allocator)
        base_a = space_a.allocate_region("x", 4096)
        base_b = space_b.allocate_region("x", 4096)
        assert space_a.translate(base_a) != space_b.translate(base_b)


class TestPageTableWalker:
    def _mapped_table(self, pages: int = 64) -> PageTable:
        table = PageTable(asid=0)
        for vpn in range(pages):
            table.map_page(vpn, vpn + 1000)
        return table

    def test_walk_returns_correct_translation(self):
        walker = PageTableWalker()
        table = self._mapped_table()
        result = walker.walk(table, 3 * 4096 + 17)
        assert result.paddr == table.translate(3 * 4096 + 17)

    def test_walk_charges_one_access_per_level(self):
        walker = PageTableWalker()
        table = self._mapped_table()
        result = walker.walk(table, 0)
        assert result.memory_accesses == table.levels

    def test_repeated_walks_get_cheaper(self):
        walker = PageTableWalker()
        table = self._mapped_table()
        first = walker.walk(table, 0).cycles
        second = walker.walk(table, 64).cycles  # same leaf region, upper levels cached
        assert second < first

    def test_walk_faults_propagate(self):
        walker = PageTableWalker()
        table = PageTable(asid=0)
        with pytest.raises(PageFaultError):
            walker.walk(table, 0xDEADBEEF)

    def test_walk_count_and_cycles_tracked(self):
        walker = PageTableWalker()
        table = self._mapped_table()
        charged = walker.walk(table, 0).cycles + walker.walk(table, 4096).cycles
        assert walker.walks_performed == 2
        assert walker.total_walk_cycles == charged > 0

