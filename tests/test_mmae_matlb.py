"""Tests for predictive address translation: page prediction, the mATLB, and the stall model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.conformance.analytic_oracle import pages_per_tile
from repro.cpu.mmu import MMU
from repro.cpu.process import ProcessManager
from repro.gemm.precision import Precision
from repro.gemm.tiling import TileConfig
from repro.gemm.workloads import GEMMShape
from repro.mem.page_table import PageFaultError
from repro.mmae.matlb import (
    MATLB,
    MatrixLayout,
    PageTablePredictor,
    TranslationTimingParameters,
    estimate_translation_stalls,
)


class TestPageTablePredictor:
    def test_fig4_case1_row_covering_two_pages(self):
        """A 1024-column FP64 matrix: each row spans two 4 KB pages (paper Fig. 4)."""
        layout = MatrixLayout(base_vaddr=0, rows=1024, cols=1024, row_stride_elements=1024, element_bytes=8)
        predictor = PageTablePredictor(page_size=4096)
        # A 4x64 tile starting at column 512 sits in the second page of each row.
        pages = predictor.tile_page_vaddrs(layout, row_start=0, row_count=4, col_start=512, col_count=64)
        assert len(pages) == 4
        assert all(page % 4096 == 0 for page in pages.tolist())

    def test_fig4_case2_row_within_one_page(self):
        """A 512-column FP64 matrix: a row maps exactly to one page."""
        layout = MatrixLayout(0, 512, 512, 512, 8)
        predictor = PageTablePredictor(4096)
        pages = predictor.tile_page_vaddrs(layout, 0, 4, 0, 64)
        assert len(pages) == 4  # one page per row

    def test_small_matrix_shares_pages_across_rows(self):
        layout = MatrixLayout(0, 64, 64, 64, 8)  # 512-byte rows: 8 rows per page
        predictor = PageTablePredictor(4096)
        pages = predictor.tile_page_vaddrs(layout, 0, 16, 0, 64)
        assert len(pages) == 2

    def test_tile_beyond_matrix_rejected(self):
        layout = MatrixLayout(0, 64, 64, 64, 8)
        with pytest.raises(ValueError):
            PageTablePredictor().tile_page_vaddrs(layout, 60, 8, 0, 8)

    def test_pages_per_tile_upper_bound(self):
        layout = MatrixLayout(0, 1024, 1024, 1024, 8)
        predictor = PageTablePredictor()
        exact = len(predictor.tile_page_vaddrs(layout, 0, 64, 0, 64))
        assert pages_per_tile(layout, 64, 64) >= exact

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(1, 128), cols=st.integers(1, 128),
        row_start=st.integers(0, 64), col_start=st.integers(0, 64),
    )
    def test_predicted_pages_cover_every_accessed_byte(self, rows, cols, row_start, col_start):
        layout = MatrixLayout(0x10_0000, 256, 256, 256, 8)
        predictor = PageTablePredictor()
        pages = set(predictor.tile_page_vaddrs(layout, row_start, rows, col_start, cols).tolist())
        # Every element of the tile must fall in a predicted page.
        for row in (row_start, row_start + rows - 1):
            for col in (col_start, col_start + cols - 1):
                vaddr = layout.element_vaddr(row, col)
                assert vaddr - (vaddr % 4096) in pages


def _mmu_with_region(size_bytes: int):
    manager = ProcessManager()
    process = manager.create_process("p")
    base = process.address_space.allocate_region("matrix", size_bytes)
    mmu = MMU()
    mmu.register_page_table(process.address_space.page_table)
    return mmu, process.asid, base


class TestMATLB:
    def test_prewalk_then_lookup_hits(self):
        mmu, asid, base = _mmu_with_region(1 << 20)
        matlb = MATLB(entries=32)
        layout = MatrixLayout(base, 128, 128, 128, 8)
        pages = matlb.predictor.tile_page_vaddrs(layout, 0, 32, 0, 64)
        cycles = matlb.prewalk_pages_batch(mmu, asid, pages)
        assert cycles > 0
        assert matlb.lookup_batch([layout.element_vaddr(5, 10)])[0] >= 0
        assert matlb.stats.hit_rate > 0

    def test_lookup_miss_without_prewalk(self):
        matlb = MATLB()
        assert matlb.lookup_batch([0x1234]).tolist() == [-1]
        assert matlb.stats.misses == 1

    def test_translation_offset_preserved(self):
        mmu, asid, base = _mmu_with_region(1 << 16)
        matlb = MATLB()
        matlb.prewalk_pages_batch(mmu, asid, [base])
        paddr = int(matlb.lookup_batch([base + 123])[0])
        assert paddr >= 0
        assert paddr % 4096 == 123

    def test_capacity_eviction_fifo(self):
        mmu, asid, base = _mmu_with_region(1 << 20)
        matlb = MATLB(entries=4)
        pages = [base + i * 4096 for i in range(8)]
        matlb.prewalk_pages_batch(mmu, asid, pages)
        assert len(matlb) == 4
        assert matlb.stats.evictions == 4
        oldest, newest = matlb.lookup_batch([pages[0], pages[-1]]).tolist()
        assert oldest == -1    # oldest evicted
        assert newest >= 0     # newest resident

    def test_buffered_pages_are_not_walked_again(self):
        mmu, asid, base = _mmu_with_region(1 << 16)
        matlb = MATLB()
        pages = [base, base + 4096]
        assert matlb.prewalk_pages_batch(mmu, asid, pages) > 0
        walks = mmu.stats.walks
        assert matlb.prewalk_pages_batch(mmu, asid, pages) == 0
        assert matlb.stats.prewalks == 2
        assert mmu.stats.walks == walks

    def test_unmapped_page_raises_page_fault(self):
        mmu, asid, base = _mmu_with_region(4096)
        matlb = MATLB()
        with pytest.raises(PageFaultError) as excinfo:
            matlb.prewalk_pages_batch(mmu, asid, [base, 0xDEAD_0000])
        assert excinfo.value.vaddr == 0xDEAD_0000


class TestTranslationStallModel:
    LEVEL1 = TileConfig(1024, 1024)
    LEVEL2 = TileConfig(64, 64)

    def _gap(self, size: int) -> float:
        """Efficiency-style gap proxy: stalls without prediction minus with, over compute."""
        shape = GEMMShape(size, size, size, Precision.FP64)
        without = estimate_translation_stalls(shape, self.LEVEL1, self.LEVEL2, prediction_enabled=False)
        with_pred = estimate_translation_stalls(shape, self.LEVEL1, self.LEVEL2, prediction_enabled=True)
        compute_cycles = shape.macs / 16
        return (without.stall_cycles - with_pred.stall_cycles) / compute_cycles

    def test_prediction_hides_most_stalls(self):
        shape = GEMMShape(1024, 1024, 1024, Precision.FP64)
        without = estimate_translation_stalls(shape, self.LEVEL1, self.LEVEL2, prediction_enabled=False)
        with_pred = estimate_translation_stalls(shape, self.LEVEL1, self.LEVEL2, prediction_enabled=True)
        assert with_pred.stall_cycles < 0.1 * without.stall_cycles
        assert without.total_walks == with_pred.total_walks

    def test_small_matrices_have_negligible_gap(self):
        """Paper: below size 512 the gain is < 2% (rows fit within a page)."""
        assert self._gap(256) < 0.02

    def test_gap_peaks_for_page_spanning_matrices(self):
        """Paper: the gap reaches ~6.5% once rows span multiple pages (size >= 1024)."""
        assert 0.04 < self._gap(1024) < 0.08
        assert self._gap(1024) > self._gap(256)

    def test_gap_roughly_constant_for_large_sizes(self):
        assert self._gap(4096) == pytest.approx(self._gap(2048), rel=0.2)

    def test_walk_counts_scale_with_matrix_size(self):
        small = estimate_translation_stalls(GEMMShape(512, 512, 512), self.LEVEL1, self.LEVEL2)
        large = estimate_translation_stalls(GEMMShape(2048, 2048, 2048), self.LEVEL1, self.LEVEL2)
        assert large.unique_pages > small.unique_pages
        assert large.total_walks > small.total_walks

    def test_bigger_tlb_reduces_retouch_walks(self):
        shape = GEMMShape(1024, 1024, 1024)
        small_tlb = estimate_translation_stalls(
            shape, self.LEVEL1, self.LEVEL2,
            params=TranslationTimingParameters(shared_tlb_entries=512),
        )
        big_tlb = estimate_translation_stalls(
            shape, self.LEVEL1, self.LEVEL2,
            params=TranslationTimingParameters(shared_tlb_entries=8192),
        )
        assert big_tlb.retouch_walks < small_tlb.retouch_walks

    def test_larger_pages_reduce_walks(self):
        shape = GEMMShape(2048, 2048, 2048)
        small_pages = estimate_translation_stalls(shape, self.LEVEL1, self.LEVEL2, page_size=4096)
        large_pages = estimate_translation_stalls(shape, self.LEVEL1, self.LEVEL2, page_size=65536)
        assert large_pages.unique_pages < small_pages.unique_pages
