"""Oracle/production parity for the functional fast path.

The vectorized kernels (page prediction, batch translation, the NumPy
wavefront emulator) must be *bit-identical* to the scalar references of
:mod:`repro.conformance.functional_oracle` and the per-address MMU/TLB API:
same pages in the same access order, identical mATLB/TLB/walker
hit/miss/prewalk counters and internal LRU/FIFO orders, identical emulator
outputs and cycle counts, and page faults at the same address.  These tests
drive both implementations over the same randomized workloads (including edge
tiles and non-power-of-two strides) and compare exhaustively.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parity_utils import run_emulator_pair
from repro.conformance.functional_oracle import (
    SystolicArrayEmulator,
    lookup,
    prewalk_pages,
    tile_page_addresses,
    translate_tile,
    translation_state,
)
from repro.cpu.mmu import MMU
from repro.gemm.precision import Precision
from repro.mem.page_table import FrameAllocator, AddressSpace, PageFaultError, PageTableWalker
from repro.mem.tlb import LEVEL_L1, LEVEL_L2, LEVEL_WALK, TLB, TLBHierarchy
from repro.mmae.data_engine import AcceleratorDataEngine
from repro.mmae.matlb import MATLB, MatrixLayout, PageTablePredictor
from repro.mmae.systolic_array import SystolicArray, VectorizedSystolicArrayEmulator


# ------------------------------------------------------------------ helpers
def make_space(pages: int, asid: int = 0, page_size: int = 4096) -> AddressSpace:
    space = AddressSpace(asid=asid, frame_allocator=FrameAllocator(total_frames=pages + 8),
                         page_size=page_size)
    space.allocate_region("m", pages * page_size)
    return space


def tlb_state(tlb: TLB):
    return (vars(tlb.stats).copy(), list(tlb._entries.items()))


def hierarchy_state(h: TLBHierarchy):
    return (
        tlb_state(h.l1),
        tlb_state(h.l2),
        h.walker.walks_performed,
        h.walker.total_walk_cycles,
    )


def mmu_state(mmu: MMU):
    return (vars(mmu.stats).copy(), hierarchy_state(mmu.dtlb))


def matlb_state(matlb: MATLB):
    return (vars(matlb.stats).copy(), list(matlb._entries.items()))


# ------------------------------------------------------- predictor parity
class TestPredictorParity:
    @settings(max_examples=60, deadline=None)
    @given(
        stride=st.integers(64, 700),       # non-power-of-two strides included
        element_bytes=st.sampled_from([2, 4, 8]),
        base_page_offset=st.integers(0, 4095),
        row_start=st.integers(0, 40),
        row_count=st.integers(1, 80),
        col_start=st.integers(0, 40),
        col_count=st.integers(1, 24),
    )
    def test_matches_scalar_reference_exactly(
        self, stride, element_bytes, base_page_offset, row_start, row_count, col_start, col_count
    ):
        layout = MatrixLayout(
            base_vaddr=0x40_0000 + base_page_offset,
            rows=row_start + row_count,
            cols=max(64, col_start + col_count),
            row_stride_elements=max(stride, col_start + col_count),
            element_bytes=element_bytes,
        )
        scalar = tile_page_addresses(layout, row_start, row_count, col_start, col_count)
        vectorized = PageTablePredictor().tile_page_vaddrs(
            layout, row_start, row_count, col_start, col_count
        )
        assert vectorized.tolist() == scalar  # same pages, same access order

    def test_template_memo_is_rebased_not_stale(self):
        """Two tiles with identical geometry but different bases share a template."""
        layout = MatrixLayout(0x10_0000, 1024, 1024, 1024, 8)
        predictor = PageTablePredictor()
        first = predictor.tile_page_vaddrs(layout, 0, 64, 0, 64)
        second = predictor.tile_page_vaddrs(layout, 64, 64, 0, 64)
        assert len(predictor._templates) == 1  # one geometry, memoized once
        assert second.tolist() == tile_page_addresses(layout, 64, 64, 0, 64)
        assert first.tolist() != second.tolist()

    def test_bounds_errors_match_scalar(self):
        layout = MatrixLayout(0, 64, 64, 64, 8)
        predictor = PageTablePredictor()
        for args in [(-1, 4, 0, 4), (0, 4, -1, 4), (60, 8, 0, 8), (0, 8, 60, 8)]:
            with pytest.raises(ValueError):
                tile_page_addresses(layout, *args)
            with pytest.raises(ValueError):
                predictor.tile_page_vaddrs(layout, *args)


# ------------------------------------------------------------ walker parity
class ReferenceWalkCache:
    """The seed's walk cache: insertion-ordered dict with FIFO eviction."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self.cache = {}

    def access(self, key) -> bool:
        if key in self.cache:
            return True
        if len(self.cache) >= self.entries:
            del self.cache[next(iter(self.cache))]
        self.cache[key] = True
        return False


class TestWalkerParity:
    @settings(max_examples=30, deadline=None)
    @given(
        vpns=st.lists(st.integers(0, 300), min_size=1, max_size=200),
        capacity=st.integers(1, 12),
    )
    def test_timestamp_fifo_equals_seed_dict_fifo(self, vpns, capacity):
        """The timestamp formulation is exactly the seed's dict-FIFO cache."""
        space = make_space(pages=301)
        table = space.page_table
        walker = PageTableWalker(walk_cache_entries=capacity)
        reference = ReferenceWalkCache(capacity)
        for vpn in vpns:
            vaddr = 0x10_0000 + vpn * 4096
            result = walker.walk(table, vaddr)
            expected = 0
            for level in range(table.levels):
                key = (table.asid, (vaddr >> 12) >> (9 * (table.levels - 1 - level)))
                if reference.access(key):
                    expected += walker.cached_level_latency_cycles
                else:
                    expected += walker.memory_latency_cycles
            assert result.cycles == expected

    @settings(max_examples=20, deadline=None)
    @given(
        vpns=st.lists(st.integers(0, 200), min_size=1, max_size=120),
        capacity=st.integers(1, 12),
        split=st.integers(0, 120),
    )
    def test_walk_batch_equals_scalar_walks(self, vpns, capacity, split):
        """walk_batch after a scalar warm-up charges identical cycles and stats.

        It only charges walks; the batch's physical addresses come from the
        TLB lookup pass and are covered by ``TestTLBBatchParity``.
        """
        space = make_space(pages=201)
        table = space.page_table
        scalar = PageTableWalker(walk_cache_entries=capacity)
        batched = PageTableWalker(walk_cache_entries=capacity)
        vaddrs = [0x10_0000 + vpn * 4096 + 17 for vpn in vpns]
        warmup, batch = vaddrs[: split % (len(vaddrs) + 1)], vaddrs[split % (len(vaddrs) + 1):]
        for vaddr in warmup:
            scalar.walk(table, vaddr)
            batched.walk(table, vaddr)
        scalar_cycles = [scalar.walk(table, vaddr).cycles for vaddr in batch]
        cycles = batched.walk_batch(table, [vaddr >> 12 for vaddr in batch])
        assert cycles.tolist() == scalar_cycles
        assert batched.walks_performed == scalar.walks_performed
        assert batched.total_walk_cycles == scalar.total_walk_cycles
        assert batched._inserts == scalar._inserts
        assert batched._walk_cache == scalar._walk_cache
        # Behavioural equivalence going forward, not just aggregate equality:
        probe = 0x10_0000 + 123 * 4096
        assert scalar.walk(table, probe).cycles == batched.walk(table, probe).cycles


# ---------------------------------------------------------------- TLB parity
class TestTLBBatchParity:
    @settings(max_examples=25, deadline=None)
    @given(
        vpns=st.lists(st.integers(0, 60), min_size=1, max_size=120),
        l1_entries=st.integers(1, 6),
        l2_entries=st.integers(2, 16),
        mapped_pages=st.integers(1, 61),
    )
    def test_translate_batch_matches_scalar_loop(
        self, vpns, l1_entries, l2_entries, mapped_pages
    ):
        """Mixed hit/miss/walk streams behave identically, per address, and a
        stream that reaches an unmapped page faults at the same address."""
        space = make_space(pages=mapped_pages)
        table = space.page_table
        scalar = TLBHierarchy(l1_entries=l1_entries, l2_entries=l2_entries)
        batched = TLBHierarchy(l1_entries=l1_entries, l2_entries=l2_entries)
        vaddrs = [0x10_0000 + vpn * 4096 + 7 for vpn in vpns]
        expected = []
        try:
            for vaddr in vaddrs:
                result = scalar.translate(table, vaddr)
                code = {"l1": LEVEL_L1, "l2": LEVEL_L2, "walk": LEVEL_WALK}[result.level]
                expected.append((result.paddr, result.cycles, code))
        except PageFaultError as fault:
            with pytest.raises(PageFaultError) as excinfo:
                batched.translate_batch(table, vaddrs)
            assert excinfo.value.vaddr == fault.vaddr
            return
        result = batched.translate_batch(table, vaddrs)
        got = list(zip(result.paddrs.tolist(), result.cycles.tolist(), result.levels.tolist()))
        assert got == expected
        assert hierarchy_state(scalar) == hierarchy_state(batched)


# ---------------------------------------------------------------- MMU parity
class TestMMUBatchParity:
    def _mmu_pair(self, pages=32):
        space = make_space(pages=pages)
        mmus = []
        for _ in range(2):
            mmu = MMU(dtlb_entries=4, l2_entries=16)
            mmu.register_page_table(space.page_table)
            mmus.append(mmu)
        return mmus[0], mmus[1], space

    def test_prewalk_batch_matches_scalar_prewalks_with_faults(self):
        scalar, batched, space = self._mmu_pair(pages=8)
        vaddrs = [0x10_0000 + i * 4096 for i in range(8)] + [0x10_0000]
        expected_cycles = [scalar.prewalk(0, vaddr).cycles for vaddr in vaddrs]
        result = batched.prewalk_batch(0, vaddrs)
        assert result.cycles.tolist() == expected_cycles
        assert mmu_state(scalar) == mmu_state(batched)
        # An unmapped page faults at its own address in both.
        faulting = [0x10_1000, 0xDEAD_0000, 0x10_2000]
        with pytest.raises(PageFaultError) as scalar_fault:
            for vaddr in faulting:
                scalar.prewalk(0, vaddr)
        with pytest.raises(PageFaultError) as batch_fault:
            batched.prewalk_batch(0, faulting)
        assert batch_fault.value.vaddr == scalar_fault.value.vaddr == 0xDEAD_0000

    def test_translate_data_batch_matches_scalar_faults(self):
        scalar, batched, space = self._mmu_pair(pages=4)
        good = [0x10_0000 + i * 4096 for i in range(4)]
        expected = [scalar.translate_data(0, vaddr).cycles for vaddr in good]
        result = batched.translate_data_batch(0, good)
        assert result.cycles.tolist() == expected
        assert mmu_state(scalar) == mmu_state(batched)
        with pytest.raises(PageFaultError) as scalar_fault:
            for vaddr in [0x10_0000, 0xBAD_F000, 0xBAD_E000]:
                scalar.translate_data(0, vaddr)
        with pytest.raises(PageFaultError) as batch_fault:
            batched.translate_data_batch(0, [0x10_0000, 0xBAD_F000, 0xBAD_E000])
        assert batch_fault.value.vaddr == scalar_fault.value.vaddr == 0xBAD_F000

    @settings(max_examples=25, deadline=None)
    @given(batches=st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=8),
                            min_size=1, max_size=8),
           repeats=st.integers(1, 3))
    def test_translate_data_cycles_matches_the_batch(self, batches, repeats):
        """Replayed and full demand batches charge what translate_data_batch
        charges and leave the same MMU, TLB and walker state."""
        batch_mmu, cycles_mmu, _ = self._mmu_pair(pages=16)
        for vpns in batches:
            vaddrs = [0x10_0000 + vpn * 4096 + 5 for vpn in vpns]
            for _ in range(repeats):
                expected = int(batch_mmu.translate_data_batch(0, vaddrs).cycles.sum())
                keys = cycles_mmu.data_keys(0, vaddrs)
                assert cycles_mmu.translate_data_cycles(0, vaddrs, keys) == expected
                assert mmu_state(batch_mmu) == mmu_state(cycles_mmu)

    def test_a_repeated_batch_replays_in_the_l1(self):
        _, mmu, _ = self._mmu_pair(pages=16)
        vaddrs = [0x10_0000 + vpn * 4096 for vpn in (3, 1, 2)]
        mmu.translate_data_cycles(0, vaddrs)
        walks, l2_accesses = mmu.stats.walks, mmu.dtlb.l2.stats.accesses
        assert mmu.translate_data_cycles(0, vaddrs) == 3 * mmu.dtlb.l1_latency_cycles
        assert (mmu.stats.walks, mmu.dtlb.l2.stats.accesses) == (walks, l2_accesses)
        assert mmu.dtlb.l1.stats.hits == 3
        assert mmu.dtlb.l1.suffix_matches(mmu.data_keys(0, vaddrs))

    def test_unregistered_asid_raises_keyerror(self):
        _, batched, _ = self._mmu_pair()
        with pytest.raises(KeyError):
            batched.prewalk_batch(99, [0x10_0000])


# -------------------------------------------------------------- MATLB parity
class TestMATLBBatchParity:
    def _stack(self, pages=64, matlb_entries=8):
        space = make_space(pages=pages)
        stacks = []
        for _ in range(2):
            mmu = MMU()
            mmu.register_page_table(space.page_table)
            stacks.append((mmu, MATLB(entries=matlb_entries)))
        return stacks[0], stacks[1]

    @settings(max_examples=20, deadline=None)
    @given(vpns=st.lists(st.integers(0, 40), min_size=1, max_size=60),
           entries=st.integers(1, 10),
           mapped_pages=st.sampled_from([32, 41]))
    def test_prewalk_pages_batch_matches_scalar(self, vpns, entries, mapped_pages):
        (mmu_s, matlb_s), (mmu_b, matlb_b) = self._stack(pages=mapped_pages,
                                                         matlb_entries=entries)
        pages = [0x10_0000 + vpn * 4096 for vpn in vpns]  # vpns >= mapped_pages fault
        try:
            scalar_cycles = prewalk_pages(matlb_s, mmu_s, 0, pages)
        except PageFaultError as fault:
            with pytest.raises(PageFaultError) as excinfo:
                matlb_b.prewalk_pages_batch(mmu_b, 0, pages)
            assert excinfo.value.vaddr == fault.vaddr
            return
        assert matlb_b.prewalk_pages_batch(mmu_b, 0, pages) == scalar_cycles
        assert matlb_state(matlb_s) == matlb_state(matlb_b)
        assert mmu_state(mmu_s) == mmu_state(mmu_b)

    def test_lookup_batch_matches_scalar_lookups(self):
        (mmu_s, matlb_s), (mmu_b, matlb_b) = self._stack()
        pages = [0x10_0000 + i * 4096 for i in range(6)]
        for matlb, mmu in ((matlb_s, mmu_s), (matlb_b, mmu_b)):
            prewalk_pages(matlb, mmu, 0, pages[:4])
        vaddrs = [page + 123 for page in pages] + [pages[0] + 4]
        expected = [lookup(matlb_s, vaddr) for vaddr in vaddrs]
        got = matlb_b.lookup_batch(vaddrs)
        assert got.tolist() == [-1 if paddr is None else paddr for paddr in expected]
        assert matlb_state(matlb_s) == matlb_state(matlb_b)

    def test_suffix_matches_detects_exact_order_only(self):
        (mmu, matlb), _ = self._stack(matlb_entries=4)
        pages = [0x10_0000 + i * 4096 for i in range(3)]
        matlb.prewalk_pages_batch(mmu, 0, pages)
        assert matlb.suffix_matches(pages)
        assert matlb.suffix_matches(pages[1:])  # older entries may sit below the suffix
        assert not matlb.suffix_matches(list(reversed(pages)))
        assert not matlb.suffix_matches(pages[:2])
        # More pages than the buffer holds never match, even when the buffer
        # is the stream's tail.
        assert not matlb.suffix_matches([0x20_0000] + pages)


# ------------------------------------------------------------- ADE parity
def edge_tile_stream(layout: MatrixLayout):
    """Tile stream over an awkward matrix: edge tiles, repeats, overlaps."""
    tiles = []
    for row in range(0, layout.rows, 48):
        rows = min(48, layout.rows - row)
        for k in range(0, layout.cols, 48):
            cols = min(48, layout.cols - k)
            tiles.append((row, rows, k, cols))
    # Re-visit the first row block to exercise the steady-state fast path.
    tiles += tiles[: len(tiles) // 2]
    return tiles


def fault_vaddr(space, layout, tiles, prediction, translate, matlb_entries=64):
    """Run ``tiles`` through ``translate`` on a fresh stack; the faulting
    address of the last tile, which must fault."""
    mmu = MMU()
    mmu.register_page_table(space.page_table)
    ade = AcceleratorDataEngine(matlb=MATLB(entries=matlb_entries))
    for row, rows, k, depth in tiles[:-1]:
        translate(ade, mmu, 0, layout, (row, rows), (k, depth), prediction)
    row, rows, k, depth = tiles[-1]
    with pytest.raises(PageFaultError) as excinfo:
        translate(ade, mmu, 0, layout, (row, rows), (k, depth), prediction)
    return excinfo.value.vaddr


class TestADETileTranslationParity:
    @pytest.mark.parametrize("prediction", [True, False])
    @pytest.mark.parametrize("stride,rows,cols,eb,matlb_entries", [
        (1000, 200, 1000, 8, 64),    # non-power-of-two stride, fp64
        (1024, 200, 1024, 4, 64),    # page-per-row fp32 (the BERT regime)
        (80, 150, 80, 4, 8),         # tiny rows sharing pages, small mATLB
    ])
    def test_tile_stream_parity(self, prediction, stride, rows, cols, eb, matlb_entries):
        space = make_space(pages=(rows * stride * eb) // 4096 + 2)
        layout = MatrixLayout(0x10_0000, rows, cols, stride, eb)
        tiles = edge_tile_stream(layout)

        def run(translate):
            mmu = MMU()
            mmu.register_page_table(space.page_table)
            ade = AcceleratorDataEngine(matlb=MATLB(entries=matlb_entries))
            stalls = [
                translate(ade, mmu, 0, layout, (row, tile_rows), (k, depth), prediction)
                for row, tile_rows, k, depth in tiles
            ]
            return stalls, translation_state(mmu, ade)

        assert run(AcceleratorDataEngine.translate_tile) == run(translate_tile)

    def test_demand_page_fault_parity(self):
        """An unmapped page on the demand path faults at the same address in both paths."""
        space = make_space(pages=4)
        layout = MatrixLayout(0x10_0000, 16, 1024, 1024, 8)  # needs 32 pages; 4 mapped
        tiles = [(0, 16, 0, 1024)]
        first_unmapped = 0x10_0000 + 4 * 4096
        assert fault_vaddr(space, layout, tiles, False, translate_tile) == first_unmapped
        assert fault_vaddr(space, layout, tiles, False,
                           AcceleratorDataEngine.translate_tile) == first_unmapped

    def test_mid_stream_demand_fault_page(self):
        """After a mapped tile, a tile reaching past the mapping faults at its
        first unmapped page in access order, with prediction on or off."""
        space = make_space(pages=20)
        layout = MatrixLayout(0x10_0000, 40, 1024, 1024, 8)  # 80 pages; 20 mapped
        tiles = [(0, 8, 0, 1024), (8, 16, 0, 1024)]
        first_unmapped = 0x10_0000 + 20 * 4096
        for prediction in (True, False):
            for translate in (translate_tile, AcceleratorDataEngine.translate_tile):
                assert fault_vaddr(space, layout, tiles, prediction, translate,
                                   matlb_entries=8) == first_unmapped


# --------------------------------------------------------- emulator parity
class TestEmulatorParity:
    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        tr=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    def test_bit_identical_outputs_and_cycles(self, rows, cols, tr, seed):
        scalar, vector = run_emulator_pair(rows, cols, tr, seed)
        assert np.array_equal(scalar.output, vector.output)  # bitwise, not approx
        assert scalar.cycles == vector.cycles
        assert scalar.macs == vector.macs

    def test_validation_matches_scalar(self):
        vector = VectorizedSystolicArrayEmulator(rows=4, cols=4)
        with pytest.raises(ValueError):
            vector.run_block(np.zeros((4, 3)), np.zeros((4, 4)))
        with pytest.raises(NotImplementedError):
            VectorizedSystolicArrayEmulator(precision=Precision.FP32).run_block(
                np.zeros((4, 4)), np.zeros((4, 4))
            )

    def test_mac_activity_counter_matches_scalar_pes(self):
        rng = np.random.default_rng(3)
        scalar = SystolicArrayEmulator(rows=4, cols=4)
        vector = VectorizedSystolicArrayEmulator(rows=4, cols=4)
        a_block = rng.standard_normal((9, 4))
        b_block = rng.standard_normal((4, 4))
        scalar.run_block(a_block, b_block)
        vector.run_block(a_block, b_block)
        scalar_macs = sum(pe.macs_performed for row in scalar.pes for pe in row)
        assert vector.macs_performed == scalar_macs


# -------------------------------------------------- satellite micro-behaviour
class TestTileCyclesMemo:
    def test_memoized_value_matches_and_caches(self):
        array = SystolicArray(4, 4)
        first = array.tile_cycles(64, 64, 64, Precision.FP32)
        assert (64, 64, 64, Precision.FP32) in array._tile_cycles_cache
        assert array.tile_cycles(64, 64, 64, Precision.FP32) == first

    def test_invalid_tile_still_rejected(self):
        array = SystolicArray(4, 4)
        with pytest.raises(ValueError):
            array.tile_cycles(0, 64, 64)
        with pytest.raises(ValueError):
            array.tile_cycles(0, 64, 64)  # and again: the error is not cached
