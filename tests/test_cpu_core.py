"""Tests for the CPU throughput model, the CPU core, MMU and process management."""

import pytest

from repro.core.config import CPUConfig
from repro.cpu.core import CPUCore
from repro.cpu.mmu import MMU
from repro.cpu.process import ProcessManager
from repro.gemm.precision import Precision
from repro.gemm.workloads import GEMMShape
from repro.isa.registers import RegisterFile
from repro.mem.page_table import PageFaultError


class TestCPUCorePeaks:
    def test_table4_fp64_peak(self):
        cpu = CPUConfig()
        assert cpu.peak_gflops(Precision.FP64) == pytest.approx(35.2)

    def test_table4_fp32_peak(self):
        cpu = CPUConfig()
        assert cpu.peak_gflops(Precision.FP32) == pytest.approx(70.4, rel=0.01)

    def test_gemm_time_positive_and_below_peak(self):
        cpu = CPUConfig()
        shape = GEMMShape(1024, 1024, 1024, Precision.FP64)
        seconds = cpu.gemm_seconds(shape)
        assert seconds > 0
        assert shape.flops / seconds / 1e9 <= cpu.peak_gflops(Precision.FP64)

    def test_gemm_efficiency_degrades_for_tiny_matrices(self):
        cpu = CPUConfig()
        big = cpu.gemm_efficiency(GEMMShape(2048, 2048, 2048))
        tiny = cpu.gemm_efficiency(GEMMShape(32, 32, 32))
        assert tiny < big

    def test_elementwise_is_memory_bound_for_low_intensity(self):
        cpu = CPUConfig(memory_bandwidth_bytes_per_s=10e9)
        seconds = cpu.elementwise_seconds(flops=1000, bytes_touched=10_000_000)
        assert seconds == pytest.approx(10_000_000 / 10e9)

    def test_elementwise_rejects_negative(self):
        with pytest.raises(ValueError):
            CPUConfig().elementwise_seconds(-1, 0)

    def test_executor_requires_attached_mmae(self):
        core = CPUCore(CPUConfig())
        with pytest.raises(RuntimeError):
            _ = core.executor


class TestMMU:
    def test_translate_requires_registered_page_table(self):
        mmu = MMU()
        with pytest.raises(KeyError):
            mmu.translate_data(0, 0x1000)

    def test_translate_data_path(self):
        manager = ProcessManager()
        process = manager.create_process("p")
        base = process.address_space.allocate_region("data", 64 * 1024)
        mmu = MMU()
        mmu.register_page_table(process.address_space.page_table)
        data = mmu.translate_data(process.asid, base)
        assert data.paddr == process.address_space.page_table.translate(base)
        assert mmu.stats.translations == mmu.stats.dtlb_accesses == 1

    def test_prewalk_makes_demand_access_hit(self):
        manager = ProcessManager()
        process = manager.create_process("p")
        base = process.address_space.allocate_region("data", 1 << 20)
        mmu = MMU()
        mmu.register_page_table(process.address_space.page_table)
        mmu.prewalk(process.asid, base + 8192)
        result = mmu.translate_data(process.asid, base + 8192)
        assert result.hit

    def test_repeat_translation_hits_without_a_rewalk(self):
        manager = ProcessManager()
        process = manager.create_process("p")
        base = process.address_space.allocate_region("d", 4096)
        mmu = MMU()
        mmu.register_page_table(process.address_space.page_table)
        first = mmu.translate_data(process.asid, base)
        second = mmu.translate_data(process.asid, base + 64)
        assert first.level == "walk" and second.level == "l1"
        assert second.paddr == first.paddr + 64
        assert mmu.stats.walks == 1

    def test_unmapped_address_faults(self):
        manager = ProcessManager()
        process = manager.create_process("p")
        mmu = MMU()
        mmu.register_page_table(process.address_space.page_table)
        with pytest.raises(PageFaultError):
            mmu.translate_data(process.asid, 0xFFFF_0000)


class TestProcessManager:
    def test_asids_are_unique_and_sequential(self):
        manager = ProcessManager()
        processes = [manager.create_process(f"p{i}") for i in range(3)]
        assert [p.asid for p in processes] == [0, 1, 2]

    def test_switch_saves_and_restores_registers(self):
        manager = ProcessManager()
        a = manager.create_process("a")
        b = manager.create_process("b")
        registers = RegisterFile()
        registers.write(1, 111)
        manager.switch_to(b.asid, registers)
        registers.write(1, 222)
        manager.switch_to(a.asid, registers)
        assert registers.read(1) == 111
        manager.switch_to(b.asid, registers)
        assert registers.read(1) == 222

    def test_switch_to_self_is_free(self):
        manager = ProcessManager()
        a = manager.create_process("a")
        assert manager.switch_to(a.asid) == 0

    def test_switch_cost_accumulates(self):
        manager = ProcessManager()
        a = manager.create_process("a")
        b = manager.create_process("b")
        manager.switch_to(b.asid)
        manager.switch_to(a.asid)
        assert manager.total_switch_cycles == 2 * ProcessManager.CONTEXT_SWITCH_CYCLES

    def test_core_switch_process_updates_executor_asid(self):
        core = CPUCore(CPUConfig())
        core.processes.create_process("a")
        process_b = core.processes.create_process("b")

        class _NullMMAE:
            def submit_gemm(self, maid, asid, descriptor): ...
            def submit_move(self, maid, asid, descriptor): ...
            def submit_init(self, maid, asid, descriptor): ...
            def submit_stash(self, maid, asid, descriptor): ...

        executor = core.attach_mmae(_NullMMAE())
        core.switch_process(process_b.asid)
        assert executor.asid == process_b.asid
