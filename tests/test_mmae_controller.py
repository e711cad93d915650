"""Tests for the STQ, the accelerator controller and the dataflow timing model."""

import math

import numpy as np
import pytest

from repro.cpu.exceptions import ExceptionType
from repro.gemm.precision import Precision
from repro.gemm.tiling import TileConfig
from repro.gemm.workloads import GEMMShape
from repro.isa.instructions import GEMMDescriptor, InitDescriptor, MoveDescriptor, StashDescriptor
from repro.mem.hostmem import HostMemory
from repro.mmae.controller import AcceleratorController
from repro.mmae.dataflow import (
    MemoryEnvironment,
    MMAETimingParameters,
    build_tile_schedule,
    estimate_gemm_timing,
)
from repro.mmae.stq import STQEntryState, SlaveTaskQueue


class TestSlaveTaskQueue:
    def test_receive_and_execute_in_order(self):
        stq = SlaveTaskQueue(capacity=4)
        stq.receive(0, 0, "gemm", "first")
        stq.receive(1, 0, "gemm", "second")
        assert stq.next_task().descriptor == "first"

    def test_capacity_enforced(self):
        stq = SlaveTaskQueue(capacity=1)
        stq.receive(0, 0, "gemm", None)
        with pytest.raises(RuntimeError):
            stq.receive(1, 0, "gemm", None)

    def test_completion_callback_reaches_mtq(self):
        stq = SlaveTaskQueue()
        notifications = []
        stq.on_completion(lambda maid, exc: notifications.append((maid, exc)))
        entry = stq.receive(3, 0, "gemm", None)
        entry.mark_running()
        stq.complete(entry, cycles=100.0)
        assert notifications == [(3, ExceptionType.NONE)]

    def test_failure_callback_carries_exception(self):
        stq = SlaveTaskQueue()
        notifications = []
        stq.on_completion(lambda maid, exc: notifications.append((maid, exc)))
        entry = stq.receive(5, 0, "gemm", None)
        entry.mark_running()
        stq.fail(entry, ExceptionType.BUFFER_OVERFLOW)
        assert notifications == [(5, ExceptionType.BUFFER_OVERFLOW)]
        assert entry.state is STQEntryState.ERROR

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SlaveTaskQueue().receive(0, 0, "matmul", None)


def make_controller(host_memory=None, mmu=None, prediction=True) -> AcceleratorController:
    controller = AcceleratorController(
        node_id=0, host_memory=host_memory, mmu=mmu, prediction_enabled=prediction,
    )
    controller.stq.on_completion(lambda maid, exc: None)
    return controller


def square_descriptor(addr_a, addr_b, addr_c, size, precision=Precision.FP64) -> GEMMDescriptor:
    return GEMMDescriptor(
        addr_a=addr_a, addr_b=addr_b, addr_c=addr_c, m=size, n=size, k=size,
        precision=precision, tile_rows=max(size, 64), tile_cols=max(size, 64),
        ttr=min(64, size), ttc=min(64, size),
    )


class TestControllerGEMM:
    def test_timing_mode_completes_and_reports_cycles(self):
        controller = make_controller()
        controller.submit_gemm(0, 0, square_descriptor(0x1000, 0x2000, 0x3000, 256))
        results = controller.execute_pending()
        assert len(results) == 1
        assert results[0].succeeded
        assert results[0].cycles > 0
        assert results[0].timing.efficiency > 0.5

    def test_functional_mode_matches_numpy(self, rng):
        memory = HostMemory()
        size = 96
        a = rng.standard_normal((size, size))
        b = rng.standard_normal((size, size))
        c = np.zeros((size, size))
        memory.register_matrix(0x10_0000, a)
        memory.register_matrix(0x20_0000, b)
        memory.register_matrix(0x30_0000, c)
        controller = make_controller(host_memory=memory)
        controller.submit_gemm(0, 0, square_descriptor(0x10_0000, 0x20_0000, 0x30_0000, size))
        result = controller.execute_pending()[0]
        assert result.functional
        np.testing.assert_allclose(memory.matrix_at(0x30_0000), a @ b, rtol=1e-10)

    def test_functional_fp32_within_tolerance(self, rng):
        memory = HostMemory()
        size = 64
        a = rng.standard_normal((size, size)).astype(np.float32)
        b = rng.standard_normal((size, size)).astype(np.float32)
        c = np.zeros((size, size), dtype=np.float32)
        for addr, mat in ((0x1000, a), (0x40000, b), (0x80000, c)):
            memory.register_matrix(addr, mat)
        controller = make_controller(host_memory=memory)
        controller.submit_gemm(0, 0, square_descriptor(0x1000, 0x40000, 0x80000, size, Precision.FP32))
        controller.execute_pending()
        np.testing.assert_allclose(
            memory.matrix_at(0x80000), a.astype(np.float64) @ b.astype(np.float64), rtol=1e-3, atol=1e-3
        )

    def test_buffer_overflow_exception(self):
        controller = make_controller()
        descriptor = GEMMDescriptor(
            addr_a=0x1000, addr_b=0x2000, addr_c=0x3000, m=512, n=512, k=512,
            tile_rows=512, tile_cols=512, ttr=512, ttc=512,  # far beyond 64 KB buffers
        )
        controller.submit_gemm(0, 0, descriptor)
        result = controller.execute_pending()[0]
        assert not result.succeeded
        assert result.exception is ExceptionType.BUFFER_OVERFLOW
        assert controller.failed_tasks == 1

    def test_mismatched_operand_shapes_raise_invalid_config(self, rng):
        memory = HostMemory()
        memory.register_matrix(0x1000, rng.standard_normal((32, 32)))
        memory.register_matrix(0x9000, rng.standard_normal((32, 32)))
        memory.register_matrix(0x12000, rng.standard_normal((16, 16)))  # wrong C shape
        controller = make_controller(host_memory=memory)
        controller.submit_gemm(0, 0, square_descriptor(0x1000, 0x9000, 0x12000, 32))
        result = controller.execute_pending()[0]
        assert result.exception is ExceptionType.INVALID_CONFIG

    def test_tasks_execute_in_submission_order(self):
        controller = make_controller()
        controller.submit_gemm(0, 0, square_descriptor(0x1000, 0x2000, 0x3000, 128))
        controller.submit_gemm(1, 0, square_descriptor(0x4000, 0x5000, 0x6000, 128))
        results = controller.execute_pending()
        assert [result.maid for result in results] == [0, 1]
        assert controller.completed_tasks == 2

    def test_prediction_toggle_changes_timing(self):
        with_pred = make_controller(prediction=True)
        without_pred = make_controller(prediction=False)
        descriptor = square_descriptor(0x1000, 0x200000, 0x400000, 1024)
        with_pred.submit_gemm(0, 0, descriptor)
        without_pred.submit_gemm(0, 0, descriptor)
        cycles_with = with_pred.execute_pending()[0].cycles
        cycles_without = without_pred.execute_pending()[0].cycles
        assert cycles_without > cycles_with


class TestControllerDataMigration:
    def test_move_copies_between_regions(self, rng):
        memory = HostMemory()
        src = rng.standard_normal((16, 16))
        dst = np.zeros((16, 16))
        memory.register_matrix(0x1000, src)
        memory.register_matrix(0x8000, dst)
        controller = make_controller(host_memory=memory)
        controller.submit_move(0, 0, MoveDescriptor(src_addr=0x1000, dst_addr=0x8000,
                                                    length_bytes=src.nbytes))
        result = controller.execute_pending()[0]
        assert result.succeeded and result.cycles > 0
        np.testing.assert_array_equal(memory.matrix_at(0x8000), src)

    def test_init_zeroes_region(self):
        memory = HostMemory()
        memory.register_matrix(0x4000, np.ones((8, 8)))
        controller = make_controller(host_memory=memory)
        controller.submit_init(0, 0, InitDescriptor(dst_addr=0x4000, length_bytes=512))
        controller.execute_pending()
        assert np.all(memory.matrix_at(0x4000) == 0)

    # 6000 bytes is a whole number of cycles at the default 60 B/cycle DRAM
    # share; 64 and 8192 bytes end on a partial cycle that rounds up.
    @pytest.mark.parametrize("length_bytes", [64, 6000, 8192])
    @pytest.mark.parametrize("lock", [True, False])
    def test_stash_takes_its_dram_share_cycles(self, lock, length_bytes):
        """A stash completes without an exception in ceil(bytes / DRAM bytes per cycle), locked or not."""
        controller = make_controller()
        responses = []
        controller.stq.on_completion(lambda maid, exception: responses.append((maid, exception)))
        dram_bytes_per_cycle = controller.env.dram_bandwidth_share_bytes_per_s / controller.params.frequency_hz
        controller.submit_stash(7, 0, StashDescriptor(addr=0x2000, length_bytes=length_bytes, lock=lock))
        (result,) = controller.execute_pending()
        assert result.succeeded
        assert result.cycles == math.ceil(length_bytes / dram_bytes_per_cycle)
        assert responses == [(7, ExceptionType.NONE)]
        assert controller.completed_tasks == 1


class TestDataflowTiming:
    ENV = MemoryEnvironment()
    PARAMS = MMAETimingParameters()

    def test_schedule_counts_match_tiling(self):
        shape = GEMMShape(2048, 2048, 2048, Precision.FP64)
        schedule = build_tile_schedule(shape, TileConfig(1024, 1024), TileConfig(64, 64),
                                       self.PARAMS, self.ENV)
        assert schedule.num_level1_tiles == 8
        assert schedule.num_level2_tiles == 8 * 16 * 16 * 16

    def test_compute_cycles_at_least_ideal(self):
        shape = GEMMShape(1024, 1024, 1024)
        schedule = build_tile_schedule(shape, TileConfig(1024, 1024), TileConfig(64, 64),
                                       self.PARAMS, self.ENV)
        ideal = shape.macs / 16
        assert schedule.compute_cycles >= ideal
        assert schedule.compute_cycles < ideal * 1.05

    def test_dram_traffic_never_exceeds_l3_traffic(self):
        for size in (256, 1024, 4096):
            schedule = build_tile_schedule(GEMMShape(size, size, size), TileConfig(1024, 1024),
                                           TileConfig(64, 64), self.PARAMS, self.ENV)
            assert schedule.dram_traffic_bytes <= schedule.l3_traffic_bytes + 1
            assert schedule.dram_traffic_bytes >= 0.9 * GEMMShape(size, size, size).total_bytes

    def test_efficiency_bounded_by_one(self):
        timing = estimate_gemm_timing(GEMMShape(512, 512, 512))
        assert 0 < timing.efficiency <= 1.0

    def test_large_gemm_is_compute_bound_single_node(self):
        timing = estimate_gemm_timing(GEMMShape(4096, 4096, 4096))
        assert timing.efficiency > 0.95
        assert timing.exposed_dma_cycles == 0

    def test_starved_memory_environment_exposes_dma(self):
        env = MemoryEnvironment(
            l3_share_bytes=1 << 20,
            dram_bandwidth_share_bytes_per_s=2e9,
            l3_round_trip_ns=300.0,
            dram_round_trip_ns=400.0,
        )
        timing = estimate_gemm_timing(GEMMShape(2048, 2048, 2048), env=env)
        assert timing.exposed_dma_cycles > 0
        assert timing.efficiency < 0.9

    def test_prediction_reduces_total_cycles(self):
        shape = GEMMShape(2048, 2048, 2048)
        with_pred = estimate_gemm_timing(shape, prediction_enabled=True)
        without = estimate_gemm_timing(shape, prediction_enabled=False)
        assert without.total_cycles > with_pred.total_cycles
        assert without.translation_stall_cycles > with_pred.translation_stall_cycles

    def test_peak_matches_precision(self):
        assert estimate_gemm_timing(GEMMShape(256, 256, 256, Precision.FP32)).peak_gflops == pytest.approx(160.0)
        assert estimate_gemm_timing(GEMMShape(256, 256, 256, Precision.FP16)).peak_gflops == pytest.approx(320.0)
