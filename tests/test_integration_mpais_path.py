"""End-to-end integration tests: MPAIS instructions -> MTQ/STQ -> MMAE -> memory.

These tests run the full software-visible flow the paper describes: pack a
GEMM descriptor into registers, execute MA_CFG on the CPU core, let the MMAE
drain its Slave Task Queue (computing real data through the systolic-array
datapath), poll with MA_READ, release with MA_STATE, and handle exceptions
with MA_CLEAR — including across process switches.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import MACORuntime, MACOSystem, maco_default_config
from repro.cpu.exceptions import ExceptionType
from repro.cpu.mtq import MTQState, StatusWord
from repro.gemm import Precision
from repro.gemm.tiling import TileConfig
from repro.isa.assembler import assemble_program
from repro.isa.instructions import GEMMDescriptor


class TestFunctionalGEMMThroughMPAIS:
    def test_fp64_gemm_matches_numpy(self, single_node_system, rng):
        node = single_node_system.node(0)
        a = rng.standard_normal((80, 96))
        b = rng.standard_normal((96, 72))
        c = rng.standard_normal((80, 72))
        result, submission = node.run_gemm_functional(a, b, c, Precision.FP64)
        assert submission.completed
        assert submission.exception is ExceptionType.NONE
        np.testing.assert_allclose(result, a @ b + c, rtol=1e-10, atol=1e-10)

    def test_result_written_back_to_host_memory(self, single_node_system, rng):
        node = single_node_system.node(0)
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        result, submission = node.run_gemm_functional(a, b, None)
        stored = node.host_memory.matrix_at(submission.descriptor.addr_c)
        np.testing.assert_array_equal(stored, result)

    def test_input_matrices_not_modified(self, single_node_system, rng):
        node = single_node_system.node(0)
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        a_copy, b_copy = a.copy(), b.copy()
        node.run_gemm_functional(a, b, None)
        np.testing.assert_array_equal(a, a_copy)
        np.testing.assert_array_equal(b, b_copy)

    def test_mtq_entry_released_after_ma_state(self, single_node_system, rng):
        node = single_node_system.node(0)
        node.run_gemm_functional(rng.standard_normal((64, 64)), rng.standard_normal((64, 64)))
        assert node.cpu.mtq.outstanding_tasks() == 0
        assert node.cpu.mtq.free_entries() == len(node.cpu.mtq)

    def test_non_square_tiled_gemm(self, single_node_system, rng):
        node = single_node_system.node(0)
        a = rng.standard_normal((130, 70))
        b = rng.standard_normal((70, 50))
        result, _ = node.run_gemm_functional(a, b, None, ttr=32, ttc=32)
        np.testing.assert_allclose(result, a @ b, rtol=1e-10)

    def test_fp32_gemm_through_full_path(self, single_node_system, rng):
        node = single_node_system.node(0)
        a = rng.standard_normal((64, 64)).astype(np.float32)
        b = rng.standard_normal((64, 64)).astype(np.float32)
        result, _ = node.run_gemm_functional(a, b, None, precision=Precision.FP32)
        np.testing.assert_allclose(result, a.astype(np.float64) @ b.astype(np.float64),
                                   rtol=1e-3, atol=1e-3)

    def test_sequential_gemms_reuse_mtq_entries(self, single_node_system, rng):
        node = single_node_system.node(0)
        for _ in range(2 * len(node.cpu.mtq)):
            a = rng.standard_normal((32, 32))
            b = rng.standard_normal((32, 32))
            result, submission = node.run_gemm_functional(a, b, None, ttr=32, ttc=32)
            assert submission.completed
            np.testing.assert_allclose(result, a @ b, rtol=1e-10)


class TestAsyncRuntime:
    def test_async_submit_poll_wait(self, rng):
        runtime = MACORuntime(config=maco_default_config(num_nodes=1))
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        handle = runtime.gemm_async(a, b)
        status = runtime.poll(handle)
        assert status.valid and not status.done          # still queued, MA_READ does not block
        result = runtime.wait(handle)
        np.testing.assert_allclose(result, a @ b, rtol=1e-10)
        assert runtime.outstanding_tasks() == 0

    def test_multiple_async_tasks_queue_in_stq(self, rng):
        runtime = MACORuntime(config=maco_default_config(num_nodes=1))
        handles = []
        expected = []
        for _ in range(3):
            a = rng.standard_normal((48, 48))
            b = rng.standard_normal((48, 48))
            handles.append(runtime.gemm_async(a, b, tile=48))
            expected.append(a @ b)
        for handle, reference in zip(handles, expected):
            np.testing.assert_allclose(runtime.wait(handle), reference, rtol=1e-10)

    def test_blocking_gemm_api(self, rng):
        runtime = MACORuntime(config=maco_default_config(num_nodes=2))
        a = rng.standard_normal((96, 64))
        b = rng.standard_normal((64, 32))
        np.testing.assert_allclose(runtime.gemm(a, b), a @ b, rtol=1e-10)

    def test_async_and_blocking_gemms_share_the_config_tiling(self, rng, monkeypatch):
        # Both entry points build their descriptor in ComputeNode.prepare_gemm,
        # so a level-1 tile smaller than the matrix applies to either.
        from repro.core.compute_node import ComputeNode

        descriptors = []
        submit = ComputeNode.submit_gemm

        def recording(node, descriptor, execute=True):
            descriptors.append(descriptor)
            return submit(node, descriptor, execute)

        monkeypatch.setattr(ComputeNode, "submit_gemm", recording)
        config = dataclasses.replace(maco_default_config(num_nodes=1),
                                     level1_tile=TileConfig(128, 128))
        a = rng.standard_normal((256, 256)).astype(np.float32)
        b = rng.standard_normal((256, 256)).astype(np.float32)
        blocking = MACORuntime(config=config)
        c_blocking = blocking.gemm(a, b, precision=Precision.FP32)
        asynchronous = MACORuntime(config=config)
        c_async = asynchronous.wait(asynchronous.gemm_async(a, b, precision=Precision.FP32))
        assert [(d.tile_rows, d.tile_cols, d.ttr, d.ttc) for d in descriptors] == [
            (128, 128, 64, 64)] * 2
        assert (asynchronous.system.node(0).mmae.busy_cycles
                == blocking.system.node(0).mmae.busy_cycles)
        np.testing.assert_array_equal(c_async, c_blocking)

    def test_every_node_runs_gemms_after_node_zero(self, rng):
        # Every node's default address space starts at the same virtual base,
        # so the nodes must not share one host-memory map.
        runtime = MACORuntime(config=maco_default_config(num_nodes=4))
        for node_id in (0, 1, 2, 3, 0, 1, 2, 3):
            a = rng.standard_normal((32, 48))
            b = rng.standard_normal((48, 40))
            handle = runtime.gemm_async(a, b, node_id=node_id, tile=32)
            np.testing.assert_allclose(runtime.wait(handle), a @ b, rtol=1e-10)
            assert runtime.outstanding_tasks(node_id) == 0


class TestExceptionsAndMultiprocess:
    def test_unmapped_operand_raises_page_fault_exception(self, single_node_system):
        node = single_node_system.node(0)
        descriptor = GEMMDescriptor(
            addr_a=0xDEAD_0000, addr_b=0xBEEF_0000, addr_c=0xFEED_0000,
            m=64, n=64, k=64, tile_rows=64, tile_cols=64, ttr=64, ttc=64,
        )
        submission = node.submit_gemm(descriptor)
        assert submission.status.done
        assert submission.status.exception_en
        assert submission.status.exception_type is ExceptionType.PAGE_FAULT
        # The entry stays allocated until MA_CLEAR.
        assert node.cpu.mtq.state_of(submission.maid) is MTQState.DONE_EXCEPTION
        node.cpu.registers.write(1, submission.maid)
        node.executor.execute_program(assemble_program("MA_CLEAR X1"))
        assert node.cpu.mtq.state_of(submission.maid) is MTQState.FREE

    @pytest.mark.parametrize("prediction", [True, False])
    def test_unmapped_operand_page_ends_the_task_with_page_fault(self, prediction, rng):
        """An A operand held in host memory at a virtual address its process
        never mapped faults in the ADE's translation: the task ends with
        PAGE_FAULT in its status word (Table III) and C is left untouched."""
        node = MACOSystem(maco_default_config(num_nodes=1, prediction_enabled=prediction)).node(0)
        addr_a = 0xDEAD_0000
        node.host_memory.register_matrix(addr_a, rng.standard_normal((64, 64)))
        addr_b, _ = node.allocate_matrix(64, 64, data=rng.standard_normal((64, 64)))
        addr_c, c_array = node.allocate_matrix(64, 64, data=rng.standard_normal((64, 64)))
        c_before = c_array.copy()
        descriptor = GEMMDescriptor(
            addr_a=addr_a, addr_b=addr_b, addr_c=addr_c,
            m=64, n=64, k=64, tile_rows=64, tile_cols=64, ttr=64, ttc=64,
        )
        submission = node.submit_gemm(descriptor)
        assert submission.status.done and submission.status.exception_en
        assert submission.status.exception_type is ExceptionType.PAGE_FAULT
        assert node.mmae.failed_tasks == 1
        np.testing.assert_array_equal(c_array, c_before)

    def test_buffer_overflow_exception_through_full_path(self, single_node_system, rng):
        node = single_node_system.node(0)
        a = rng.standard_normal((256, 256))
        addr_a, _ = node.allocate_matrix(256, 256, data=a)
        addr_b, _ = node.allocate_matrix(256, 256, data=a)
        addr_c, _ = node.allocate_matrix(256, 256)
        descriptor = GEMMDescriptor(
            addr_a=addr_a, addr_b=addr_b, addr_c=addr_c, m=256, n=256, k=256,
            tile_rows=256, tile_cols=256, ttr=256, ttc=256,
        )
        submission = node.submit_gemm(descriptor)
        assert submission.status.exception_type is ExceptionType.BUFFER_OVERFLOW

    def test_two_processes_results_survive_context_switch(self, single_node_system, rng):
        node = single_node_system.node(0)
        process_a = node.default_process
        process_b = node.cpu.processes.create_process("second")
        node.cpu.mmu.register_page_table(process_b.address_space.page_table)

        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        addr_a, _ = node.allocate_matrix(64, 64, data=a)
        addr_b, _ = node.allocate_matrix(64, 64, data=b)
        addr_c, c_array = node.allocate_matrix(64, 64)
        descriptor = GEMMDescriptor(addr_a=addr_a, addr_b=addr_b, addr_c=addr_c,
                                    m=64, n=64, k=64, tile_rows=64, tile_cols=64, ttr=64, ttc=64)

        # Process A submits but does not wait.
        submission = node.submit_gemm(descriptor, execute=False)
        # Switch to process B, which does unrelated work.
        node.cpu.switch_process(process_b.asid)
        assert node.executor.asid == process_b.asid
        # The MMAE drains its queue while process B runs.
        node.mmae.execute_pending()
        # Back to process A: the MTQ entry still belongs to it and is done.
        node.cpu.switch_process(process_a.asid)
        node.cpu.registers.write(1, submission.maid)
        trace = node.executor.execute_program(assemble_program("MA_STATE X3, X1"))[0]
        status = StatusWord.unpack(trace.status_word)
        assert status.done and status.asid == process_a.asid
        np.testing.assert_allclose(c_array, a @ b, rtol=1e-10)

    def test_data_migration_instructions_through_path(self, single_node_system, rng):
        """MA_INIT zeroes a region and MA_MOVE copies one region to another."""
        from repro.isa.instructions import InitDescriptor, MoveDescriptor

        node = single_node_system.node(0)
        src = rng.standard_normal((32, 32))
        addr_src, _ = node.allocate_matrix(32, 32, data=src)
        addr_dst, dst_array = node.allocate_matrix(32, 32, data=rng.standard_normal((32, 32)))

        node.cpu.registers.write_block(2, MoveDescriptor(
            src_addr=addr_src, dst_addr=addr_dst, length_bytes=src.nbytes).pack())
        node.executor.execute_program(assemble_program("MA_MOVE X1, X2"))
        node.mmae.execute_pending()
        np.testing.assert_array_equal(dst_array, src)

        node.cpu.registers.write_block(2, InitDescriptor(
            dst_addr=addr_dst, length_bytes=src.nbytes).pack())
        node.executor.execute_program(assemble_program("MA_INIT X1, X2"))
        node.mmae.execute_pending()
        assert np.all(dst_array == 0)

    @pytest.mark.parametrize("lock", [True, False])
    def test_stash_instruction_completes_in_its_dram_cycles(self, single_node_system, lock):
        """MA_STASH completes cleanly and streams at the node's DRAM share, locked or not."""
        from repro.isa.instructions import StashDescriptor

        node = single_node_system.node(0)
        addr, _ = node.allocate_matrix(64, 64)
        dram_bytes_per_cycle = node.mmae.env.dram_bandwidth_share_bytes_per_s / node.mmae.params.frequency_hz
        node.cpu.registers.write_block(2, StashDescriptor(addr=addr, length_bytes=8192, lock=lock).pack())
        maid = node.executor.execute_program(assemble_program("MA_STASH X1, X2"))[0].maid
        (result,) = node.mmae.execute_pending()
        trace = node.executor.execute_program(assemble_program("MA_STATE X3, X1"))[0]
        status = StatusWord.unpack(trace.status_word)
        assert status.done and not status.exception_en
        assert status.exception_type is ExceptionType.NONE
        assert (result.maid, result.kind) == (maid, "stash")
        assert result.cycles == math.ceil(8192 / dram_bytes_per_cycle)


# ------------------------------------------------ functional translation replay
def runtime_gemm_translations(monkeypatch, config, precision, size, seed=5):
    """Run one ``size``-cubed GEMM through :class:`MACORuntime` on node 0.

    Returns the node and the A-tile stream its controller translated, as
    ``(layout, [(row, rows, k, depth), ...])``, recorded by wrapping
    ``AcceleratorDataEngine.translate_tile``.
    """
    from repro.mmae.data_engine import AcceleratorDataEngine

    calls = []
    translate = AcceleratorDataEngine.translate_tile

    def recording(ade, mmu, asid, layout, tile_rows, tile_cols, prediction_enabled):
        calls.append((layout, (*tile_rows, *tile_cols)))
        return translate(ade, mmu, asid, layout, tile_rows, tile_cols, prediction_enabled)

    monkeypatch.setattr(AcceleratorDataEngine, "translate_tile", recording)
    rng = np.random.default_rng(seed)
    runtime = MACORuntime(system=MACOSystem(config))
    a, b = rng.standard_normal((size, size)), rng.standard_normal((size, size))
    c = runtime.wait(runtime.gemm_async(a, b, precision=precision, node_id=0))
    np.testing.assert_allclose(c, a @ b, rtol=0.1, atol=1.0)
    monkeypatch.setattr(AcceleratorDataEngine, "translate_tile", translate)
    layouts = {id(layout) for layout, _ in calls}
    assert len(layouts) == 1
    return runtime.system.node(0), calls[0][0], [tile for _, tile in calls]


def schedule_a_tiles(size, tile=64):
    """The A tiles of the controller's (row, col, k) schedule for a square GEMM."""
    from repro.gemm import GEMMShape, TileConfig, TwoLevelTiling

    tiling = TwoLevelTiling(GEMMShape(size, size, size), TileConfig(max(size, tile), max(size, tile)),
                            TileConfig(min(tile, size), min(tile, size)))
    return [(t.row_start, t.rows, t.k_start, t.depth)
            for parent in tiling.level1_tiles() for t in tiling.level2_tiles(parent)]


def oracle_state(node, layout, tiles, prediction, matlb_entries=64):
    """:func:`translation_state` after the scalar oracle translates ``tiles`` on a fresh stack."""
    from repro.conformance.functional_oracle import translate_tile, translation_state
    from repro.cpu.mmu import MMU
    from repro.mmae.data_engine import AcceleratorDataEngine
    from repro.mmae.matlb import MATLB

    dtlb = node.cpu.mmu.dtlb
    mmu = MMU(dtlb_entries=dtlb.l1.capacity, l2_entries=dtlb.l2.capacity)
    mmu.register_page_table(node.default_process.address_space.page_table)
    ade = AcceleratorDataEngine(matlb=MATLB(matlb_entries))
    asid = node.default_process.asid
    for row, rows, k, depth in tiles:
        translate_tile(ade, mmu, asid, layout, (row, rows), (k, depth), prediction)
    return translation_state(mmu, ade)


class TestFunctionalTranslationReplay:
    """Steady-state tiles replay (DESIGN.md section 6) and stay exact."""

    @pytest.mark.parametrize("prediction", [True, False])
    def test_fp32_512_replays_all_but_the_first_tile_of_each_row_block(self, monkeypatch,
                                                                      prediction):
        from parity_utils import record_replays

        replays = record_replays(monkeypatch)
        config = maco_default_config(num_nodes=4, prediction_enabled=prediction)
        _, _, tiles = runtime_gemm_translations(monkeypatch, config, Precision.FP32, 512)
        assert len(tiles) == 512
        # With prediction the mATLB replays; without, the L1 DTLB does.
        assert replays == ["MATLB" if prediction else "TLB"] * 504

    @pytest.mark.parametrize("prediction", [True, False])
    @pytest.mark.parametrize("precision,size", [(Precision.FP64, 256), (Precision.FP16, 384)])
    def test_final_translation_state_equals_the_oracle(self, monkeypatch, precision, size,
                                                       prediction):
        from repro.conformance.functional_oracle import translation_state

        config = maco_default_config(num_nodes=4, prediction_enabled=prediction)
        node, layout, tiles = runtime_gemm_translations(monkeypatch, config, precision, size)
        assert tiles == schedule_a_tiles(size)
        assert (translation_state(node.cpu.mmu, node.mmae.ade)
                == oracle_state(node, layout, tiles, prediction))


class TestMATLBCapacityConfig:
    def test_config_matlb_entries_reach_every_node(self, monkeypatch):
        """``MMAEConfig.matlb_entries`` sizes every node's mATLB, and an FP32
        512^3 GEMM then translates as the oracle does with that capacity."""
        import dataclasses

        from repro.conformance.functional_oracle import check_tile_stream, translation_state

        base = maco_default_config(num_nodes=4, prediction_enabled=True)
        config = dataclasses.replace(base, mmae=dataclasses.replace(base.mmae, matlb_entries=8))
        system = MACOSystem(config)
        assert [system.node(i).mmae.matlb.capacity for i in range(4)] == [8] * 4
        node, layout, tiles = runtime_gemm_translations(monkeypatch, config, Precision.FP32, 512)
        page_table = node.default_process.address_space.page_table
        assert check_tile_stream(page_table, layout, tiles, True, matlb_entries=8) is None
        assert (translation_state(node.cpu.mmu, node.mmae.ade)
                == oracle_state(node, layout, tiles, True, matlb_entries=8))
