"""Tests for the register file and the MPAIS functional executor."""

import pytest

from repro.cpu.exceptions import ExceptionType
from repro.cpu.mtq import MasterTaskQueue, StatusWord
from repro.gemm.precision import Precision
from repro.isa.assembler import assemble_program
from repro.isa.executor import MPAISExecutionError, MPAISExecutor
from repro.isa.instructions import GEMMDescriptor, InitDescriptor, MoveDescriptor, StashDescriptor
from repro.isa.registers import RegisterFile


class RecordingMMAE:
    """A fake MMAE port that records the descriptors it receives."""

    def __init__(self) -> None:
        self.gemms = []
        self.moves = []
        self.inits = []
        self.stashes = []

    def submit_gemm(self, maid, asid, descriptor):
        self.gemms.append((maid, asid, descriptor))

    def submit_move(self, maid, asid, descriptor):
        self.moves.append((maid, asid, descriptor))

    def submit_init(self, maid, asid, descriptor):
        self.inits.append((maid, asid, descriptor))

    def submit_stash(self, maid, asid, descriptor):
        self.stashes.append((maid, asid, descriptor))


def make_executor(asid=0, mtq_entries=4):
    registers = RegisterFile()
    mtq = MasterTaskQueue(num_entries=mtq_entries)
    mmae = RecordingMMAE()
    executor = MPAISExecutor(registers, mtq, mmae, asid=asid)
    return executor, registers, mtq, mmae


def sample_gemm_descriptor() -> GEMMDescriptor:
    return GEMMDescriptor(
        addr_a=0x1000, addr_b=0x2000, addr_c=0x3000,
        m=128, n=128, k=128, precision=Precision.FP64,
        tile_rows=128, tile_cols=128, ttr=64, ttc=64,
    )


class TestRegisterFile:
    def test_write_read(self):
        regs = RegisterFile()
        regs.write(5, 0xDEADBEEF)
        assert regs.read(5) == 0xDEADBEEF

    def test_zero_register_reads_zero(self):
        regs = RegisterFile()
        regs.write(31, 123)
        assert regs.read(31) == 0

    def test_values_truncate_to_64_bits(self):
        regs = RegisterFile()
        regs.write(1, (1 << 70) | 5)
        assert regs.read(1) == 5

    def test_block_read_write(self):
        regs = RegisterFile()
        regs.write_block(2, [1, 2, 3, 4, 5, 6])
        assert regs.read_block(2, 6) == [1, 2, 3, 4, 5, 6]

    def test_block_cannot_cross_x30(self):
        regs = RegisterFile()
        with pytest.raises(ValueError):
            regs.read_block(28, 6)

    def test_snapshot_restore(self):
        regs = RegisterFile()
        regs.write(3, 42)
        snapshot = regs.snapshot()
        regs.write(3, 99)
        regs.restore(snapshot)
        assert regs.read(3) == 42

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            RegisterFile().write(0, -1)


class TestMACfg:
    def test_cfg_allocates_entry_and_dispatches(self):
        executor, regs, mtq, mmae = make_executor(asid=7)
        descriptor = sample_gemm_descriptor()
        regs.write_block(2, descriptor.pack())
        trace = executor.execute_program(assemble_program("MA_CFG X1, X2"))[0]
        assert trace.maid == 0
        assert regs.read(1) == 0
        maid, asid, received = mmae.gemms[0]
        assert (maid, asid) == (0, 7)
        assert received == descriptor
        assert mtq.outstanding_tasks() == 1

    def test_cfg_exhausts_mtq(self):
        executor, regs, mtq, _ = make_executor(mtq_entries=2)
        regs.write_block(2, sample_gemm_descriptor().pack())
        program = assemble_program("MA_CFG X1, X2")
        executor.execute_program(program)
        executor.execute_program(program)
        with pytest.raises(MPAISExecutionError):
            executor.execute_program(program)

    def test_cfg_returns_distinct_maids(self):
        executor, regs, _, _ = make_executor()
        regs.write_block(2, sample_gemm_descriptor().pack())
        program = assemble_program("MA_CFG X1, X2\nMA_CFG X3, X2")
        traces = executor.execute_program(program)
        assert traces[0].maid != traces[1].maid


class TestDataMigrationInstructions:
    def test_move_dispatch(self):
        executor, regs, _, mmae = make_executor()
        descriptor = MoveDescriptor(src_addr=0x100, dst_addr=0x900, length_bytes=4096)
        regs.write_block(10, descriptor.pack())
        executor.execute_program(assemble_program("MA_MOVE X1, X10"))
        assert mmae.moves[0][2] == descriptor

    def test_init_dispatch(self):
        executor, regs, _, mmae = make_executor()
        descriptor = InitDescriptor(dst_addr=0x4000, length_bytes=1 << 16)
        regs.write_block(4, descriptor.pack())
        executor.execute_program(assemble_program("MA_INIT X2, X4"))
        assert mmae.inits[0][2] == descriptor

    def test_stash_dispatch_with_lock(self):
        executor, regs, _, mmae = make_executor()
        descriptor = StashDescriptor(addr=0x8000, length_bytes=1 << 20, lock=True)
        regs.write_block(6, descriptor.pack())
        executor.execute_program(assemble_program("MA_STASH X3, X6"))
        assert mmae.stashes[0][2].lock is True


class TestTaskManagement:
    def _submit_task(self, executor, regs):
        regs.write_block(2, sample_gemm_descriptor().pack())
        return executor.execute_program(assemble_program("MA_CFG X1, X2"))[0].maid

    def test_read_reports_running_state(self):
        executor, regs, mtq, _ = make_executor()
        self._submit_task(executor, regs)
        trace = executor.execute_program(assemble_program("MA_READ X5, X1"))[0]
        status = StatusWord.unpack(trace.status_word)
        assert status.valid and not status.done
        assert mtq.outstanding_tasks() == 1  # MA_READ does not release

    def test_state_releases_completed_entry(self):
        executor, regs, mtq, _ = make_executor(asid=0)
        maid = self._submit_task(executor, regs)
        mtq.mark_done(maid)
        trace = executor.execute_program(assemble_program("MA_STATE X5, X1"))[0]
        status = StatusWord.unpack(trace.status_word)
        assert status.done
        assert mtq.free_entries() == len(mtq)

    def test_clear_after_exception(self):
        executor, regs, mtq, _ = make_executor()
        maid = self._submit_task(executor, regs)
        mtq.mark_done(maid, ExceptionType.PAGE_FAULT)
        # MA_STATE observes the exception but does not release the entry.
        executor.execute_program(assemble_program("MA_STATE X5, X1"))
        assert mtq.free_entries() == len(mtq) - 1
        executor.execute_program(assemble_program("MA_CLEAR X1"))
        assert mtq.free_entries() == len(mtq)

    def test_cycle_accounting_accumulates(self):
        executor, regs, _, _ = make_executor()
        self._submit_task(executor, regs)
        executor.execute_program(assemble_program("MA_READ X5, X1"))
        assert executor.cycles_executed > 0
        assert len(executor.trace) == 2

    def test_set_asid_changes_ownership(self):
        executor, regs, mtq, mmae = make_executor(asid=1)
        executor.set_asid(9)
        self._submit_task(executor, regs)
        assert mmae.gemms[0][1] == 9
        assert any(entry.valid and entry.asid == 9 for entry in mtq.entries)
