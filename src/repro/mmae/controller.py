"""The Accelerator Controller (AC): the brain of the MMAE.

The AC receives task configurations from the CPU core (forwarded by the MPAIS
executor into the Slave Task Queue), validates them, schedules the systolic
array and the Accelerator Data Engine tile by tile, and reports completion or
exception back to the CPU-side MTQ (paper Section III.A / III.C).

Execution has two modes that share the same validation and queue machinery:

* **timing mode** (always available): the task's duration is estimated with
  the tile-granular model of :mod:`repro.mmae.dataflow`; this is what the
  evaluation sweeps use.
* **functional mode** (when a :class:`~repro.mem.hostmem.HostMemory` holds the
  operand matrices): the GEMM is additionally computed numerically tile by
  tile through the systolic-array datapath model, and the result is written
  back to memory so tests can compare against NumPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional


from repro.cpu.exceptions import ExceptionType, MMAETaskException
from repro.gemm.precision import Precision
from repro.gemm.tiling import TileConfig, TwoLevelTiling
from repro.gemm.workloads import GEMMShape
from repro.isa.instructions import GEMMDescriptor, InitDescriptor, MoveDescriptor, StashDescriptor
from repro.mem.hostmem import HostMemory
from repro.mem.page_table import PageFaultError
from repro.mmae.buffers import BufferAllocationError, BufferSet
from repro.mmae.data_engine import AcceleratorDataEngine
from repro.mmae.dataflow import (
    GEMMTimingBreakdown,
    MemoryEnvironment,
    MMAETimingParameters,
    estimate_gemm_timing,
)
from repro.mmae.matlb import MATLB, MatrixLayout
from repro.mmae.stq import STQEntry, SlaveTaskQueue
from repro.mmae.systolic_array import SystolicArray


@dataclass
class TaskResult:
    """Outcome of one executed MMAE task."""

    maid: int
    kind: str
    cycles: float
    exception: ExceptionType = ExceptionType.NONE
    timing: Optional[GEMMTimingBreakdown] = None
    functional: bool = False

    @property
    def succeeded(self) -> bool:
        return self.exception is ExceptionType.NONE

    def seconds(self, frequency_hz: float) -> float:
        """Convert the cycle count to wall-clock time in the given clock domain."""
        return self.cycles / frequency_hz


class AcceleratorController:
    """One MMAE's controller; satisfies the :class:`repro.isa.executor.MMAEPort` protocol."""

    #: Functional execution is only attempted below this operand size, to keep
    #: the NumPy tile loop affordable in the test-suite.  The batched page
    #: prediction and translation (AcceleratorDataEngine.translate_tile) keep
    #: the per-tile overhead cheap enough for BERT-sized layers
    #: (M*K + K*N ~ 7.5M elements).
    FUNCTIONAL_LIMIT_ELEMENTS = 1 << 24

    def __init__(
        self,
        node_id: int = 0,
        timing_params: Optional[MMAETimingParameters] = None,
        memory_env: Optional[MemoryEnvironment] = None,
        host_memory: Optional[HostMemory] = None,
        mmu=None,
        stq_capacity: int = 8,
        matlb_entries: int = 64,
        page_size: int = 4096,
        prediction_enabled: bool = True,
    ) -> None:
        self.node_id = node_id
        self.params = timing_params if timing_params is not None else MMAETimingParameters()
        self.env = memory_env if memory_env is not None else MemoryEnvironment()
        self.host_memory = host_memory
        self.mmu = mmu
        self.page_size = page_size
        self.prediction_enabled = prediction_enabled

        self.array = SystolicArray(self.params.sa_rows, self.params.sa_cols, self.params.frequency_hz)
        self.buffers = BufferSet()
        self.matlb = MATLB(entries=matlb_entries, page_size=page_size)
        self.ade = AcceleratorDataEngine(
            buffers=self.buffers,
            num_engines=self.params.dma_engines,
            frequency_hz=self.params.frequency_hz,
            matlb=self.matlb,
        )
        self.stq = SlaveTaskQueue(capacity=stq_capacity, name=f"mmae{node_id}.stq")
        self.results: List[TaskResult] = []
        self.busy_cycles = 0.0

    # --------------------------------------------------------------- configuration
    def peak_gflops(self, precision: Precision = Precision.FP64) -> float:
        return self.array.peak_gflops(precision)

    # ------------------------------------------------------------------ MMAEPort
    def submit_gemm(self, maid: int, asid: int, descriptor: GEMMDescriptor) -> None:
        self.stq.receive(maid, asid, "gemm", descriptor)

    def submit_move(self, maid: int, asid: int, descriptor: MoveDescriptor) -> None:
        self.stq.receive(maid, asid, "move", descriptor)

    def submit_init(self, maid: int, asid: int, descriptor: InitDescriptor) -> None:
        self.stq.receive(maid, asid, "init", descriptor)

    def submit_stash(self, maid: int, asid: int, descriptor: StashDescriptor) -> None:
        self.stq.receive(maid, asid, "stash", descriptor)

    # ------------------------------------------------------------------ execution
    def execute_pending(self) -> List[TaskResult]:
        """Execute every buffered STQ task in arrival order; returns their results."""
        results = []
        while True:
            entry = self.stq.next_task()
            if entry is None:
                break
            results.append(self._execute_entry(entry))
        return results

    def _execute_entry(self, entry: STQEntry) -> TaskResult:
        entry.mark_running()
        handler = {
            "gemm": self._run_gemm,
            "move": self._run_move,
            "init": self._run_init,
            "stash": self._run_stash,
        }[entry.kind]
        exception = ExceptionType.NONE
        try:
            result = handler(entry)
        except MMAETaskException as exc:
            exception = exc.exception_type
        except BufferAllocationError:
            exception = ExceptionType.BUFFER_OVERFLOW
        except PageFaultError:
            # A DMA address with no translation terminates the task (Table III).
            exception = ExceptionType.PAGE_FAULT
        if exception is ExceptionType.NONE:
            self.stq.complete(entry, result.cycles)
        else:
            result = TaskResult(maid=entry.maid, kind=entry.kind, cycles=0.0, exception=exception)
            self.stq.fail(entry, exception)
        self.results.append(result)
        self.busy_cycles += result.cycles
        return result

    # --------------------------------------------------------------------- GEMM
    def _validate_gemm(self, descriptor: GEMMDescriptor) -> None:
        if descriptor.precision not in (Precision.FP64, Precision.FP32, Precision.FP16):
            raise MMAETaskException(ExceptionType.PRECISION_UNSUPPORTED, str(descriptor.precision))
        ttk = min(descriptor.ttc, descriptor.k)
        self.buffers.check_tile_fits(
            min(descriptor.ttr, descriptor.m),
            min(descriptor.ttc, descriptor.n),
            ttk,
            descriptor.precision,
        )
        if self.host_memory is not None and self.mmu is not None:
            # Functional runs require the operands to be mapped; unmapped
            # operands surface as the PAGE_FAULT exception of Table III.
            for name, addr in (("A", descriptor.addr_a), ("B", descriptor.addr_b), ("C", descriptor.addr_c)):
                if self.host_memory.has_matrix(addr):
                    continue
                raise MMAETaskException(
                    ExceptionType.PAGE_FAULT,
                    detail=f"operand {name} is not mapped",
                    faulting_address=addr,
                )

    def _run_gemm(self, entry: STQEntry) -> TaskResult:
        descriptor: GEMMDescriptor = entry.descriptor
        self._validate_gemm(descriptor)
        shape = GEMMShape(descriptor.m, descriptor.n, descriptor.k, descriptor.precision)
        level1 = TileConfig(descriptor.tile_rows, descriptor.tile_cols)
        level2 = TileConfig(descriptor.ttr, descriptor.ttc)

        timing = estimate_gemm_timing(
            shape,
            level1=level1,
            level2=level2,
            params=self.params,
            env=self.env,
            prediction_enabled=self.prediction_enabled,
            page_size=self.page_size,
        )

        functional = (
            self.host_memory is not None
            and self.host_memory.has_matrix(descriptor.addr_a)
            and self.host_memory.has_matrix(descriptor.addr_b)
            and self.host_memory.has_matrix(descriptor.addr_c)
            and shape.m * shape.k + shape.k * shape.n <= self.FUNCTIONAL_LIMIT_ELEMENTS
        )
        if functional:
            self._compute_gemm_functional(descriptor, shape, level1, level2, entry.asid)

        return TaskResult(
            maid=entry.maid,
            kind="gemm",
            cycles=timing.total_cycles,
            timing=timing,
            functional=functional,
        )

    def _compute_gemm_functional(
        self,
        descriptor: GEMMDescriptor,
        shape: GEMMShape,
        level1: TileConfig,
        level2: TileConfig,
        asid: int,
    ) -> None:
        """Run the GEMM numerically, tile by tile, through the array datapath."""
        memory = self.host_memory
        a = memory.matrix_at(descriptor.addr_a)
        b = memory.matrix_at(descriptor.addr_b)
        c = memory.matrix_at(descriptor.addr_c)
        if a.shape != (shape.m, shape.k) or b.shape != (shape.k, shape.n) or c.shape != (shape.m, shape.n):
            raise MMAETaskException(
                ExceptionType.INVALID_CONFIG,
                detail=f"operand shapes {a.shape}/{b.shape}/{c.shape} do not match descriptor "
                       f"({shape.m}x{shape.k}, {shape.k}x{shape.n}, {shape.m}x{shape.n})",
            )
        tiling = TwoLevelTiling(shape, level1, level2)
        layout_a = MatrixLayout(descriptor.addr_a, shape.m, shape.k, descriptor.effective_lda,
                                shape.precision.bytes_per_element)
        # The operands are cast to the datapath once.  A C tile stays resident
        # while its k-run streams through the array, as the C buffer holds it:
        # it leaves the accumulator when the run starts, each tile adds its
        # product into it in place, and it goes back when the run ends.
        a_op, b_op, accumulator = self.ade.load_operands(memory, descriptor)
        c_rows = c_cols = c_tile = None
        for tile1 in tiling.level1_tiles():
            for tile2 in tiling.level2_tiles(tile1):
                if self.mmu is not None:
                    self.ade.translate_tile(
                        self.mmu,
                        asid,
                        layout_a,
                        (tile2.row_start, tile2.rows),
                        (tile2.k_start, tile2.depth),
                        self.prediction_enabled,
                    )
                rows = slice(tile2.row_start, tile2.row_end)
                cols = slice(tile2.col_start, tile2.col_end)
                depth = slice(tile2.k_start, tile2.k_end)
                if rows != c_rows or cols != c_cols:
                    if c_tile is not None:
                        accumulator[c_rows, c_cols] = c_tile
                    c_rows, c_cols, c_tile = rows, cols, accumulator[rows, cols].copy()
                self.array.compute_tile(a_op[rows, depth], b_op[depth, cols], c_tile, shape.precision)
        if c_tile is not None:
            accumulator[c_rows, c_cols] = c_tile
        c[...] = accumulator

    # ------------------------------------------------------------- data migration
    def _run_move(self, entry: STQEntry) -> TaskResult:
        descriptor: MoveDescriptor = entry.descriptor
        cycles = self.ade.transfer_cycles(
            _move_plan(descriptor),
            round_trip_latency_cycles=self.env.l3_round_trip_ns * self.params.frequency_hz / 1e9,
        )
        if self.host_memory is not None:
            src_base = self.host_memory.find_region(descriptor.src_addr)
            dst_base = self.host_memory.find_region(descriptor.dst_addr)
            if src_base is not None and dst_base is not None and src_base != dst_base:
                src = self.host_memory.matrix_at(src_base)
                dst = self.host_memory.matrix_at(dst_base)
                if src.nbytes == dst.nbytes and descriptor.length_bytes == src.nbytes:
                    dst[...] = src.astype(dst.dtype)
        return TaskResult(maid=entry.maid, kind="move", cycles=cycles)

    def _run_init(self, entry: STQEntry) -> TaskResult:
        descriptor: InitDescriptor = entry.descriptor
        cycles = self.ade.transfer_cycles(
            _init_plan(descriptor),
            round_trip_latency_cycles=self.env.l3_round_trip_ns * self.params.frequency_hz / 1e9,
        )
        if self.host_memory is not None and self.host_memory.has_matrix(descriptor.dst_addr):
            self.host_memory.zero_region(descriptor.dst_addr)
        return TaskResult(maid=entry.maid, kind="init", cycles=cycles)

    def _run_stash(self, entry: STQEntry) -> TaskResult:
        descriptor: StashDescriptor = entry.descriptor
        # The stash streams from DRAM into the L3 at the node's DRAM share;
        # locking does not change its cost.
        dram_bpc = self.env.dram_bandwidth_share_bytes_per_s / self.params.frequency_hz
        cycles = math.ceil(descriptor.length_bytes / dram_bpc)
        return TaskResult(maid=entry.maid, kind="stash", cycles=cycles)

    # ------------------------------------------------------------------ reporting
    @property
    def completed_tasks(self) -> int:
        return self.stq.tasks_completed

    @property
    def failed_tasks(self) -> int:
        return self.stq.tasks_failed


def _move_plan(descriptor: MoveDescriptor):
    """Transfer plan equivalent for a bulk copy (read + write of the same volume)."""
    from repro.mmae.data_engine import TileTransferPlan

    return TileTransferPlan(
        a_bytes=descriptor.length_bytes,
        b_bytes=0,
        c_read_bytes=0,
        c_write_bytes=descriptor.length_bytes,
    )


def _init_plan(descriptor: InitDescriptor):
    """Transfer plan equivalent for a zero-fill (write-only)."""
    from repro.mmae.data_engine import TileTransferPlan

    return TileTransferPlan(
        a_bytes=0,
        b_bytes=0,
        c_read_bytes=0,
        c_write_bytes=descriptor.length_bytes,
    )
