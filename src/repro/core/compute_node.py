"""A MACO compute node: one CPU core paired with one MMAE.

The compute node wires the pieces together the way Fig. 2 shows: the CPU's
MPAIS executor forwards task descriptors into the MMAE's Slave Task Queue, the
STQ's completion responses update the CPU-side Master Task Queue, and the MMAE
shares the CPU core's MMU/L2-TLB for address translation.  The distributed L3
behind the CCMs is timed analytically (the node's memory environment and
MA_STASH's cycles); the node keeps no cache state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.config import MACOConfig
from repro.core.perf import memory_environment
from repro.cpu.core import CPUCore
from repro.cpu.exceptions import ExceptionType
from repro.cpu.mtq import StatusWord
from repro.gemm.precision import Precision
from repro.isa.instructions import GEMMDescriptor
from repro.mem.hostmem import HostMemory
from repro.mmae.controller import AcceleratorController, TaskResult


@dataclass
class GEMMSubmission:
    """Book-keeping for a GEMM submitted through the MPAIS path."""

    maid: int
    descriptor: GEMMDescriptor
    status: Optional[StatusWord] = None
    result: Optional[TaskResult] = None

    @property
    def exception(self) -> ExceptionType:
        """The task's exception outcome (NONE when it completed cleanly)."""
        if self.result is not None:
            return self.result.exception
        if self.status is not None:
            return self.status.exception_type
        return ExceptionType.NONE


class ComputeNode:
    """One of MACO's up-to-16 homogeneous compute nodes."""

    def __init__(self, node_id: int, config: MACOConfig) -> None:
        self.node_id = node_id
        self.config = config
        # Each node's default address space starts at the same virtual base,
        # so every node keeps its own functional backing store.
        self.host_memory = HostMemory()

        self.cpu = CPUCore(config.cpu, core_id=node_id)
        # A default process so examples can allocate matrices immediately.
        self.default_process = self.cpu.processes.create_process(f"node{node_id}.main")
        self.cpu.mmu.register_page_table(self.default_process.address_space.page_table)

        self.mmae = AcceleratorController(
            node_id=node_id,
            timing_params=config.mmae.timing_parameters(),
            memory_env=memory_environment(config, active_nodes=1),
            host_memory=self.host_memory,
            mmu=self.cpu.mmu,
            stq_capacity=config.mmae.stq_entries,
            matlb_entries=config.mmae.matlb_entries,
            page_size=config.memory.page_size,
            prediction_enabled=config.prediction_enabled,
        )
        # Completion responses from the STQ update the CPU-side MTQ (Fig. 3).
        self.mmae.stq.on_completion(self.cpu.mtq.mark_done)
        self.executor = self.cpu.attach_mmae(self.mmae)
        self._matrix_count = 0

    # ------------------------------------------------------------------- memory
    def allocate_matrix(
        self, rows: int, cols: int, precision: Precision = Precision.FP64,
        name: Optional[str] = None, data: Optional[np.ndarray] = None,
    ) -> Tuple[int, np.ndarray]:
        """Allocate a matrix in the node's default address space and host memory.

        Returns ``(virtual_base_address, array)``.  If ``data`` is given it is
        copied into the allocation (cast to the requested precision).
        """
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        label = name if name is not None else f"matrix{self._matrix_count}"
        self._matrix_count += 1
        size_bytes = rows * cols * precision.bytes_per_element
        vaddr = self.default_process.address_space.allocate_region(label, size_bytes)
        if data is not None:
            if data.shape != (rows, cols):
                raise ValueError(f"data shape {data.shape} does not match ({rows}, {cols})")
            # Copy into fresh storage: the allocation is the canonical backing
            # store of the region and must not alias the caller's array.
            array = np.array(data, dtype=precision.dtype, order="C", copy=True)
        else:
            array = np.zeros((rows, cols), dtype=precision.dtype)
        self.host_memory.register_matrix(vaddr, array)
        return vaddr, array

    # -------------------------------------------------------------- MPAIS driver
    def submit_gemm(self, descriptor: GEMMDescriptor, execute: bool = True) -> GEMMSubmission:
        """Submit a GEMM through the MPAIS path (MA_CFG) and optionally execute it.

        The descriptor's parameters are packed into registers X2..X7, MA_CFG is
        executed to allocate an MTQ entry and forward the task to the MMAE, the
        accelerator runs its pending queue, and MA_STATE retrieves and releases
        the status — the full software flow of Section III.B.
        """
        registers = self.cpu.registers
        registers.write_block(2, descriptor.pack())
        from repro.isa.assembler import assemble_program

        cfg_trace = self.executor.execute_program(assemble_program("MA_CFG X1, X2"))[0]
        maid = cfg_trace.maid
        submission = GEMMSubmission(maid=maid, descriptor=descriptor)
        if not execute:
            return submission
        results = self.mmae.execute_pending()
        for result in results:
            if result.maid == maid:
                submission.result = result
        state_trace = self.executor.execute_program(assemble_program("MA_STATE X3, X1"))[0]
        submission.status = StatusWord.unpack(state_trace.status_word)
        return submission

    def prepare_gemm(
        self, a: np.ndarray, b: np.ndarray, c: Optional[np.ndarray] = None,
        precision: Precision = Precision.FP64,
        ttr: int = 64, ttc: int = 64,
    ) -> Tuple[GEMMDescriptor, np.ndarray]:
        """Allocate the operands and build the GEMM's descriptor; returns it and C.

        The level-1 tile is the config's ``level1_tile``, shrunk to the matrix
        (but never below one level-2 tile); the level-2 tile is ``ttr`` x
        ``ttc``, shrunk to the matrix.  Every functional entry point builds its
        descriptor here, so a GEMM is tiled the same way however it is
        submitted.
        """
        m, k = a.shape
        k2, n = b.shape
        if k != k2:
            raise ValueError(f"inner dimensions do not match: {a.shape} @ {b.shape}")
        addr_a, _ = self.allocate_matrix(m, k, precision, data=a)
        addr_b, _ = self.allocate_matrix(k, n, precision, data=b)
        addr_c, array_c = self.allocate_matrix(m, n, precision, data=c)
        descriptor = GEMMDescriptor(
            addr_a=addr_a, addr_b=addr_b, addr_c=addr_c,
            m=m, n=n, k=k, precision=precision,
            tile_rows=min(self.config.level1_tile.rows, max(m, ttr)),
            tile_cols=min(self.config.level1_tile.cols, max(n, ttc)),
            ttr=min(ttr, m), ttc=min(ttc, n),
        )
        return descriptor, array_c

    def run_gemm_functional(
        self, a: np.ndarray, b: np.ndarray, c: Optional[np.ndarray] = None,
        precision: Precision = Precision.FP64,
        ttr: int = 64, ttc: int = 64,
    ) -> Tuple[np.ndarray, GEMMSubmission]:
        """Allocate operands, run the GEMM through the MPAIS/MMAE path, return C.

        Intended for examples and tests; the matrices must be small enough for
        functional execution (see the controller's FUNCTIONAL_LIMIT_ELEMENTS).
        """
        descriptor, array_c = self.prepare_gemm(a, b, c, precision, ttr, ttc)
        submission = self.submit_gemm(descriptor)
        return array_c, submission

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ComputeNode(node_id={self.node_id})"
