"""A software-style runtime on top of the MPAIS instruction set.

The paper exposes MACO to programmers through MPAIS; this module is the thin
"user library" a programmer would link against: it hides register packing and
MTQ polling behind NumPy-level calls, supports asynchronous task handles (the
MAID), and demonstrates multi-process submission — the scenarios Section III.B
and III.C describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import MACOConfig, maco_default_config
from repro.core.maco import MACOSystem
from repro.cpu.exceptions import ExceptionType
from repro.cpu.mtq import StatusWord
from repro.gemm.precision import Precision
from repro.isa.assembler import assemble_program


@dataclass
class AsyncHandle:
    """Handle for a GEMM submitted with :meth:`MACORuntime.gemm_async`."""

    node_id: int
    maid: int
    c_address: int
    c_array: np.ndarray


class MACORuntime:
    """NumPy-level convenience API over a :class:`~repro.core.maco.MACOSystem`."""

    def __init__(self, system: Optional[MACOSystem] = None, config: Optional[MACOConfig] = None) -> None:
        if system is not None and config is not None:
            raise ValueError("pass either a system or a config, not both")
        if system is None:
            system = MACOSystem(config if config is not None else maco_default_config(num_nodes=4))
        self.system = system

    # ------------------------------------------------------------------ blocking
    def gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: Optional[np.ndarray] = None,
        precision: Precision = Precision.FP64,
        node_id: int = 0,
        tile: int = 64,
    ) -> np.ndarray:
        """Compute ``C + A @ B`` on one MMAE through the MPAIS path and return C."""
        node = self.system.node(node_id)
        result, submission = node.run_gemm_functional(a, b, c, precision, ttr=tile, ttc=tile)
        if submission.exception is not ExceptionType.NONE:
            raise RuntimeError(f"GEMM failed with exception {submission.exception.name}")
        return result

    # --------------------------------------------------------------- asynchronous
    def gemm_async(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: Optional[np.ndarray] = None,
        precision: Precision = Precision.FP64,
        node_id: int = 0,
        tile: int = 64,
    ) -> AsyncHandle:
        """Submit a GEMM without waiting; returns a handle to poll with :meth:`wait`.

        Mirrors the hardware flow: MA_CFG allocates the MTQ entry and queues the
        task; the caller later polls MA_READ / MA_STATE.
        """
        node = self.system.node(node_id)
        descriptor, array_c = node.prepare_gemm(a, b, c, precision, ttr=tile, ttc=tile)
        submission = node.submit_gemm(descriptor, execute=False)
        return AsyncHandle(node_id=node_id, maid=submission.maid,
                           c_address=descriptor.addr_c, c_array=array_c)

    def poll(self, handle: AsyncHandle) -> StatusWord:
        """MA_READ: query the task state without releasing the MTQ entry."""
        node = self.system.node(handle.node_id)
        node.cpu.registers.write(1, handle.maid)
        trace = node.executor.execute_program(assemble_program("MA_READ X4, X1"))[0]
        return StatusWord.unpack(trace.status_word)

    def wait(self, handle: AsyncHandle) -> np.ndarray:
        """Drive the accelerator to completion, release the entry, and return C."""
        node = self.system.node(handle.node_id)
        node.mmae.execute_pending()
        node.cpu.registers.write(1, handle.maid)
        trace = node.executor.execute_program(assemble_program("MA_STATE X4, X1"))[0]
        status = StatusWord.unpack(trace.status_word)
        if status.exception_en:
            raise RuntimeError(f"GEMM failed with exception {status.exception_type.name}")
        return handle.c_array

    # --------------------------------------------------------------- housekeeping
    def clear(self, handle: AsyncHandle) -> None:
        """MA_CLEAR the task's MTQ entry (required after an exception)."""
        node = self.system.node(handle.node_id)
        node.cpu.registers.write(1, handle.maid)
        node.executor.execute_program(assemble_program("MA_CLEAR X1"))

    def outstanding_tasks(self, node_id: int = 0) -> int:
        """Number of MTQ entries still occupied on ``node_id``."""
        return self.system.node(node_id).cpu.mtq.outstanding_tasks()
