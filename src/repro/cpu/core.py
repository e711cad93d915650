"""The general-purpose CPU core of a MACO compute node.

The core bundles the functional components the MPAIS path needs: the front
end (register file, executor, Master Task Queue), the MMU shared with the
MMAE and the process manager.  The core's throughput model and its Table I
parameters (caches included) live on :class:`repro.core.config.CPUConfig`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cpu.mmu import MMU
from repro.cpu.mtq import MasterTaskQueue
from repro.cpu.process import ProcessManager
from repro.isa.executor import MMAEPort, MPAISExecutor
from repro.isa.registers import RegisterFile

if TYPE_CHECKING:
    from repro.core.config import CPUConfig


class CPUCore:
    """One MACO CPU core (paper Table I), built from a :class:`CPUConfig`.

    Its MMU has the paper's 48-entry L1 DTLB and 1024-entry L2 TLB.
    """

    def __init__(self, config: CPUConfig, core_id: int = 0) -> None:
        self.core_id = core_id

        self.registers = RegisterFile()
        self.mtq = MasterTaskQueue(num_entries=config.mtq_entries, name=f"cpu{core_id}.mtq")
        self.mmu = MMU(dtlb_entries=config.dtlb_entries, l2_entries=config.l2_tlb_entries)
        self.processes = ProcessManager()
        self._executor: Optional[MPAISExecutor] = None

    # ------------------------------------------------------------------ MPAIS
    def attach_mmae(self, mmae: MMAEPort) -> MPAISExecutor:
        """Connect the companion MMAE and build the MPAIS executor."""
        self._executor = MPAISExecutor(
            registers=self.registers,
            mtq=self.mtq,
            mmae=mmae,
            asid=self.processes.current_asid if self.processes.current else 0,
        )
        return self._executor

    @property
    def executor(self) -> MPAISExecutor:
        if self._executor is None:
            raise RuntimeError("no MMAE attached to this core; call attach_mmae() first")
        return self._executor

    def switch_process(self, asid: int) -> int:
        """Context-switch the core; the MPAIS executor follows the new ASID."""
        cycles = self.processes.switch_to(asid, self.registers)
        if self._executor is not None:
            self._executor.set_asid(asid)
        return cycles
