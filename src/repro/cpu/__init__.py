"""General-purpose CPU core substrate.

The MACO compute node pairs each MMAE with a 64-bit, four-issue, out-of-order
CPU core (paper Table I).  For the reproduction the core provides:

* the MPAIS front end (register file + executor + Master Task Queue);
* the memory-management unit the MMAE shares (TLB hierarchy + page-table
  walker), which is the substrate of the Fig. 6 address-translation study;
* process/ASID management and exception delivery (paper Section III.C).

The core is functional only: the throughput model for the FP work the CPU
performs itself (Baseline-1 and the non-GEMM operators of GEMM+ workloads)
and the Table I cache geometry live on :class:`repro.core.config.CPUConfig`.
"""

from repro.cpu.exceptions import ExceptionType, MMAETaskException
from repro.cpu.mtq import MTQEntry, MasterTaskQueue, MTQState, StatusWord
from repro.cpu.process import Process, ProcessManager
from repro.cpu.mmu import MMU
from repro.cpu.core import CPUCore

__all__ = [
    "ExceptionType",
    "MMAETaskException",
    "MTQEntry",
    "MasterTaskQueue",
    "MTQState",
    "StatusWord",
    "Process",
    "ProcessManager",
    "MMU",
    "CPUCore",
]
