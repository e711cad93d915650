"""Process and ASID management.

Multiple processes can submit GEMM tasks to the same MMAE; the MTQ keeps a
per-task ASID so the outcome survives context switches (paper Section III.C).
The :class:`ProcessManager` provides just enough of an OS abstraction for the
multi-process tests and examples: create processes with private address
spaces, switch between them (saving/restoring the register file), and account
for the context-switch cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.isa.registers import RegisterFile
from repro.mem.page_table import AddressSpace, FrameAllocator


@dataclass
class Process:
    """A software process: ASID, address space, saved register state."""

    asid: int
    name: str
    address_space: AddressSpace
    saved_registers: Optional[List[int]] = None
    context_switches: int = 0

    def __post_init__(self) -> None:
        if self.asid < 0:
            raise ValueError("ASID must be non-negative")


class ProcessManager:
    """Creates processes and switches the CPU core between them."""

    #: Nominal context-switch cost (register save/restore + pipeline drain), CPU cycles.
    CONTEXT_SWITCH_CYCLES = 800

    def __init__(self, frame_allocator: Optional[FrameAllocator] = None, page_size: int = 4096) -> None:
        self.frame_allocator = frame_allocator or FrameAllocator(
            total_frames=4 * 1024 * 1024, page_size=page_size
        )
        self.page_size = page_size
        self._processes: Dict[int, Process] = {}
        self._next_asid = 0
        self.current: Optional[Process] = None
        self.total_switch_cycles = 0

    def create_process(self, name: str) -> Process:
        """Create a process with a fresh ASID and empty address space."""
        asid = self._next_asid
        self._next_asid += 1
        process = Process(
            asid=asid,
            name=name,
            address_space=AddressSpace(
                asid=asid, frame_allocator=self.frame_allocator, page_size=self.page_size
            ),
        )
        self._processes[asid] = process
        if self.current is None:
            self.current = process
        return process

    def process(self, asid: int) -> Process:
        if asid not in self._processes:
            raise KeyError(f"no process with ASID {asid}")
        return self._processes[asid]

    def switch_to(self, asid: int, registers: Optional[RegisterFile] = None) -> int:
        """Switch the core to the process with ``asid``; returns the cycle cost.

        If a register file is supplied, the outgoing process's registers are
        saved and the incoming process's registers restored, so tests can
        verify that MTQ state is the only channel that survives the switch.
        """
        target = self.process(asid)
        if self.current is target:
            return 0
        if registers is not None:
            if self.current is not None:
                self.current.saved_registers = registers.snapshot()
            if target.saved_registers is not None:
                registers.restore(target.saved_registers)
            else:
                registers.reset()
        if self.current is not None:
            self.current.context_switches += 1
        self.current = target
        self.total_switch_cycles += self.CONTEXT_SWITCH_CYCLES
        return self.CONTEXT_SWITCH_CYCLES

    @property
    def current_asid(self) -> int:
        if self.current is None:
            raise RuntimeError("no process has been created yet")
        return self.current.asid
