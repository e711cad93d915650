"""The Slave Task Queue (STQ) inside each MMAE.

The STQ mirrors the CPU-side MTQ: it receives the parameters of a GEMM (or
data-migration) task identified by the same MAID, parses and buffers them in
local registers, monitors the MMAE components executing the task, and responds
with the final status to the corresponding MTQ entry (paper Section III.C).
Buffered tasks execute automatically once the active entry completes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.cpu.exceptions import ExceptionType


class STQEntryState(enum.Enum):
    WAITING = "waiting"      # parameters buffered, not yet dispatched
    RUNNING = "running"      # currently executing on the MMAE
    DONE = "done"            # completed without exception
    ERROR = "error"          # terminated by an exception


@dataclass
class STQEntry:
    """One buffered task: MAID + ASID + parsed descriptor + execution state."""

    maid: int
    asid: int
    kind: str                 # "gemm", "move", "init" or "stash"
    descriptor: Any
    state: STQEntryState = STQEntryState.WAITING
    exception: ExceptionType = ExceptionType.NONE
    cycles: float = 0.0

    def mark_running(self) -> None:
        if self.state is not STQEntryState.WAITING:
            raise RuntimeError(f"STQ entry {self.maid} cannot start from state {self.state}")
        self.state = STQEntryState.RUNNING

    def mark_done(self, cycles: float) -> None:
        self.state = STQEntryState.DONE
        self.cycles = cycles

    def mark_error(self, exception: ExceptionType, cycles: float = 0.0) -> None:
        self.state = STQEntryState.ERROR
        self.exception = exception
        self.cycles = cycles


class SlaveTaskQueue:
    """FIFO of buffered tasks with completion notification back to the MTQ."""

    def __init__(self, capacity: int = 8, name: str = "stq") -> None:
        if capacity <= 0:
            raise ValueError("STQ capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._entries: List[STQEntry] = []
        self._completion_callback: Optional[Callable[[int, ExceptionType], None]] = None
        self.tasks_completed = 0
        self.tasks_failed = 0

    # ------------------------------------------------------------------ wiring
    def on_completion(self, callback: Callable[[int, ExceptionType], None]) -> None:
        """Register the response path back to the MTQ (called with maid, exception)."""
        self._completion_callback = callback

    # ------------------------------------------------------------------- intake
    def receive(self, maid: int, asid: int, kind: str, descriptor: Any) -> STQEntry:
        """Buffer a task's parameters (the MMAE side of MA_CFG and friends)."""
        if self.occupancy >= self.capacity:
            raise RuntimeError(f"{self.name}: queue full ({self.capacity} entries)")
        if kind not in ("gemm", "move", "init", "stash"):
            raise ValueError(f"unknown task kind {kind!r}")
        entry = STQEntry(maid=maid, asid=asid, kind=kind, descriptor=descriptor)
        self._entries.append(entry)
        return entry

    @property
    def occupancy(self) -> int:
        return sum(
            1 for entry in self._entries
            if entry.state in (STQEntryState.WAITING, STQEntryState.RUNNING)
        )

    def pending(self) -> List[STQEntry]:
        return [entry for entry in self._entries if entry.state is STQEntryState.WAITING]

    def next_task(self) -> Optional[STQEntry]:
        """The oldest buffered task, if any (tasks auto-execute in arrival order)."""
        for entry in self._entries:
            if entry.state is STQEntryState.WAITING:
                return entry
        return None

    # --------------------------------------------------------------- completion
    def complete(self, entry: STQEntry, cycles: float) -> None:
        """Mark an entry done and notify the MTQ."""
        entry.mark_done(cycles)
        self.tasks_completed += 1
        if self._completion_callback is not None:
            self._completion_callback(entry.maid, ExceptionType.NONE)

    def fail(self, entry: STQEntry, exception: ExceptionType, cycles: float = 0.0) -> None:
        """Mark an entry failed and notify the MTQ of the exception."""
        entry.mark_error(exception, cycles)
        self.tasks_failed += 1
        if self._completion_callback is not None:
            self._completion_callback(entry.maid, exception)
