"""The Master Task Queue (MTQ).

Each CPU core integrates an MTQ whose entries record the execution state of
GEMM tasks submitted to the companion MMAE (paper Section III.C, Table III).
An entry carries Valid, Done, ASID, exception_en and exception_type fields and
follows the state machine of Fig. 3:

1. MA_CFG allocates a free entry (Valid=1, Done=0, ASID=caller).
2. The MMAE reports completion (Done=1) — with or without an exception.
3. MA_STATE by the owning process reads the status and releases the entry;
   a query by a different ASID sees the mismatch and knows its own task has
   already been drained (state 3 in Fig. 3).
4. If an exception occurred, the entry must be cleared with MA_CLEAR.

MTQ entries survive process switches: the queue is indexed by MAID, not by the
running process, so any process can later retrieve the outcome of its task.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.cpu.exceptions import ExceptionType

#: ASID value stored in a free entry (the paper's "ASID = NULL").
NULL_ASID = 0xFFFF


class MTQState(enum.Enum):
    """Lifecycle states of an MTQ entry (Fig. 3)."""

    FREE = "free"                  # Valid=0, Done=0
    RUNNING = "running"            # Valid=1, Done=0
    DONE = "done"                  # Valid=1, Done=1, no exception
    DONE_EXCEPTION = "exception"   # Valid=1, Done=1, exception_en=1


@dataclass
class StatusWord:
    """Decoded view of the 64-bit status word returned by MA_READ / MA_STATE."""

    valid: bool
    done: bool
    asid: int
    exception_en: bool
    exception_type: ExceptionType

    _VALID_BIT = 1 << 0
    _DONE_BIT = 1 << 1
    _EXC_EN_BIT = 1 << 2
    _ASID_SHIFT = 16
    _EXC_TYPE_SHIFT = 8

    def pack(self) -> int:
        word = 0
        if self.valid:
            word |= self._VALID_BIT
        if self.done:
            word |= self._DONE_BIT
        if self.exception_en:
            word |= self._EXC_EN_BIT
        word |= (int(self.exception_type) & 0xFF) << self._EXC_TYPE_SHIFT
        word |= (self.asid & 0xFFFF) << self._ASID_SHIFT
        return word

    @classmethod
    def unpack(cls, word: int) -> "StatusWord":
        return cls(
            valid=bool(word & cls._VALID_BIT),
            done=bool(word & cls._DONE_BIT),
            exception_en=bool(word & cls._EXC_EN_BIT),
            exception_type=ExceptionType((word >> cls._EXC_TYPE_SHIFT) & 0xFF),
            asid=(word >> cls._ASID_SHIFT) & 0xFFFF,
        )


@dataclass
class MTQEntry:
    """One MTQ entry (paper Table III)."""

    maid: int
    valid: bool = False
    done: bool = False
    asid: int = NULL_ASID
    exception_en: bool = False
    exception_type: ExceptionType = ExceptionType.NONE

    @property
    def state(self) -> MTQState:
        if not self.valid:
            return MTQState.FREE
        if not self.done:
            return MTQState.RUNNING
        if self.exception_en:
            return MTQState.DONE_EXCEPTION
        return MTQState.DONE

    def status_word(self) -> StatusWord:
        return StatusWord(
            valid=self.valid,
            done=self.done,
            asid=self.asid,
            exception_en=self.exception_en,
            exception_type=self.exception_type,
        )

    def reset(self) -> None:
        self.valid = False
        self.done = False
        self.asid = NULL_ASID
        self.exception_en = False
        self.exception_type = ExceptionType.NONE


class MasterTaskQueue:
    """A fixed-size pool of MTQ entries with the Fig. 3 state machine."""

    def __init__(self, num_entries: int = 8, name: str = "mtq") -> None:
        if num_entries <= 0:
            raise ValueError("MTQ must have at least one entry")
        self.name = name
        self.entries: List[MTQEntry] = [MTQEntry(maid=index) for index in range(num_entries)]
        self.allocations = 0
        self.releases = 0
        self.exceptions_recorded = 0

    def __len__(self) -> int:
        return len(self.entries)

    # ---------------------------------------------------------------- allocation
    def free_entries(self) -> int:
        return sum(1 for entry in self.entries if entry.state is MTQState.FREE)

    def allocate(self, asid: int) -> Optional[int]:
        """Allocate a free entry for ``asid``; returns the MAID or ``None`` if full."""
        if not 0 <= asid < NULL_ASID:
            raise ValueError(f"ASID {asid} out of range")
        for entry in self.entries:
            if entry.state is MTQState.FREE:
                entry.valid = True
                entry.done = False
                entry.asid = asid
                entry.exception_en = False
                entry.exception_type = ExceptionType.NONE
                self.allocations += 1
                return entry.maid
        return None

    def _entry(self, maid: int) -> MTQEntry:
        if not 0 <= maid < len(self.entries):
            raise ValueError(f"MAID {maid} out of range 0..{len(self.entries) - 1}")
        return self.entries[maid]

    # ---------------------------------------------------------------- completion
    def mark_done(self, maid: int, exception: ExceptionType = ExceptionType.NONE) -> None:
        """Called by the MMAE (via the STQ response path) when a task finishes."""
        entry = self._entry(maid)
        if not entry.valid:
            raise ValueError(f"MAID {maid} is not an active task")
        entry.done = True
        if exception is not ExceptionType.NONE:
            entry.exception_en = True
            entry.exception_type = exception
            self.exceptions_recorded += 1

    # ------------------------------------------------------------------- queries
    def query(self, maid: int) -> int:
        """MA_READ: return the packed status word without releasing the entry."""
        return self._entry(maid).status_word().pack()

    def query_and_release(self, maid: int, asid: int) -> int:
        """MA_STATE: return the status word; release the entry if it is done and owned.

        Per Fig. 3, a completed, exception-free entry queried by its owner is
        released (back to Valid=0).  Entries with pending exceptions stay
        allocated until MA_CLEAR.  Queries by a different ASID only observe.
        """
        entry = self._entry(maid)
        word = entry.status_word().pack()
        if entry.valid and entry.done and entry.asid == asid and not entry.exception_en:
            entry.reset()
            self.releases += 1
        return word

    def clear(self, maid: int) -> None:
        """MA_CLEAR: unconditionally free an entry (used after exceptions)."""
        entry = self._entry(maid)
        if entry.valid:
            self.releases += 1
        entry.reset()

    # ------------------------------------------------------------------ reporting
    def state_of(self, maid: int) -> MTQState:
        return self._entry(maid).state

    def entries_for_asid(self, asid: int) -> List[MTQEntry]:
        return [entry for entry in self.entries if entry.valid and entry.asid == asid]

    def outstanding_tasks(self) -> int:
        return sum(1 for entry in self.entries if entry.state is MTQState.RUNNING)
