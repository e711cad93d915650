"""Exception events raised during MMAE task execution.

The paper (Table III, Fig. 3) records an ``exception_en`` flag and an
``exception_type`` field in each MTQ entry; a task that hits an exception is
terminated by the MMAE and the user must issue MA_CLEAR on the entry before it
can be reused.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class ExceptionType(enum.IntEnum):
    """Exception events an MMAE task can raise (encoded in the MTQ entry)."""

    NONE = 0
    PAGE_FAULT = 1            # DMA address with no valid translation
    BUS_ERROR = 2             # NoC / memory access failure
    INVALID_CONFIG = 3        # malformed GEMM descriptor (e.g. zero dimension)
    BUFFER_OVERFLOW = 4       # tile does not fit the A/B/C buffers
    PRECISION_UNSUPPORTED = 5 # requested compute mode not implemented
    TIMEOUT = 6               # task watchdog expired


@dataclass
class MMAETaskException(Exception):
    """Raised by the MMAE models when a task cannot complete.

    The accelerator controller catches it, marks the STQ/MTQ entry with the
    exception type, and terminates the task, mirroring state (4) of Fig. 3.
    """

    exception_type: ExceptionType
    detail: str = ""
    faulting_address: Optional[int] = None

    def __str__(self) -> str:
        message = f"MMAE task exception: {self.exception_type.name}"
        if self.detail:
            message += f" ({self.detail})"
        if self.faulting_address is not None:
            message += f" at {self.faulting_address:#x}"
        return message
