"""The MMAE's on-chip scratchpad buffers.

The MMAE integrates 192 KB of high-capacity buffers for data reuse (paper
Section III.A), split into an A buffer, a B buffer and a C buffer feeding the
systolic array.  The model holds each buffer's capacity only: the accelerator
controller checks that a second-level tile, double-buffered, fits before it
runs (:meth:`BufferSet.check_tile_fits`, raising the BUFFER_OVERFLOW
exception of Table III).  No allocation state is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gemm.precision import Precision


class BufferAllocationError(Exception):
    """Raised when a tile does not fit in its scratchpad buffer."""


@dataclass
class ScratchpadBuffer:
    """A single software-managed scratchpad (no tags), modelled by its capacity."""

    name: str
    capacity_bytes: int

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"{self.name}: capacity must be positive")


class BufferSet:
    """The A/B/C buffer triple of one MMAE (192 KB total by default)."""

    def __init__(
        self,
        a_capacity: int = 64 * 1024,
        b_capacity: int = 64 * 1024,
        c_capacity: int = 64 * 1024,
    ) -> None:
        self.a = ScratchpadBuffer("a_buffer", a_capacity)
        self.b = ScratchpadBuffer("b_buffer", b_capacity)
        self.c = ScratchpadBuffer("c_buffer", c_capacity)

    @property
    def total_capacity_bytes(self) -> int:
        return self.a.capacity_bytes + self.b.capacity_bytes + self.c.capacity_bytes

    def check_tile_fits(
        self,
        ttr: int,
        ttc: int,
        ttk: int,
        precision: Precision,
        double_buffered: bool = True,
    ) -> None:
        """Verify a second-level tile fits the buffers; raises on overflow.

        With double buffering, the A and B buffers must hold two in-flight
        blocks each (the one being computed and the one being fetched); the C
        buffer holds a single accumulator tile for the duration of the K loop.
        """
        element = precision.bytes_per_element
        factor = 2 if double_buffered else 1
        a_bytes = ttr * ttk * element * factor
        b_bytes = ttk * ttc * element * factor
        c_bytes = ttr * ttc * precision.accumulate_dtype.itemsize
        if a_bytes > self.a.capacity_bytes:
            raise BufferAllocationError(
                f"A tile ({ttr}x{ttk}, {a_bytes} bytes incl. double buffering) exceeds "
                f"the {self.a.capacity_bytes}-byte A buffer"
            )
        if b_bytes > self.b.capacity_bytes:
            raise BufferAllocationError(
                f"B tile ({ttk}x{ttc}, {b_bytes} bytes incl. double buffering) exceeds "
                f"the {self.b.capacity_bytes}-byte B buffer"
            )
        if c_bytes > self.c.capacity_bytes:
            raise BufferAllocationError(
                f"C tile ({ttr}x{ttc}, {c_bytes} bytes) exceeds the "
                f"{self.c.capacity_bytes}-byte C buffer"
            )

    def max_tile_dim(self, precision: Precision, double_buffered: bool = True) -> int:
        """Largest square second-level tile the buffers support for a precision."""
        dim = 1
        while True:
            candidate = dim * 2
            try:
                self.check_tile_fits(candidate, candidate, candidate, precision, double_buffered)
            except BufferAllocationError:
                break
            dim = candidate
        # Refine linearly between dim and 2*dim.
        step = max(1, dim // 8)
        best = dim
        candidate = dim
        while True:
            candidate += step
            try:
                self.check_tile_fits(candidate, candidate, candidate, precision, double_buffered)
                best = candidate
            except BufferAllocationError:
                break
        return best
