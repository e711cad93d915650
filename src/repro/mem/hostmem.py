"""A functional host-memory view: virtual addresses -> NumPy matrices.

The timing models never need data, but the functional tests do: they allocate
matrices in a process's address space, register the backing arrays here, run a
GEMM through the MPAIS / MMAE stack, and compare the result written back to
memory against NumPy.  The view is keyed by the *virtual* base address used in
the GEMM descriptor, mirroring how the MMAE receives operand pointers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np


class HostMemoryError(Exception):
    """Raised for invalid registrations or out-of-range accesses."""


@dataclass
class _Region:
    base_vaddr: int
    array: np.ndarray

    @property
    def size_bytes(self) -> int:
        return int(self.array.nbytes)

    @property
    def end_vaddr(self) -> int:
        return self.base_vaddr + self.size_bytes


class HostMemory:
    """Maps virtual base addresses to 2-D NumPy arrays (row-major matrices)."""

    def __init__(self) -> None:
        self._regions: Dict[int, _Region] = {}

    def register_matrix(self, base_vaddr: int, array: np.ndarray) -> None:
        """Register ``array`` as the contents of the region starting at ``base_vaddr``."""
        if array.ndim != 2:
            raise HostMemoryError("only 2-D matrices can be registered")
        if not array.flags["C_CONTIGUOUS"]:
            array = np.ascontiguousarray(array)
        new_region = _Region(base_vaddr, array)
        for region in self._regions.values():
            if new_region.base_vaddr < region.end_vaddr and region.base_vaddr < new_region.end_vaddr:
                raise HostMemoryError(
                    f"region at {base_vaddr:#x} overlaps existing region at {region.base_vaddr:#x}"
                )
        self._regions[base_vaddr] = new_region

    def unregister(self, base_vaddr: int) -> None:
        """Drop the region registered at ``base_vaddr`` (no-op if absent)."""
        self._regions.pop(base_vaddr, None)

    def matrix_at(self, base_vaddr: int) -> np.ndarray:
        """Return the array registered exactly at ``base_vaddr``."""
        region = self._regions.get(base_vaddr)
        if region is None:
            raise HostMemoryError(f"no matrix registered at {base_vaddr:#x}")
        return region.array

    def has_matrix(self, base_vaddr: int) -> bool:
        return base_vaddr in self._regions

    def find_region(self, vaddr: int) -> Optional[int]:
        """Return the base address of the region containing ``vaddr``, if any."""
        for base, region in self._regions.items():
            if region.base_vaddr <= vaddr < region.end_vaddr:
                return base
        return None

    def write_matrix(self, base_vaddr: int, values: np.ndarray) -> None:
        """Overwrite the contents of a registered matrix in place."""
        region = self._regions.get(base_vaddr)
        if region is None:
            raise HostMemoryError(f"no matrix registered at {base_vaddr:#x}")
        if values.shape != region.array.shape:
            raise HostMemoryError(
                f"shape mismatch writing {base_vaddr:#x}: {values.shape} vs {region.array.shape}"
            )
        region.array[...] = values

    def zero_region(self, base_vaddr: int) -> None:
        """Functional effect of MA_INIT on a registered matrix."""
        self.matrix_at(base_vaddr)[...] = 0
