"""Floating-point precisions supported by the MACO MMAE.

The MMAE's systolic array natively computes FP64 MACs; the paper extends the
classical dataflow with SIMD-like compute modes that pack two FP32 or four
FP16 operations into each PE lane (Fig. 2(c)/(d)).  The :class:`Precision`
enum captures the element width, the NumPy dtype used by the functional
models, and the SIMD packing factor of each mode.
"""

from __future__ import annotations

import enum

import numpy as np


class Precision(enum.Enum):
    """Element precision of a GEMM operand."""

    FP64 = "fp64"
    FP32 = "fp32"
    FP16 = "fp16"

    @property
    def bytes_per_element(self) -> int:
        """Storage size of one element in bytes."""
        return _BYTES_PER_ELEMENT[self]

    @property
    def simd_ways(self) -> int:
        """Number of MAC lanes one PE provides in this mode (Fig. 2(b)-(d))."""
        return _SIMD_WAYS[self]

    @property
    def dtype(self) -> np.dtype:
        """NumPy dtype used by the functional models."""
        return _DTYPES[self]

    @property
    def accumulate_dtype(self) -> np.dtype:
        """Accumulator dtype: FP16 inputs accumulate in FP32, others in kind."""
        if self is Precision.FP16:
            return np.dtype(np.float32)
        return self.dtype

    @classmethod
    def from_string(cls, name: str) -> "Precision":
        """Parse a precision from names like ``"fp32"``, ``"FP32"`` or ``"float32"``."""
        normalized = name.strip().lower().replace("float", "fp")
        for member in cls:
            if member.value == normalized:
                return member
        raise ValueError(f"unknown precision {name!r}; expected one of fp64/fp32/fp16")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value.upper()


# Per-precision lookup tables, built once (the properties above are called on
# every tile and layer of the timing models).
_BYTES_PER_ELEMENT = {Precision.FP64: 8, Precision.FP32: 4, Precision.FP16: 2}
_SIMD_WAYS = {Precision.FP64: 1, Precision.FP32: 2, Precision.FP16: 4}
_DTYPES = {
    Precision.FP64: np.dtype(np.float64),
    Precision.FP32: np.dtype(np.float32),
    Precision.FP16: np.dtype(np.float16),
}
