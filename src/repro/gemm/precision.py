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
    """Element precision of a GEMM operand.

    Each member carries its mode's constants as plain attributes, set once
    when the enum is built: the timing models read them on every tile and
    layer, so an access is one attribute load, not a table lookup.
    """

    #: Storage size of one element in bytes.
    bytes_per_element: int
    #: Number of MAC lanes one PE provides in this mode (Fig. 2(b)-(d)).
    simd_ways: int
    #: NumPy dtype used by the functional models.
    dtype: np.dtype
    #: Accumulator dtype: FP16 inputs accumulate in FP32, others in kind.
    accumulate_dtype: np.dtype

    FP64 = ("fp64", 8, 1, np.float64, np.float64)
    FP32 = ("fp32", 4, 2, np.float32, np.float32)
    FP16 = ("fp16", 2, 4, np.float16, np.float32)

    def __new__(cls, value: str, bytes_per_element: int, simd_ways: int,
                dtype: type, accumulate_dtype: type) -> "Precision":
        member = object.__new__(cls)
        member._value_ = value
        member.bytes_per_element = bytes_per_element
        member.simd_ways = simd_ways
        member.dtype = np.dtype(dtype)
        member.accumulate_dtype = np.dtype(accumulate_dtype)
        return member

    # Members are singletons compared by identity, so the C-level identity
    # hash is consistent with equality; ``Enum.__hash__`` hashes the name in
    # Python on every dict or set probe (each ``GEMMShape`` hash included).
    # Neither hash is stable across processes, so no output may depend on
    # the iteration order of a set of precisions.
    __hash__ = object.__hash__

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
