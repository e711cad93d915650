"""Binary encoding of MPAIS instructions.

MPAIS extends ARMv8, so the encoding follows the A64 fixed-width 32-bit format
and claims an unallocated slice of the encoding space.  The layout is::

    31           22 21      16 15       10 9        5 4        0
    +--------------+----------+-----------+----------+----------+
    |  1111000111  |  funct6  |  reserved |    Rn    |    Rd    |
    +--------------+----------+-----------+----------+----------+

``funct6`` selects one of the seven MPAIS operations.  The reserved field is
encoded as zero and must decode as zero (otherwise the word is rejected), so
future extensions (e.g. additional precisions) have space to grow.
"""

from __future__ import annotations

from repro.isa.instructions import Instruction, Opcode

#: The top-10-bit major opcode claimed from the unallocated ARMv8 space.
MPAIS_OPCODE_SPACE = 0b1111000111

_FUNCT_CODES = {
    Opcode.MA_MOVE: 0b000001,
    Opcode.MA_INIT: 0b000010,
    Opcode.MA_STASH: 0b000011,
    Opcode.MA_CFG: 0b000100,
    Opcode.MA_READ: 0b000101,
    Opcode.MA_STATE: 0b000110,
    Opcode.MA_CLEAR: 0b000111,
}
_OPCODE_FROM_FUNCT = {code: opcode for opcode, code in _FUNCT_CODES.items()}


class EncodingError(Exception):
    """Raised when a 32-bit word is not a valid MPAIS instruction."""


def encode_instruction(instruction: Instruction) -> int:
    """Encode an :class:`Instruction` into its 32-bit machine word."""
    funct = _FUNCT_CODES[instruction.opcode]
    word = (
        (MPAIS_OPCODE_SPACE << 22)
        | (funct << 16)
        | (instruction.rn << 5)
        | instruction.rd
    )
    return word


def decode_instruction(word: int) -> Instruction:
    """Decode a 32-bit machine word back into an :class:`Instruction`.

    Raises :class:`EncodingError` if the word is not in the MPAIS space or uses
    a reserved encoding.
    """
    if not 0 <= word < (1 << 32):
        raise EncodingError(f"not a 32-bit word: {word:#x}")
    if (word >> 22) != MPAIS_OPCODE_SPACE:
        raise EncodingError(f"word {word:#010x} is not an MPAIS instruction")
    funct = (word >> 16) & 0b111111
    if funct not in _OPCODE_FROM_FUNCT:
        raise EncodingError(f"unknown MPAIS funct code {funct:#08b}")
    reserved = (word >> 10) & 0b111111
    if reserved != 0:
        raise EncodingError(f"reserved field must be zero, got {reserved:#08b}")
    rn = (word >> 5) & 0b11111
    rd = word & 0b11111
    return Instruction(opcode=_OPCODE_FROM_FUNCT[funct], rd=rd, rn=rn)
