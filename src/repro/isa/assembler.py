"""A small assembler for MPAIS programs.

The syntax mirrors the usage column of the paper's Table II::

    MA_CFG   X1, X2       ; request an MTQ entry, parameters in X2..X7
    MA_READ  X3, X1       ; poll the task state via the MAID in X1
    MA_CLEAR X1           ; clear the entry after an exception

Comments start with ``;`` or ``#``; blank lines are ignored; register names
are ``X0``..``X30`` (``XZR``/``X31`` is the zero register).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, List

from repro.isa.encoding import encode_instruction
from repro.isa.instructions import Instruction, Opcode

_REGISTER_RE = re.compile(r"^(?:X(\d{1,2})|XZR)$", re.IGNORECASE)


class AssemblyError(Exception):
    """Raised for malformed assembly input; carries the offending line number."""

    def __init__(self, message: str, line_number: int) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass
class Program:
    """An assembled MPAIS program: instruction objects plus their machine words."""

    instructions: List[Instruction] = field(default_factory=list)
    source_lines: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def machine_words(self) -> List[int]:
        return [encode_instruction(instruction) for instruction in self.instructions]


def _parse_register(token: str, line_number: int) -> int:
    token = token.strip().rstrip(",")
    match = _REGISTER_RE.match(token)
    if not match:
        raise AssemblyError(f"invalid register {token!r}", line_number)
    if match.group(1) is None:  # XZR
        return 31
    index = int(match.group(1))
    if index > 31:
        raise AssemblyError(f"register X{index} out of range", line_number)
    return index


def assemble(line: str, line_number: int = 1) -> Instruction:
    """Assemble one line of MPAIS assembly into an :class:`Instruction`."""
    text = line.split(";")[0].split("#")[0].strip()
    if not text:
        raise AssemblyError("empty line has no instruction", line_number)
    parts = text.replace(",", " ").split()
    mnemonic = parts[0].upper()
    try:
        opcode = Opcode[mnemonic]
    except KeyError as error:
        raise AssemblyError(f"unknown mnemonic {mnemonic!r}", line_number) from error
    operands = parts[1:]
    if opcode is Opcode.MA_CLEAR:
        if len(operands) != 1:
            raise AssemblyError("MA_CLEAR takes exactly one register operand (Rn)", line_number)
        rn = _parse_register(operands[0], line_number)
        return Instruction(opcode=opcode, rd=31, rn=rn)
    if len(operands) != 2:
        raise AssemblyError(f"{mnemonic} takes exactly two register operands (Rd, Rn)", line_number)
    rd = _parse_register(operands[0], line_number)
    rn = _parse_register(operands[1], line_number)
    return Instruction(opcode=opcode, rd=rd, rn=rn)


def assemble_program(source: str | Iterable[str]) -> Program:
    """Assemble a multi-line program (string or iterable of lines)."""
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = list(source)
    program = Program()
    for line_number, raw_line in enumerate(lines, start=1):
        stripped = raw_line.split(";")[0].split("#")[0].strip()
        if not stripped:
            continue
        program.instructions.append(assemble(raw_line, line_number))
        program.source_lines.append(raw_line.rstrip())
    return program
