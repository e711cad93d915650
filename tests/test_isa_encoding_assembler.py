"""Tests for the MPAIS binary encoding and the assembler."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.assembler import AssemblyError, assemble, assemble_program
from repro.isa.encoding import (
    EncodingError,
    MPAIS_OPCODE_SPACE,
    decode_instruction,
    encode_instruction,
)
from repro.isa.instructions import Instruction, Opcode


class TestEncoding:
    def test_word_is_32_bit(self):
        word = encode_instruction(Instruction(Opcode.MA_CFG, 1, 2))
        assert 0 <= word < (1 << 32)

    def test_top_bits_are_mpais_space(self):
        word = encode_instruction(Instruction(Opcode.MA_MOVE, 3, 4))
        assert word >> 22 == MPAIS_OPCODE_SPACE

    def test_roundtrip_all_opcodes(self):
        for opcode in Opcode:
            instruction = Instruction(opcode, rd=5, rn=9)
            assert decode_instruction(encode_instruction(instruction)) == instruction

    @given(
        opcode=st.sampled_from(list(Opcode)),
        rd=st.integers(0, 31),
        rn=st.integers(0, 31),
    )
    def test_roundtrip_property(self, opcode, rd, rn):
        instruction = Instruction(opcode, rd, rn)
        assert decode_instruction(encode_instruction(instruction)) == instruction

    def test_distinct_instructions_encode_distinctly(self):
        words = {
            encode_instruction(Instruction(opcode, rd, rn))
            for opcode in Opcode for rd in (0, 7) for rn in (1, 30)
        }
        assert len(words) == len(Opcode) * 4

    def test_non_mpais_word_rejected(self):
        with pytest.raises(EncodingError):
            decode_instruction(0x00000000)

    def test_reserved_field_must_be_zero(self):
        word = encode_instruction(Instruction(Opcode.MA_CFG, 1, 2)) | (1 << 10)
        with pytest.raises(EncodingError):
            decode_instruction(word)

    def test_unknown_funct_rejected(self):
        word = (MPAIS_OPCODE_SPACE << 22) | (0b111111 << 16)
        with pytest.raises(EncodingError):
            decode_instruction(word)


class TestAssembler:
    def test_simple_instruction(self):
        instruction = assemble("MA_CFG X1, X2")
        assert instruction == Instruction(Opcode.MA_CFG, 1, 2)

    def test_lower_case_and_extra_spaces(self):
        assert assemble("  ma_read   x4 ,  x1 ") == Instruction(Opcode.MA_READ, 4, 1)

    def test_ma_clear_single_operand(self):
        instruction = assemble("MA_CLEAR X3")
        assert instruction.opcode is Opcode.MA_CLEAR
        assert instruction.rn == 3
        assert instruction.rd == 31

    def test_xzr_register(self):
        assert assemble("MA_READ XZR, X1").rd == 31

    def test_comments_ignored(self):
        assert assemble("MA_CFG X1, X2 ; configure the GEMM").opcode is Opcode.MA_CFG

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError):
            assemble("MA_BOGUS X1, X2")

    def test_bad_register(self):
        with pytest.raises(AssemblyError):
            assemble("MA_CFG X1, X99")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblyError):
            assemble("MA_CFG X1")
        with pytest.raises(AssemblyError):
            assemble("MA_CLEAR X1, X2")

    def test_program_assembly_skips_blank_and_comment_lines(self):
        program = assemble_program(
            """
            ; configure and poll a GEMM task
            MA_CFG X1, X2
            # poll
            MA_READ X3, X1
            MA_STATE X4, X1
            """
        )
        assert len(program) == 3
        assert [i.opcode for i in program] == [Opcode.MA_CFG, Opcode.MA_READ, Opcode.MA_STATE]

    def test_program_machine_words_decode_back(self):
        program = assemble_program("MA_CFG X1, X2\nMA_CLEAR X1")
        decoded = [decode_instruction(word) for word in program.machine_words()]
        assert decoded == program.instructions

    def test_error_reports_line_number(self):
        with pytest.raises(AssemblyError) as excinfo:
            assemble_program("MA_CFG X1, X2\nMA_WRONG X1, X2")
        assert excinfo.value.line_number == 2
