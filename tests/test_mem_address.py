"""Tests for address arithmetic helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.address import align_down, page_number, page_offset


class TestAlignment:
    def test_align_down(self):
        assert align_down(0x1234, 0x1000) == 0x1000

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            align_down(100, 3)

    @given(st.integers(min_value=0, max_value=2**48), st.sampled_from([64, 4096, 1 << 20]))
    def test_align_down_properties(self, address, alignment):
        aligned = align_down(address, alignment)
        assert aligned <= address
        assert aligned % alignment == 0
        assert address - aligned < alignment


class TestPaging:
    def test_page_number_and_offset(self):
        assert page_number(0x3456, 4096) == 3
        assert page_offset(0x3456, 4096) == 0x456

    @pytest.mark.parametrize("helper", [page_number, page_offset])
    def test_page_size_must_be_a_power_of_two(self, helper):
        assert helper(0x3456, 1 << 20) == (0 if helper is page_number else 0x3456)
        with pytest.raises(ValueError):
            helper(0x3456, 3000)

    @given(st.integers(min_value=0, max_value=2**48))
    def test_page_decomposition_roundtrip(self, address):
        assert page_number(address) * 4096 + page_offset(address) == address
