"""Address arithmetic helpers shared by the page tables, TLBs and mATLB."""

from __future__ import annotations

DEFAULT_PAGE_SIZE = 4096
DEFAULT_LINE_SIZE = 64


def _check_power_of_two(value: int, name: str) -> None:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value}")


def align_down(address: int, alignment: int) -> int:
    """Round ``address`` down to a multiple of ``alignment`` (a power of two)."""
    _check_power_of_two(alignment, "alignment")
    return address & ~(alignment - 1)


def page_number(address: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Virtual/physical page number containing ``address``."""
    _check_power_of_two(page_size, "page_size")
    return address >> page_size.bit_length() - 1


def page_offset(address: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Offset of ``address`` within its page."""
    _check_power_of_two(page_size, "page_size")
    return address & (page_size - 1)
