"""Tests for the MMAE scratchpad buffers and DMA engines."""

import pytest

from repro.gemm.precision import Precision
from repro.mmae.buffers import BufferAllocationError, BufferSet
from repro.mmae.dma import DMAEngine


class TestBufferSet:
    def test_paper_capacity_is_192kb(self):
        assert BufferSet().total_capacity_bytes == 192 * 1024

    def test_paper_tile_fits_fp64(self):
        # The evaluation's second-level tile (64x64 FP64 with K blocked at 64)
        # must fit with double buffering.
        BufferSet().check_tile_fits(64, 64, 64, Precision.FP64, double_buffered=True)

    def test_oversized_tile_rejected(self):
        with pytest.raises(BufferAllocationError):
            BufferSet().check_tile_fits(256, 256, 256, Precision.FP64)

    def test_fp16_allows_larger_tiles_than_fp64(self):
        buffers = BufferSet()
        assert buffers.max_tile_dim(Precision.FP16) >= buffers.max_tile_dim(Precision.FP64)

    def test_max_tile_dim_is_maximal(self):
        buffers = BufferSet()
        dim = buffers.max_tile_dim(Precision.FP64)
        buffers.check_tile_fits(dim, dim, dim, Precision.FP64)
        with pytest.raises(BufferAllocationError):
            buffers.check_tile_fits(dim + 1, dim + 1, dim + 1, Precision.FP64)

    def test_single_buffering_allows_larger_tiles(self):
        buffers = BufferSet()
        assert buffers.max_tile_dim(Precision.FP64, double_buffered=False) >= buffers.max_tile_dim(
            Precision.FP64, double_buffered=True
        )


class TestDMAEngine:
    def test_peak_bandwidth(self):
        engine = DMAEngine(peak_bytes_per_cycle=32.0, frequency_hz=2.5e9)
        assert engine.peak_bandwidth_bytes_per_s == pytest.approx(80e9)

    def test_zero_latency_gives_peak(self):
        engine = DMAEngine()
        assert engine.sustained_bytes_per_cycle(0.0) == engine.peak_bytes_per_cycle

    def test_long_latency_limits_bandwidth(self):
        engine = DMAEngine(max_outstanding_lines=8, line_size=64)
        # 8 outstanding 64-byte lines over a 512-cycle round trip -> 1 B/cycle.
        assert engine.sustained_bytes_per_cycle(512.0) == pytest.approx(1.0)

    def test_sustained_bandwidth_monotone_in_latency(self):
        engine = DMAEngine()
        assert engine.sustained_bytes_per_cycle(400) <= engine.sustained_bytes_per_cycle(100)

    def test_transfer_time_scales_with_size(self):
        engine = DMAEngine()
        small = engine.transfer(1 << 12, round_trip_latency_cycles=100).cycles
        large = engine.transfer(1 << 20, round_trip_latency_cycles=100).cycles
        assert large > small

    def test_transfer_includes_translation_stalls(self):
        engine = DMAEngine()
        result = engine.transfer(4096, translation_stall_cycles=500)
        assert result.total_cycles == result.cycles + 500

    def test_traffic_accounting(self):
        engine = DMAEngine()
        first, second = engine.transfer(100), engine.transfer(200)
        assert (first.bytes_transferred, second.bytes_transferred) == (100, 200)
        # With no latency each transfer streams at the 32 B/cycle peak.
        assert (first.cycles, second.cycles) == (4, 7)

    def test_zero_byte_transfer(self):
        assert DMAEngine().transfer(0).cycles == 0

    def test_negative_transfer_rejected(self):
        with pytest.raises(ValueError):
            DMAEngine().transfer(-1)
