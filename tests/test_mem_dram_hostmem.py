"""Tests for the DRAM model and host memory."""

import numpy as np
import pytest

from repro.mem.dram import DRAMConfig, DRAMModel
from repro.mem.hostmem import HostMemory, HostMemoryError


class TestDRAMModel:
    def test_total_bandwidth(self):
        dram = DRAMModel(DRAMConfig(num_channels=4, channel_bandwidth_bytes_per_s=50e9))
        assert dram.effective_bandwidth(1) == pytest.approx(200e9)

    def test_bandwidth_degrades_with_many_streams(self):
        dram = DRAMModel()
        assert dram.effective_bandwidth(16) < dram.effective_bandwidth(4)
        assert dram.effective_bandwidth(16) >= 0.7 * dram.effective_bandwidth(1)

    def test_invalid_stream_count(self):
        with pytest.raises(ValueError):
            DRAMModel().effective_bandwidth(0)

    def test_efficiency_floors_at_70_percent(self):
        dram = DRAMModel()
        total = dram.config.total_bandwidth_bytes_per_s
        # 3% per stream beyond the four channels reaches the floor by 14 streams.
        assert dram.effective_bandwidth(5) == total * (1.0 - 0.03)
        assert dram.effective_bandwidth(24) == dram.effective_bandwidth(1000) == total * 0.70

    def test_node_capacity_splits_the_channels_evenly(self):
        dram = DRAMModel(DRAMConfig(num_channels=4, channel_capacity_bytes=16 << 30))
        assert dram.config.total_capacity_bytes == 64 << 30
        assert dram.node_capacity_bytes() == 64 << 30
        assert dram.node_capacity_bytes(4) == 16 << 30
        assert dram.node_capacity_bytes(3) == (64 << 30) // 3

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            DRAMModel().node_capacity_bytes(0)

    @pytest.mark.parametrize("field, value", [
        ("num_channels", 0),
        ("channel_bandwidth_bytes_per_s", 0.0),
        ("access_latency_ns", -1.0),
        ("channel_capacity_bytes", 0),
    ])
    def test_config_rejects_impossible_values(self, field, value):
        with pytest.raises(ValueError):
            DRAMConfig(**{field: value})


class TestHostMemory:
    def test_register_and_read_back(self):
        memory = HostMemory()
        array = np.arange(12, dtype=np.float64).reshape(3, 4)
        memory.register_matrix(0x1000, array)
        assert memory.has_matrix(0x1000)
        np.testing.assert_array_equal(memory.matrix_at(0x1000), array)

    def test_overlapping_regions_rejected(self):
        memory = HostMemory()
        memory.register_matrix(0x1000, np.zeros((4, 4)))
        with pytest.raises(HostMemoryError):
            memory.register_matrix(0x1000 + 64, np.zeros((4, 4)))

    def test_find_region(self):
        memory = HostMemory()
        memory.register_matrix(0x2000, np.zeros((8, 8)))
        assert memory.find_region(0x2000 + 100) == 0x2000
        assert memory.find_region(0x9000) is None

    def test_zero_region(self):
        memory = HostMemory()
        memory.register_matrix(0x1000, np.ones((4, 4)))
        memory.zero_region(0x1000)
        assert np.all(memory.matrix_at(0x1000) == 0)

    def test_only_2d_matrices(self):
        memory = HostMemory()
        with pytest.raises(HostMemoryError):
            memory.register_matrix(0, np.zeros(16))
