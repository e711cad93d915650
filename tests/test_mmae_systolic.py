"""Tests for the systolic array model and the oracle's PE and cycle-stepped emulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.conformance.functional_oracle import ProcessingElement, SystolicArrayEmulator
from repro.gemm.precision import Precision
from repro.mmae.systolic_array import SystolicArray, datapath_operand


class TestProcessingElement:
    def test_mac_computes_fma(self):
        pe = ProcessingElement(0, 0)
        pe.load_weights([2.0])
        assert pe.mac([3.0], [1.0]) == [7.0]

    def test_lane_count_follows_precision(self):
        pe = ProcessingElement(0, 0, precision=Precision.FP16)
        assert pe.lanes == 4

    def test_simd_mode_processes_all_lanes(self):
        pe = ProcessingElement(0, 0, precision=Precision.FP32)
        pe.load_weights([1.0, 2.0])
        assert pe.mac([3.0, 4.0], [0.0, 0.0]) == [3.0, 8.0]

    def test_wrong_lane_count_rejected(self):
        pe = ProcessingElement(0, 0, precision=Precision.FP32)
        with pytest.raises(ValueError):
            pe.load_weights([1.0])

    def test_mac_without_weights_rejected(self):
        with pytest.raises(RuntimeError):
            ProcessingElement(0, 0).mac([1.0], [0.0])

    def test_set_precision_clears_weights(self):
        pe = ProcessingElement(0, 0)
        pe.load_weights([1.0])
        pe.set_precision(Precision.FP16)
        assert pe.weights == []

    def test_mac_counter(self):
        pe = ProcessingElement(0, 0)
        pe.load_weights([1.0])
        pe.mac([1.0], [0.0])
        pe.mac([1.0], [0.0])
        assert pe.macs_performed == 2


class TestSystolicArrayRates:
    def test_paper_peak_rates(self):
        array = SystolicArray(4, 4, 2.5e9)
        assert array.peak_gflops(Precision.FP64) == pytest.approx(80.0)
        assert array.peak_gflops(Precision.FP32) == pytest.approx(160.0)
        assert array.peak_gflops(Precision.FP16) == pytest.approx(320.0)

    def test_macs_per_cycle_by_mode(self):
        array = SystolicArray(4, 4)
        assert array.macs_per_cycle(Precision.FP64) == 16
        assert array.macs_per_cycle(Precision.FP32) == 32
        assert array.macs_per_cycle(Precision.FP16) == 64

    def test_tile_cycles_at_least_ideal(self):
        array = SystolicArray(4, 4)
        for precision in Precision:
            # The MAC lower bound tr*tc*tk / (rows*cols*simd_ways), from shape numbers alone.
            bound = 64 * 64 * 64 / (4 * 4 * precision.simd_ways)
            assert array.tile_cycles(64, 64, 64, precision) >= bound

    def test_tile_utilization_high_for_paper_tile(self):
        # The paper's 64x64x64 tile keeps the 4x4 array busy: fill and drain
        # cost under 5% of the MAC bound in every mode.
        array = SystolicArray(4, 4)
        for precision in Precision:
            bound = 64 * 64 * 64 / (4 * 4 * precision.simd_ways)
            assert bound / array.tile_cycles(64, 64, 64, precision) > 0.95

    def test_simd_modes_need_fewer_cycles(self):
        array = SystolicArray(4, 4)
        fp64 = array.tile_cycles(64, 64, 64, Precision.FP64)
        fp32 = array.tile_cycles(64, 64, 64, Precision.FP32)
        fp16 = array.tile_cycles(64, 64, 64, Precision.FP16)
        assert fp16 < fp32 < fp64

    def test_invalid_tile_rejected(self):
        with pytest.raises(ValueError):
            SystolicArray().tile_cycles(0, 64, 64)


class TestSystolicArrayFunctional:
    def test_tile_matches_numpy_fp64(self, rng):
        array = SystolicArray()
        a = rng.standard_normal((32, 48))
        b = rng.standard_normal((48, 24))
        c = rng.standard_normal((32, 24))
        expected = a @ b + c
        result = array.compute_tile(a, b, c, Precision.FP64)
        # C accumulates in place, rounding exactly like ``A @ B + C``.
        assert result.output is c
        np.testing.assert_array_equal(c, expected)

    def test_tile_matches_numpy_fp32_within_tolerance(self, rng):
        array = SystolicArray()
        a = rng.standard_normal((16, 16)).astype(np.float32)
        b = rng.standard_normal((16, 16)).astype(np.float32)
        result = array.compute_tile(a, b, np.zeros((16, 16), np.float32), Precision.FP32)
        np.testing.assert_allclose(result.output, a.astype(np.float64) @ b.astype(np.float64), rtol=1e-4)

    def test_fp16_accumulates_in_fp32(self, rng):
        array = SystolicArray()
        a = rng.standard_normal((8, 64))
        b = rng.standard_normal((64, 8))
        result = array.compute_tile(
            datapath_operand(a, Precision.FP16), datapath_operand(b, Precision.FP16),
            np.zeros((8, 8), np.float32), Precision.FP16)
        assert result.output.dtype == np.float32
        np.testing.assert_allclose(result.output, a @ b, rtol=5e-2, atol=5e-2)

    def test_mismatched_tiles_rejected(self):
        array = SystolicArray()
        with pytest.raises(ValueError):
            array.compute_tile(np.zeros((4, 5)), np.zeros((6, 4)), np.zeros((4, 4)))
        with pytest.raises(ValueError):
            array.compute_tile(np.zeros((4, 5)), np.zeros((5, 4)), np.zeros((4, 5)))

    @pytest.mark.parametrize("operand", ["a", "b", "c"])
    def test_operands_outside_the_datapath_dtype_are_rejected_untouched(self, operand):
        """A float64 operand in FP32 mode is refused, not cast, and C stays as it was."""
        tiles = {"a": np.ones((4, 4), np.float32), "b": np.ones((4, 4), np.float32),
                 "c": np.ones((4, 4), np.float32)}
        tiles[operand] = np.ones((4, 4))
        with pytest.raises(ValueError, match="datapath operands"):
            SystolicArray().compute_tile(tiles["a"], tiles["b"], tiles["c"], Precision.FP32)
        assert (tiles["c"] == 1).all()

    def test_stats_accumulate(self, rng):
        array = SystolicArray()
        array.compute_tile(rng.standard_normal((8, 8)), rng.standard_normal((8, 8)), np.zeros((8, 8)))
        assert array.total_macs == 8 * 8 * 8
        assert array.total_cycles > 0

    @settings(max_examples=20, deadline=None)
    @given(
        tr=st.integers(1, 24), tk=st.integers(1, 24), tc=st.integers(1, 24),
        seed=st.integers(0, 2**16),
    )
    def test_arbitrary_tile_shapes_match_numpy(self, tr, tk, tc, seed):
        rng = np.random.default_rng(seed)
        array = SystolicArray()
        a = rng.standard_normal((tr, tk))
        b = rng.standard_normal((tk, tc))
        result = array.compute_tile(a, b, np.zeros((tr, tc)), Precision.FP64)
        np.testing.assert_allclose(result.output, a @ b, rtol=1e-12, atol=1e-12)


class TestDatapathOperand:
    @pytest.mark.parametrize("precision", list(Precision))
    def test_a_block_of_the_cast_equals_the_cast_of_the_block(self, rng, precision):
        matrix = rng.standard_normal((96, 80)).astype(precision.dtype)
        whole = datapath_operand(matrix, precision)
        assert whole.dtype == precision.accumulate_dtype
        block = whole[32:64, 16:48]
        np.testing.assert_array_equal(block, datapath_operand(matrix[32:64, 16:48], precision))
        np.testing.assert_array_equal(
            block, matrix[32:64, 16:48].astype(precision.dtype).astype(precision.accumulate_dtype))

    def test_an_operand_already_in_datapath_form_is_not_copied(self, rng):
        matrix = rng.standard_normal((8, 8)).astype(np.float32)
        assert datapath_operand(matrix, Precision.FP32) is matrix
        assert datapath_operand(matrix, Precision.FP16) is not matrix


class TestSystolicArrayEmulator:
    """The cycle-stepped wavefront must agree with the analytical model."""

    def test_block_result_matches_numpy(self, rng):
        emulator = SystolicArrayEmulator(rows=4, cols=4)
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((4, 4))
        result = emulator.run_block(a, b)
        np.testing.assert_allclose(result.output, a @ b, rtol=1e-12, atol=1e-12)

    def test_latency_formula(self, rng):
        emulator = SystolicArrayEmulator(rows=4, cols=4)
        tr = 10
        a = rng.standard_normal((tr, 4))
        b = rng.standard_normal((4, 4))
        result = emulator.run_block(a, b)
        assert result.cycles == 4 + 4 + tr - 2

    def test_single_row_stream(self, rng):
        emulator = SystolicArrayEmulator(rows=4, cols=4)
        a = rng.standard_normal((1, 4))
        b = rng.standard_normal((4, 4))
        np.testing.assert_allclose(emulator.run_block(a, b).output, a @ b, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        emulator = SystolicArrayEmulator(rows=4, cols=4)
        with pytest.raises(ValueError):
            emulator.run_block(np.zeros((4, 3)), np.zeros((4, 4)))

    def test_simd_modes_not_emulated(self):
        emulator = SystolicArrayEmulator(precision=Precision.FP32)
        with pytest.raises(NotImplementedError):
            emulator.run_block(np.zeros((4, 4)), np.zeros((4, 4)))

    def test_different_array_geometry(self, rng):
        emulator = SystolicArrayEmulator(rows=3, cols=5)
        a = rng.standard_normal((7, 3))
        b = rng.standard_normal((3, 5))
        np.testing.assert_allclose(emulator.run_block(a, b).output, a @ b, rtol=1e-12, atol=1e-12)
