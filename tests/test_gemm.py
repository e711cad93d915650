"""Tests for precisions, GEMM shapes, paper sweep sizes, two-level tiling and reference kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.conformance.reference import (
    blocked_gemm,
    conv2d_reference,
    im2col_patches,
    reference_gemm,
)
from repro.gemm import (
    GEMMShape,
    Precision,
    TileConfig,
    TwoLevelTiling,
    paper_matrix_sizes,
    tile_classes,
    tile_ranges,
)
from repro.gemm.tiling import PAPER_LEVEL1, PAPER_LEVEL2, Tile
from repro.workloads import WorkloadGraph, hpl_graph


class TestPrecision:
    def test_bytes_per_element(self):
        assert Precision.FP64.bytes_per_element == 8
        assert Precision.FP32.bytes_per_element == 4
        assert Precision.FP16.bytes_per_element == 2

    def test_simd_ways_match_fig2(self):
        assert Precision.FP64.simd_ways == 1
        assert Precision.FP32.simd_ways == 2
        assert Precision.FP16.simd_ways == 4

    def test_fp16_accumulates_in_fp32(self):
        assert Precision.FP16.accumulate_dtype == np.float32
        assert Precision.FP64.accumulate_dtype == np.float64

    def test_from_string(self):
        assert Precision.from_string("FP32") is Precision.FP32
        assert Precision.from_string("float16") is Precision.FP16
        with pytest.raises(ValueError):
            Precision.from_string("int8")


class TestGEMMShape:
    def test_flops_and_macs(self):
        shape = GEMMShape(4, 5, 6)
        assert shape.macs == 120
        assert shape.flops == 240

    def test_operand_bytes(self):
        shape = GEMMShape(4, 5, 6, Precision.FP32)
        assert shape.bytes_a == 4 * 6 * 4
        assert shape.bytes_b == 6 * 5 * 4
        assert shape.bytes_c == 4 * 5 * 4
        assert shape.total_bytes == shape.bytes_a + shape.bytes_b + shape.bytes_c

    def test_arithmetic_intensity_grows_with_size(self):
        assert GEMMShape(1024, 1024, 1024).arithmetic_intensity > GEMMShape(64, 64, 64).arithmetic_intensity

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ValueError):
            GEMMShape(0, 4, 4)

    def test_with_precision(self):
        assert GEMMShape(8, 8, 8).with_precision(Precision.FP16).precision is Precision.FP16


class TestWorkloads:
    def test_paper_sizes(self):
        assert paper_matrix_sizes(6) == (256, 512, 1024, 2048, 4096, 9216)
        assert 3072 in paper_matrix_sizes(7)
        with pytest.raises(ValueError):
            paper_matrix_sizes(9)

    def test_hpl_like_ladder(self):
        workload = hpl_graph(max_size=4096, step=1024)
        sizes = [shape.m for shape in workload.layers()]
        assert sizes == [4096, 3072, 2048, 1024]
        assert workload.name == "hpl-like-4096"

    def test_workload_aggregates(self):
        workload = WorkloadGraph.from_shapes(
            "w", [GEMMShape(10, 10, 10), GEMMShape(20, 20, 20)],
            non_gemm_flops=100, non_gemm_bytes=200)
        assert workload.gemm_flops == 2 * 1000 + 2 * 8000
        assert workload.total_flops == workload.gemm_flops + 100
        assert workload.non_gemm_bytes == 200
        assert len(list(workload.layers())) == 2


class TestTiling:
    def test_tile_ranges_cover_extent(self):
        ranges = tile_ranges(100, 32)
        assert ranges[0] == (0, 32)
        assert ranges[-1] == (96, 100)
        assert sum(end - start for start, end in ranges) == 100

    @settings(max_examples=60, deadline=None)
    @given(extent=st.integers(1, 5000), tile=st.integers(1, 700))
    def test_tile_classes_count_the_range_lengths_in_order(self, extent, tile):
        lengths = [end - start for start, end in tile_ranges(extent, tile)]
        classes = tile_classes(extent, tile)
        assert len(classes) <= 2
        assert [length for length, count in classes for _ in range(count)] == lengths

    def test_tile_classes_reject_empty_extents(self):
        with pytest.raises(ValueError):
            tile_classes(0, 4)
        with pytest.raises(ValueError):
            tile_classes(4, 0)

    def test_paper_tiling_constants(self):
        assert (PAPER_LEVEL1.rows, PAPER_LEVEL1.cols) == (1024, 1024)
        assert (PAPER_LEVEL2.rows, PAPER_LEVEL2.cols) == (64, 64)

    def test_level1_grid(self):
        tiling = TwoLevelTiling(GEMMShape(2048, 1024, 3072))
        assert tiling.level1_grid == (2, 1, 3)
        assert tiling.num_level1_tiles == 6

    def test_level2_count_within_tile(self):
        tiling = TwoLevelTiling(GEMMShape(1024, 1024, 1024))
        tile = next(tiling.level1_tiles())
        assert tiling.num_level2_tiles(tile) == 16 * 16 * 16

    def test_tiles_cover_shape_exactly(self):
        for shape in (GEMMShape(1000, 900, 1100), GEMMShape(64, 64, 64), GEMMShape(4096, 128, 256)):
            assert TwoLevelTiling(shape).check_covers_shape()

    def test_level2_tiles_of_a_ragged_parent_in_schedule_order(self):
        """Row-major blocks, K innermost, every axis clipped at the parent's edge."""
        tiling = TwoLevelTiling(GEMMShape(1100, 150, 600), TileConfig(1024, 150, 512),
                                TileConfig(32, 32, 40))
        parent = list(tiling.level1_tiles())[3]
        assert parent == Tile(1024, 1100, 0, 150, 512, 600)
        expected = [
            Tile(row, min(row + 32, 1100), col, min(col + 32, 150), k, min(k + 40, 600))
            for row in range(1024, 1100, 32)
            for col in range(0, 150, 32)
            for k in range(512, 600, 40)
        ]
        assert list(tiling.level2_tiles(parent)) == expected
        assert len(expected) == tiling.num_level2_tiles(parent) == 3 * 5 * 3

    def test_level2_tiles_visit_every_output_tile(self):
        tiling = TwoLevelTiling(GEMMShape(128, 128, 128), TileConfig(128, 128), TileConfig(64, 64))
        tiles = [tile2 for tile1 in tiling.level1_tiles() for tile2 in tiling.level2_tiles(tile1)]
        assert len(tiles) == 2 * 2 * 2
        covered = {(t.row_start, t.row_end, t.col_start, t.col_end) for t in tiles}
        assert covered == {(r, r + 64, c, c + 64) for r in (0, 64) for c in (0, 64)}

    def test_level2_must_not_exceed_level1(self):
        with pytest.raises(ValueError):
            TwoLevelTiling(GEMMShape(128, 128, 128), TileConfig(32, 32), TileConfig(64, 64))

    def test_tile_operand_bytes(self):
        tile = Tile(0, 64, 0, 32, 0, 16)
        a, b, c = tile.operand_bytes(8)
        assert a == 64 * 16 * 8
        assert b == 16 * 32 * 8
        assert c == 64 * 32 * 8

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 300), n=st.integers(1, 300), k=st.integers(1, 300),
        tile1=st.sampled_from([64, 128, 200]), tile2=st.sampled_from([16, 32, 64]),
    )
    def test_two_level_tiling_partitions_all_macs(self, m, n, k, tile1, tile2):
        """Every MAC of the GEMM is covered exactly once by the level-2 tiles."""
        if tile2 > tile1:
            tile1, tile2 = tile2, tile1
        shape = GEMMShape(m, n, k)
        tiling = TwoLevelTiling(shape, TileConfig(tile1, tile1), TileConfig(tile2, tile2))
        macs = sum(
            tile2_.macs
            for tile1_ in tiling.level1_tiles()
            for tile2_ in tiling.level2_tiles(tile1_)
        )
        assert macs == shape.macs


class TestReferenceKernels:
    def test_reference_gemm_matches_numpy(self, rng):
        a = rng.standard_normal((37, 53))
        b = rng.standard_normal((53, 29))
        c = rng.standard_normal((37, 29))
        np.testing.assert_allclose(reference_gemm(a, b, c), a @ b + c, rtol=1e-13)

    def test_reference_gemm_shape_check(self):
        with pytest.raises(ValueError):
            reference_gemm(np.zeros((4, 5)), np.zeros((6, 7)))

    def test_blocked_gemm_equals_reference(self, rng):
        a = rng.standard_normal((130, 70))
        b = rng.standard_normal((70, 90))
        c = rng.standard_normal((130, 90))
        blocked = blocked_gemm(a, b, c, TileConfig(64, 64), TileConfig(16, 16))
        np.testing.assert_allclose(blocked, a @ b + c, rtol=1e-10)

    def test_blocked_gemm_without_c(self, rng):
        a = rng.standard_normal((65, 65))
        b = rng.standard_normal((65, 65))
        np.testing.assert_allclose(
            blocked_gemm(a, b, None, TileConfig(32, 32), TileConfig(8, 8)), a @ b, rtol=1e-10
        )

    # The goldens run a 3x3 kernel at stride 2; these add the unpadded 1x1
    # and the even kernels, whose SAME padding puts its odd row after.
    @pytest.mark.parametrize("kernel, stride", [(1, 1), (2, 1), (3, 1), (4, 2)])
    def test_im2col_gemm_equals_direct_convolution(self, rng, kernel, stride):
        images = rng.standard_normal((2, 3, 7, 7))
        weights = rng.standard_normal((4, 3, kernel, kernel))
        patches = im2col_patches(images, kernel, stride)
        out = -(-7 // stride)  # SAME padding: ceil(input / stride)
        assert patches.shape == (2 * out * out, 3 * kernel * kernel)
        np.testing.assert_allclose(patches @ weights.reshape(4, -1).T,
                                   conv2d_reference(images, weights, stride), rtol=1e-12, atol=1e-12)

    def test_pointwise_convolution_mixes_channels_per_pixel(self, rng):
        images = rng.standard_normal((2, 3, 5, 5))
        weights = rng.standard_normal((4, 3, 1, 1))
        # Rows in (batch, y, x) order, one column per output channel.
        expected = np.einsum("bcyx,oc->byxo", images, weights[:, :, 0, 0]).reshape(-1, 4)
        np.testing.assert_allclose(conv2d_reference(images, weights, 1), expected, rtol=1e-12)
