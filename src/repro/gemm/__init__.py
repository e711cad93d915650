"""GEMM algorithms, tiling schemes, precisions and workload generators.

This package is the numerical substrate of the reproduction: it defines the
precisions the MMAE supports (FP64, 2-way FP32, 4-way FP16), the two-level
tiling used by the paper's evaluation (first-level <Tr, Tc> = <1024, 1024>,
second-level <ttr, ttc> = <64, 64>), reference GEMM implementations used to
validate the systolic-array model, and generators for the synthetic (HPL-like)
and deep-learning GEMM workloads the evaluation sweeps.
"""

from repro.gemm.precision import Precision
from repro.gemm.workloads import (
    GEMMShape,
    GEMMWorkload,
    paper_matrix_sizes,
    square_workload,
    sweep_square_sizes,
    random_workloads,
    hpl_like_workloads,
)
from repro.gemm.tiling import TileConfig, Tile, TwoLevelTiling, tile_classes, tile_ranges
from repro.gemm.reference import (
    reference_gemm,
    blocked_gemm,
    conv2d_reference,
    im2col_patches,
    tiled_gemm_trace,
)

__all__ = [
    "Precision",
    "GEMMShape",
    "GEMMWorkload",
    "paper_matrix_sizes",
    "square_workload",
    "sweep_square_sizes",
    "random_workloads",
    "hpl_like_workloads",
    "TileConfig",
    "Tile",
    "TwoLevelTiling",
    "tile_ranges",
    "tile_classes",
    "reference_gemm",
    "blocked_gemm",
    "conv2d_reference",
    "im2col_patches",
    "tiled_gemm_trace",
]
