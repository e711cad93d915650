"""GEMM shapes, tiling schemes, precisions and reference kernels.

This package is the numerical substrate of the reproduction: it defines the
precisions the MMAE supports (FP64, 2-way FP32, 4-way FP16), the GEMM shape
and the matrix sizes the evaluation sweeps, the two-level tiling used by the
paper's evaluation (first-level <Tr, Tc> = <1024, 1024>, second-level
<ttr, ttc> = <64, 64>), and reference GEMM implementations used to validate
the systolic-array model.  Multi-GEMM workloads (the HPL ladder, the DNN
streams) live in :mod:`repro.workloads`.
"""

from repro.gemm.precision import Precision
from repro.gemm.workloads import GEMMShape, paper_matrix_sizes
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
    "paper_matrix_sizes",
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
