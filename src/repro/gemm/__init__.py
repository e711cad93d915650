"""GEMM shapes, tiling schemes and precisions.

This package is the numerical substrate of the reproduction: it defines the
precisions the MMAE supports (FP64, 2-way FP32, 4-way FP16), the GEMM shape
and the matrix sizes the evaluation sweeps, and the two-level tiling used by
the paper's evaluation (first-level <Tr, Tc> = <1024, 1024>, second-level
<ttr, ttc> = <64, 64>).  The reference kernels that validate the
systolic-array model are oracles and live in
:mod:`repro.conformance.reference`; multi-GEMM workloads (the HPL ladder,
the DNN streams) live in :mod:`repro.workloads`.
"""

from repro.gemm.precision import Precision
from repro.gemm.workloads import GEMMShape, paper_matrix_sizes
from repro.gemm.tiling import TileConfig, Tile, TwoLevelTiling, tile_classes, tile_ranges

__all__ = [
    "Precision",
    "GEMMShape",
    "paper_matrix_sizes",
    "TileConfig",
    "Tile",
    "TwoLevelTiling",
    "tile_ranges",
    "tile_classes",
]
