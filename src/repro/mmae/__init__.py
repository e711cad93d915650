"""The Matrix Multiplication Acceleration Engine (MMAE).

Each MACO compute node pairs its CPU core with one MMAE (paper Section III.A,
Fig. 2).  The MMAE contains:

* a 4x4 systolic array with the classical input-stationary dataflow, extended
  with SIMD-like 2-way FP32 and 4-way FP16 compute modes;
* 192 KB of A/B/C scratchpad buffers;
* an Accelerator Data Engine (ADE) with two DMA engines that move tiles
  between the L3 system cache and the buffers;
* an Accelerator Controller (AC) that receives task configurations from the
  CPU (via MA_CFG) and schedules the array, the ADE and the DMA engines;
* a Slave Task Queue (STQ) mirroring the CPU-side MTQ entries; and
* the mATLB, which performs predictive address translation ahead of the DMA
  streams (paper Section IV.A).
"""

from repro.mmae.systolic_array import (
    SystolicArray,
    TileComputeResult,
    VectorizedSystolicArrayEmulator,
)
from repro.mmae.buffers import ScratchpadBuffer, BufferSet, BufferAllocationError
from repro.mmae.dma import DMAEngine, DMATransferResult
from repro.mmae.matlb import MATLB, TranslationStallEstimate, PageTablePredictor
from repro.mmae.stq import SlaveTaskQueue, STQEntry, STQEntryState
from repro.mmae.data_engine import AcceleratorDataEngine, TileTransferPlan
from repro.mmae.dataflow import (
    MMAETimingParameters,
    TileSchedule,
    GEMMTimingBreakdown,
    build_tile_schedule,
    estimate_gemm_timing,
)
from repro.mmae.controller import AcceleratorController, TaskResult

__all__ = [
    "SystolicArray",
    "VectorizedSystolicArrayEmulator",
    "TileComputeResult",
    "ScratchpadBuffer",
    "BufferSet",
    "BufferAllocationError",
    "DMAEngine",
    "DMATransferResult",
    "MATLB",
    "TranslationStallEstimate",
    "PageTablePredictor",
    "SlaveTaskQueue",
    "STQEntry",
    "STQEntryState",
    "AcceleratorDataEngine",
    "TileTransferPlan",
    "MMAETimingParameters",
    "TileSchedule",
    "GEMMTimingBreakdown",
    "build_tile_schedule",
    "estimate_gemm_timing",
    "AcceleratorController",
    "TaskResult",
]
