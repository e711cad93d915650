"""The 4x4 systolic array of the MMAE: functional and cycle models.

Two levels of fidelity are provided:

* :class:`SystolicArray` — the model used by the MMAE controller: it computes
  tile GEMMs numerically with NumPy in the selected precision (so functional
  results are exact for the datapath width) and returns a cycle count from the
  input-stationary schedule;
* :class:`VectorizedSystolicArrayEmulator` — a cycle-stepped emulation of the
  wavefront, used to validate that the dataflow the cycle formula assumes
  actually produces the right answer and finishes in the predicted number of
  cycles.  Its PE-by-PE reference lives in
  :mod:`repro.conformance.functional_oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.gemm.precision import Precision


@dataclass
class TileComputeResult:
    """Result of running one tile GEMM on the array."""

    output: np.ndarray
    cycles: int
    macs: int

    @property
    def macs_per_cycle(self) -> float:
        return self.macs / self.cycles if self.cycles else 0.0


class SystolicArray:
    """An ``rows x cols`` input-stationary systolic array (paper Fig. 1 / Fig. 2(b)).

    The stationary operand is the B sub-matrix.  In FP32 mode each PE packs two
    lanes and in FP16 mode four lanes (Fig. 2(c)/(d)), which multiplies the
    effective number of B columns the array holds per pass.
    """

    def __init__(self, rows: int = 4, cols: int = 4, frequency_hz: float = 2.5e9) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("array dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.frequency_hz = frequency_hz
        self.total_macs = 0
        self.total_cycles = 0
        # tile_cycles is pure in (tr, tc, tk, precision) but the controller
        # asks it for thousands of identically-shaped tiles per GEMM, so the
        # ceil arithmetic is memoized per array instance.
        self._tile_cycles_cache: Dict[Tuple[int, int, int, Precision], int] = {}

    # ------------------------------------------------------------------- rates
    def macs_per_cycle(self, precision: Precision = Precision.FP64) -> int:
        """MAC operations the array completes per cycle in the given mode."""
        return self.rows * self.cols * precision.simd_ways

    def peak_gflops(self, precision: Precision = Precision.FP64) -> float:
        """Theoretical peak (2 ops per MAC) in GFLOPS."""
        return 2.0 * self.macs_per_cycle(precision) * self.frequency_hz / 1e9

    # ------------------------------------------------------------------ timing
    def tile_cycles(self, tr: int, tc: int, tk: int, precision: Precision = Precision.FP64) -> int:
        """Cycles to compute a (tr x tk) @ (tk x tc) tile GEMM.

        The B tile is loaded block-by-block (``rows x cols*lanes`` stationary
        blocks); for each stationary block the A rows stream through for ``tr``
        cycles.  Weight loading of the next block is double-buffered behind the
        current block's streaming, so only the first fill and the final drain
        of the ``rows + cols`` deep wavefront are exposed.
        """
        key = (tr, tc, tk, precision)
        cycles = self._tile_cycles_cache.get(key)
        if cycles is not None:
            return cycles
        if tr <= 0 or tc <= 0 or tk <= 0:
            raise ValueError("tile dimensions must be positive")
        lanes = precision.simd_ways
        stationary_blocks = math.ceil(tk / self.rows) * math.ceil(tc / (self.cols * lanes))
        streaming_cycles = stationary_blocks * tr
        fill_drain = self.rows + self.cols
        cycles = streaming_cycles + fill_drain
        self._tile_cycles_cache[key] = cycles
        return cycles

    def ideal_tile_cycles(self, tr: int, tc: int, tk: int, precision: Precision = Precision.FP64) -> float:
        """Lower bound: MACs divided by the array's MAC rate."""
        return tr * tc * tk / self.macs_per_cycle(precision)

    def tile_utilization(self, tr: int, tc: int, tk: int, precision: Precision = Precision.FP64) -> float:
        """Fraction of peak the array sustains on one tile (<= 1)."""
        return self.ideal_tile_cycles(tr, tc, tk, precision) / self.tile_cycles(tr, tc, tk, precision)

    # --------------------------------------------------------------- functional
    def compute_tile(
        self,
        a_tile: np.ndarray,
        b_tile: np.ndarray,
        c_tile: np.ndarray,
        precision: Precision = Precision.FP64,
    ) -> TileComputeResult:
        """Compute ``C += A @ B`` for one tile on the datapath, writing ``c_tile`` in place.

        ``a_tile`` and ``b_tile`` must already be in the mode's datapath form
        (:func:`datapath_operand`: rounded to the storage precision, held in
        the accumulator precision), which reproduces the numerical behaviour
        of the FP16x4 mode (FP16 operands, FP32 accumulation).  ``c_tile`` is
        an accumulator-precision array, the caller's accumulator or a view of
        it; the product is added into it and it is returned as ``output``.  ``c_tile += A @ B`` rounds exactly like ``A @ B + C``
        because IEEE addition commutes.  Operands of any other dtype are
        rejected rather than cast, so the tile never lands in a copy the
        caller cannot see; a caller that must keep its C passes a copy.
        """
        if a_tile.ndim != 2 or b_tile.ndim != 2:
            raise ValueError("tiles must be 2-D")
        tr, tk = a_tile.shape
        tc = b_tile.shape[1]
        if tk != b_tile.shape[0]:
            raise ValueError(f"tile shapes do not agree: {a_tile.shape} @ {b_tile.shape}")
        if c_tile.shape != (tr, tc):
            raise ValueError(f"C tile shape {c_tile.shape} does not match {(tr, tc)}")
        acc_dtype = precision.accumulate_dtype
        if a_tile.dtype != acc_dtype or b_tile.dtype != acc_dtype or c_tile.dtype != acc_dtype:
            raise ValueError(
                f"{precision.name} tiles must be {acc_dtype} datapath operands, got "
                f"{a_tile.dtype}, {b_tile.dtype} and {c_tile.dtype}"
            )
        c_tile += a_tile @ b_tile
        cycles = self.tile_cycles(tr, tc, tk, precision)
        macs = tr * tc * tk
        self.total_macs += macs
        self.total_cycles += cycles
        return TileComputeResult(output=c_tile, cycles=cycles, macs=macs)


def datapath_operand(matrix: np.ndarray, precision: Precision) -> np.ndarray:
    """``matrix`` as the array's datapath reads it in ``precision``'s mode.

    The values are rounded to the mode's storage precision and held in its
    accumulator precision (FP16 operands widen to FP32).  The cast is
    elementwise, so any block of the result equals the cast of that block;
    a matrix already in this form is returned as is, not copied.
    """
    return matrix.astype(precision.dtype, copy=False).astype(
        precision.accumulate_dtype, copy=False)


class VectorizedSystolicArrayEmulator:
    """NumPy wavefront emulator: the whole array advances one cycle per step.

    A elements enter from the west edge skewed by row, partial sums propagate
    south, and results exit the south edge skewed by column, which validates
    the ``rows + cols + tr - 2``-cycle latency the analytical model assumes for
    a single stationary block.  Each cycle the skewed A injections enter as
    one vector, every PE's multiply-accumulate happens as one elementwise
    ``partial + a * w``, and the south-edge drain is collected with one
    fancy-indexed store, so the per-cycle cost is O(1) NumPy calls.

    Outputs, cycle counts and the aggregate MAC count are bit-identical to the
    PE-by-PE emulator of :mod:`repro.conformance.functional_oracle`: the
    elementwise operations are the same IEEE multiplies and adds, applied to
    the same operands in the same cycle order (the parity tests assert
    ``array_equal``, not closeness).
    """

    def __init__(self, rows: int = 4, cols: int = 4, precision: Precision = Precision.FP64) -> None:
        self.rows = rows
        self.cols = cols
        self.precision = precision
        self.macs_performed = 0

    def run_block(self, a_block: np.ndarray, b_block: np.ndarray) -> TileComputeResult:
        """Run one stationary block: ``a_block (tr x rows) @ b_block (rows x cols)``.

        The B block must match the array dimensions exactly (one stationary
        element per PE, single-lane mode).
        """
        if self.precision.simd_ways != 1:
            raise NotImplementedError("the emulator models the single-lane (FP64) dataflow")
        rows, cols = self.rows, self.cols
        tr, depth = a_block.shape
        if depth != rows or b_block.shape != (rows, cols):
            raise ValueError(
                f"expected A (tr x {rows}) and B ({rows} x {cols}), "
                f"got {a_block.shape} and {b_block.shape}"
            )
        acc_dtype = self.precision.accumulate_dtype
        # Stationary operands, cast through the input precision.
        weights = b_block.astype(self.precision.dtype).astype(acc_dtype)
        a_cast = np.asarray(a_block, dtype=acc_dtype)

        output = np.zeros((tr, cols), dtype=acc_dtype)
        total_cycles = rows + cols + tr - 2
        partial = np.zeros((rows + 1, cols), dtype=acc_dtype)
        a_in_flight = np.zeros((rows, cols + 1), dtype=acc_dtype)
        row_index = np.arange(rows)
        col_index = np.arange(cols)
        a_arriving = np.empty((rows, cols), dtype=acc_dtype)
        for cycle in range(total_cycles):
            # Skewed injection: row r consumes A[cycle - r, r] this cycle.
            inject_index = cycle - row_index
            inject_valid = (inject_index >= 0) & (inject_index < tr)
            inject = np.zeros(rows, dtype=acc_dtype)
            inject[inject_valid] = a_cast[inject_index[inject_valid], row_index[inject_valid]]
            # Column 0 consumes this cycle's injection; columns 1.. consume the
            # values that travelled from their west neighbour.
            a_arriving[:, 0] = inject
            a_arriving[:, 1:] = a_in_flight[:, 1:cols]
            # One MAC per PE: partial sums advance one row south.
            new_partial = np.empty_like(partial)
            new_partial[0, :] = 0.0
            new_partial[1:, :] = partial[:rows, :] + a_arriving * weights
            partial = new_partial
            # A values advance one column east.
            a_in_flight[:, 1:] = a_arriving
            self.macs_performed += rows * cols
            # Collect results leaving the south edge (skewed by column).
            out_index = cycle - (rows - 1) - col_index
            out_valid = (out_index >= 0) & (out_index < tr)
            output[out_index[out_valid], col_index[out_valid]] = partial[rows, out_valid]
        return TileComputeResult(output=output, cycles=total_cycles, macs=tr * rows * cols)
