"""2-D (SUMMA) schedule arithmetic: grid layout, pipeline overlap, overheads.

The ``tp2d:RxC`` strategy shards one GEMM ``C[M,N] += A[M,K] @ B[K,N]`` over
an R x C processor grid the SUMMA way: grid row ``r`` owns the A row-panel
``A[m_r, :]``, grid column ``c`` owns the B column-panel ``B[:, n_c]``, and
PE ``(r, c)`` owns — and never ships mid-compute — its C tile
``C[m_r, n_c]``.  The K dimension is walked in ``S = lcm(R, C)`` pipeline
steps; at each step the column holding the current A k-panel broadcasts it
along the grid rows while the row holding the current B k-panel broadcasts
it down the grid columns, and both broadcasts for step ``t + 1`` run under
the compute of step ``t``.

This module holds the pieces of that schedule that are pure arithmetic —
the grid-to-node layout, the pipelined-overlap closed form, and the
``overhead_factor`` decomposition calibrated against the functional
wavefront emulator — so :mod:`repro.parallel.partitioner` stays about
sharding and :mod:`repro.conformance` can pin the closed form as a golden
kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "OVERHEAD_COMPONENT_SHARES",
    "OverheadBreakdown",
    "calibrate_overhead_factor",
    "summa_grid",
    "summa_pipeline_seconds",
    "summa_steps",
]

#: How the measured compute overhead splits by cause, as fractions of the
#: overhead (not of the total).  The shares follow the csl-experiments SUMMA
#: instruction-level breakdown (loop control 34.5%, memory operations 25.9%,
#: pipeline stalls 16.0% of measured cycles), renormalised without their
#: task-switching share — each of our nodes runs a single resident kernel.
OVERHEAD_COMPONENT_SHARES: Tuple[Tuple[str, float], ...] = (
    ("loop_control", 0.452),
    ("memory_ops", 0.339),
    ("pipeline_stalls", 0.209),
)


def summa_grid(
    group: Sequence[int], rows: int, cols: int
) -> Tuple[List[Tuple[int, ...]], List[Tuple[int, ...]]]:
    """Map a node group onto an R x C grid; returns (grid rows, grid columns).

    Grid position ``(r, c)`` is ``group[r * cols + c]`` — row-major, the same
    convention :class:`~repro.noc.mesh.MeshTopology` uses for node ids, so a
    contiguous group keeps each grid row contiguous on the physical mesh.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"SUMMA grid dimensions must be >= 1, got {rows}x{cols}")
    if len(group) != rows * cols:
        raise ValueError(
            f"node group of {len(group)} cannot form a {rows}x{cols} grid "
            f"({rows * cols} positions)"
        )
    nodes = list(group)
    grid_rows = [tuple(nodes[r * cols : (r + 1) * cols]) for r in range(rows)]
    grid_cols = [tuple(nodes[c::cols]) for c in range(cols)]
    return grid_rows, grid_cols


def summa_steps(rows: int, cols: int) -> int:
    """Pipeline steps of the R x C SUMMA schedule: ``lcm(R, C)`` k-panels.

    The A panels are owned one-per-grid-column and the B panels
    one-per-grid-row; ``lcm`` is the coarsest K split on which both broadcast
    rotations line up.  A 1x1 grid degenerates to one step (and zero
    broadcasts).
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"SUMMA grid dimensions must be >= 1, got {rows}x{cols}")
    return math.lcm(rows, cols)


def summa_pipeline_seconds(
    compute_seconds: float, broadcast_seconds: float, steps: int
) -> float:
    """Wall-clock seconds of the K-step pipelined SUMMA schedule.

    With per-step compute ``c = compute / S`` and per-step broadcast
    ``b = broadcast / S``, the timeline is: the first broadcast is exposed
    (nothing to overlap it with), every later broadcast runs under the
    previous step's compute, and the last compute has no broadcast behind it:

    ``total = b + (S - 1) * max(c, b) + c  =  max(compute, broadcast) + min(compute, broadcast) / S``

    which is the ``max(compute, comm) + exposed_tail`` shape: the smaller of
    the two legs hides entirely under the larger except for its one exposed
    pipeline step (the prologue broadcast when compute dominates, the
    epilogue compute when communication does).  Always <= the serial
    ``compute + broadcast``, meeting the planner's overlap-can-only-help
    guarantee, and exactly ``compute`` when there is nothing to broadcast.
    """
    if steps < 1:
        raise ValueError(f"pipeline steps must be >= 1, got {steps}")
    if compute_seconds < 0 or broadcast_seconds < 0:
        raise ValueError("schedule legs cannot be negative")
    if broadcast_seconds == 0.0:
        return compute_seconds
    longer = max(compute_seconds, broadcast_seconds)
    shorter = min(compute_seconds, broadcast_seconds)
    return longer + shorter / steps


@dataclass(frozen=True)
class OverheadBreakdown:
    """Measured-over-ideal compute factor, decomposed by cause.

    ``factor`` is functional-path cycles over ideal MAC cycles for the
    calibration block; ``components`` maps each cause to its share of the
    *overhead* (``factor - 1``), following
    :data:`OVERHEAD_COMPONENT_SHARES`.  Purely a report field — the analytic
    timing model already embodies these overheads through its tile schedule,
    so the breakdown explains a plan's compute seconds without changing them.
    """

    factor: float
    components: Tuple[Tuple[str, float], ...] = OVERHEAD_COMPONENT_SHARES

    def component_factors(self) -> Dict[str, float]:
        """Each cause's absolute contribution to the factor (sums to factor - 1)."""
        overhead = self.factor - 1.0
        return {name: overhead * share for name, share in self.components}

    def to_dict(self) -> dict:
        return {"factor": self.factor, "components": self.component_factors()}


#: One calibration per array geometry per process — the emulator walk is
#: cheap but ``plan_parallel`` is called per sweep cell.
_OVERHEAD_CACHE: Dict[Tuple[int, int, int], OverheadBreakdown] = {}

#: A-panel depth of the calibration block: long enough that the measured
#: factor reflects steady streaming, short enough to stay instant.
_CALIBRATION_TR = 64


def calibrate_overhead_factor(
    rows: int, cols: int, tr: int = _CALIBRATION_TR
) -> OverheadBreakdown:
    """Measure the compute overhead factor on the functional wavefront path.

    Runs one ``tr x rows @ rows x cols`` stationary block through the
    vectorized systolic emulator — the functional fidelity with real cycle
    counters — and divides its measured cycles by the ideal
    ``MACs / (rows * cols)``.  The result is memoised per geometry, so the
    calibration happens once per process and every plan for the same array
    reports the same breakdown.
    """
    import numpy as np

    from repro.mmae.systolic_array import VectorizedSystolicArrayEmulator

    key = (rows, cols, tr)
    breakdown = _OVERHEAD_CACHE.get(key)
    if breakdown is None:
        emulator = VectorizedSystolicArrayEmulator(rows=rows, cols=cols)
        result = emulator.run_block(
            np.ones((tr, rows), dtype=np.float64),
            np.ones((rows, cols), dtype=np.float64),
        )
        ideal_cycles = result.macs / (rows * cols)
        breakdown = OverheadBreakdown(factor=result.cycles / ideal_cycles)
        _OVERHEAD_CACHE[key] = breakdown
    return breakdown
