"""Multi-node parallel execution: shard workload graphs across the mesh.

The design space the paper sweeps is multi-node, but a single request still
executed its GEMM phases on one node at a time.  This package partitions a
:class:`~repro.workloads.graph.WorkloadGraph` across a group of compute
nodes — 1-D tensor parallel (split GEMM free dimensions, exchange partials),
2-D SUMMA tensor parallel (``tp2d:RxC`` grids with pipelined, compute-
overlapped panel broadcasts), or pipeline parallel (assign phase blocks to
node stages, hand activations over) — with every collective priced on the
actual mesh through
:class:`~repro.parallel.collective.CollectiveCostModel` (X-Y routes, link
sharing, background groups, gather/broadcast asymmetry) rather than a flat
bandwidth constant.

Consumers: ``repro.cli parallel`` renders plans, ``repro.cli explore
--parallel`` evaluates design points under a sharding, and the serving
simulator (``repro.cli serve --parallel``) serves each request on a node
group so tenant latency reflects sharded execution plus the NoC contention
between co-scheduled groups.  See docs/PARALLELISM.md for derivations.
"""

from repro.parallel.collective import DEFAULT_GATHER_ASYMMETRY, CollectiveCostModel
from repro.parallel.partitioner import (
    PARALLELISM_STRATEGIES,
    ParallelPlan,
    ParallelismSpec,
    PhasePlan,
    StrategyInfo,
    node_groups,
    plan_parallel,
)
from repro.parallel.summa import (
    OVERHEAD_COMPONENT_SHARES,
    OverheadBreakdown,
    calibrate_overhead_factor,
    summa_grid,
    summa_pipeline_seconds,
    summa_steps,
)

__all__ = [
    "CollectiveCostModel",
    "DEFAULT_GATHER_ASYMMETRY",
    "OVERHEAD_COMPONENT_SHARES",
    "OverheadBreakdown",
    "PARALLELISM_STRATEGIES",
    "ParallelPlan",
    "ParallelismSpec",
    "PhasePlan",
    "StrategyInfo",
    "calibrate_overhead_factor",
    "node_groups",
    "plan_parallel",
    "summa_grid",
    "summa_pipeline_seconds",
    "summa_steps",
]
