"""Cached sweep execution for the paper's figure and sharding sweeps.

The paper's headline contribution is *exploration*: sweeping matrix sizes,
node counts and architectural knobs through the cycle-approximate model.
Each figure regeneration re-walks the same tile schedules; this module makes
that cheap:

* :class:`SweepRunner` evaluates the cells of a sweep (Fig. 6/7 points,
  parallelism plans) in order, in the calling process;
* every timing estimate goes through one memoizing
  :class:`~repro.core.perf.TimingCache` keyed on
  ``(config, shape, active_nodes, prediction, env)``, so repeated shapes
  across layers, workloads and reruns hit the cache instead of re-walking
  the tile schedule.

Design-space campaigns take their cache from a runner too
(:meth:`~repro.core.explorer.DesignSpaceExplorer.explore_graph`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.config import MACOConfig
from repro.core.perf import (
    DEFAULT_TIMING_CACHE,
    EfficiencyPoint,
    TimingCache,
    estimate_node_gemm_cached,
)
from repro.gemm.precision import Precision
from repro.gemm.workloads import GEMMShape

__all__ = ["SweepRunner"]


class SweepRunner:
    """Runs sweep cells in order, in this process, through one timing cache.

    ``cache`` defaults to the process-wide cache, so reruns are warm and hit
    statistics are observable.  ``jobs`` must be 1: every sweep runs in the
    calling process, and the keyword stays only for callers that still pass
    it.
    """

    def __init__(self, jobs: int = 1, cache: Optional[TimingCache] = None) -> None:
        if jobs != 1:
            raise ValueError(f"jobs must be 1 (sweeps run in one process), got {jobs}")
        self.cache = cache if cache is not None else DEFAULT_TIMING_CACHE

    def _efficiency_point(
        self,
        config: MACOConfig,
        size: int,
        active_nodes: int,
        prediction: bool,
        precision: Precision,
    ) -> EfficiencyPoint:
        timing = estimate_node_gemm_cached(
            config, GEMMShape(size, size, size, precision), active_nodes=active_nodes,
            prediction_enabled=prediction, cache=self.cache,
        )
        return EfficiencyPoint(
            matrix_size=size,
            active_nodes=active_nodes,
            prediction_enabled=prediction,
            efficiency=timing.efficiency,
            gflops=timing.achieved_gflops * active_nodes,
            seconds=timing.seconds,
        )

    def sweep_prediction(
        self,
        config: MACOConfig,
        sizes: Sequence[int],
        precision: Precision = Precision.FP64,
    ) -> List[EfficiencyPoint]:
        """The Fig. 6 sweep: single node, with and without predictive translation."""
        return [
            self._efficiency_point(config, size, 1, prediction, precision)
            for prediction in (False, True)
            for size in sizes
        ]

    def sweep_scalability(
        self,
        config: MACOConfig,
        sizes: Sequence[int],
        node_counts: Sequence[int],
        precision: Precision = Precision.FP64,
    ) -> List[EfficiencyPoint]:
        """The Fig. 7 sweep: independent GEMMs per node count, per-node efficiency."""
        return [
            self._efficiency_point(config, size, nodes, config.prediction_enabled, precision)
            for nodes in node_counts
            for size in sizes
        ]

    def sweep_parallelism(
        self,
        config: MACOConfig,
        graph,
        strategies: Sequence[str] = ("tp", "pp"),
        degrees: Sequence[int] = (1, 2, 4, 8),
        specs: Optional[Sequence] = None,
    ) -> List:
        """Plan every sharding of a graph.

        Without ``specs`` the grid is the (strategy, degree) cross product in
        row-major (strategy outer, degree inner) order.  ``specs`` — strings
        or :class:`~repro.parallel.ParallelismSpec` objects, e.g.
        ``["tp:4", "tp2d:2x4"]`` — replaces the cross product, which is how
        grid-shaped ``tp2d`` cells join a sweep.  Returns
        :class:`~repro.parallel.ParallelPlan` objects in input order; every
        timing walk goes through the runner's cache.
        """
        from repro.parallel import ParallelismSpec, plan_parallel

        if specs is None:
            specs = [
                ParallelismSpec(strategy, degree)
                for strategy in strategies
                for degree in degrees
            ]
        return [
            plan_parallel(graph, config, ParallelismSpec.parse(spec), cache=self.cache)
            for spec in specs
        ]
