"""Parallel, cached sweep execution for exploration campaigns.

The paper's headline contribution is *exploration*: sweeping matrix sizes,
node counts and architectural knobs through the cycle-approximate model.  A
campaign evaluates hundreds to thousands of design points, and each figure
regeneration re-walks the same tile schedules; this module makes both cheap:

* :class:`SweepRunner` fans the independent evaluations of a sweep (design
  points, figure sweep cells, baseline x workload pairs) out over a
  ``multiprocessing`` pool (``jobs`` workers, default ``os.cpu_count()``) and
  falls back to a serial loop for ``jobs=1``;
* every timing estimate goes through a memoizing
  :class:`~repro.core.perf.TimingCache` keyed on
  ``(config-fingerprint, shape, active_nodes, prediction, env)``, so repeated
  shapes across layers, workloads and reruns hit the cache instead of
  re-walking the tile schedule.

Both paths are deterministic and produce bit-identical results: the parallel
pool preserves task order and the workers run exactly the serial code.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.config import MACOConfig
from repro.core.metrics import WorkloadResult
from repro.core.perf import (
    DEFAULT_TIMING_CACHE,
    EfficiencyPoint,
    TimingCache,
    estimate_node_gemm_cached,
)
from repro.gemm.precision import Precision
from repro.gemm.workloads import GEMMShape
from repro.workloads.graph import WorkloadGraph

__all__ = ["SweepRunner"]


# --------------------------------------------------------------------- workers
#
# Pool workers must be importable module-level functions.  Each receives a
# ``(task, cache)`` payload: the serial path threads the runner's cache
# through so hit statistics are observable; the parallel path passes ``None``
# and each worker process uses the snapshot of the runner's cache installed
# by the pool initializer (falling back to the process-local default cache).
# Entries computed inside workers die with the pool — warm a cache with a
# serial (``jobs=1``) run if you need it populated.

#: Per-worker-process cache installed by :func:`_seed_worker_cache`.
_WORKER_CACHE: Optional[TimingCache] = None


def _seed_worker_cache(cache: Optional[TimingCache]) -> None:
    """Pool initializer: give this worker a snapshot of the runner's cache.

    This keeps parallel sweeps warm regardless of the multiprocessing start
    method (``fork`` inherits parent memory anyway; ``spawn`` would otherwise
    start every worker cold).  The snapshot also becomes this worker's
    process-wide default cache so code that does not take a cache parameter
    (``MACOSystem.run_workload`` and the baselines, used by
    :meth:`SweepRunner.run_workloads`) starts warm too.
    """
    global _WORKER_CACHE
    _WORKER_CACHE = cache
    if cache is not None:
        from repro.core import perf

        perf.DEFAULT_TIMING_CACHE = cache


def _task_cache(cache: Optional[TimingCache]) -> Optional[TimingCache]:
    return cache if cache is not None else _WORKER_CACHE


def _efficiency_worker(payload) -> EfficiencyPoint:
    (config, size, active_nodes, prediction, precision), cache = payload
    shape = GEMMShape(size, size, size, precision)
    timing = estimate_node_gemm_cached(
        config, shape, active_nodes=active_nodes,
        prediction_enabled=prediction, cache=_task_cache(cache),
    )
    return EfficiencyPoint(
        matrix_size=size,
        active_nodes=active_nodes,
        prediction_enabled=prediction,
        efficiency=timing.efficiency,
        gflops=timing.achieved_gflops * active_nodes,
        seconds=timing.seconds,
    )


def _evaluate_graph_worker(payload):
    (base_config, point, graph, parallelism), cache = payload
    from repro.core.explorer import DesignSpaceExplorer

    return DesignSpaceExplorer(base_config).evaluate_graph(
        point, graph, cache=_task_cache(cache), parallelism=parallelism)


def _parallel_plan_worker(payload):
    """Pool worker: shard one graph under one parallelism spec."""
    (config, graph, spec), cache = payload
    from repro.parallel import plan_parallel

    return plan_parallel(graph, config, spec, cache=_task_cache(cache))


def _workload_worker(payload) -> WorkloadResult:
    (system_cls, config, workload, num_nodes), _cache = payload
    return system_cls(config).run_workload(workload, num_nodes=num_nodes)


class SweepRunner:
    """Runs sweep evaluations over a worker pool, backed by a timing cache.

    ``jobs`` is the worker-process count (default ``os.cpu_count()``); with
    ``jobs=1`` everything runs serially in-process through ``cache`` (default:
    the process-wide cache), which keeps single-shot library calls free of
    pool overhead while still memoizing repeated shapes.

    Cache semantics: serial runs read and populate ``cache`` directly, so hit
    statistics are observable and reruns are warm.  Parallel runs seed every
    worker with a snapshot of ``cache`` (so a serially warmed cache speeds the
    pool up on any start method), but entries computed inside workers are not
    merged back into the parent.
    """

    def __init__(self, jobs: Optional[int] = None, cache: Optional[TimingCache] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.cache = cache if cache is not None else DEFAULT_TIMING_CACHE

    # ------------------------------------------------------------------ fan-out
    def map(self, worker, tasks: Iterable) -> List:
        """Run ``worker`` over ``tasks``, preserving order.

        Serial when ``jobs == 1`` (or for a single task, where a pool could
        only add overhead); otherwise fans out over a ``multiprocessing`` pool.
        """
        tasks = list(tasks)
        if self.jobs <= 1 or len(tasks) <= 1:
            return [worker((task, self.cache)) for task in tasks]
        processes = min(self.jobs, len(tasks))
        payloads = [(task, None) for task in tasks]
        chunksize = max(1, len(payloads) // (processes * 4))
        with multiprocessing.get_context().Pool(
            processes=processes,
            initializer=_seed_worker_cache,
            initargs=(self.cache,),
        ) as pool:
            return pool.map(worker, payloads, chunksize=chunksize)

    # ------------------------------------------------------------------- sweeps
    def sweep_prediction(
        self,
        config: MACOConfig,
        sizes: Sequence[int],
        precision: Precision = Precision.FP64,
    ) -> List[EfficiencyPoint]:
        """The Fig. 6 sweep: single node, with and without predictive translation."""
        tasks = [
            (config, size, 1, prediction, precision)
            for prediction in (False, True)
            for size in sizes
        ]
        return self.map(_efficiency_worker, tasks)

    def sweep_scalability(
        self,
        config: MACOConfig,
        sizes: Sequence[int],
        node_counts: Sequence[int],
        precision: Precision = Precision.FP64,
    ) -> List[EfficiencyPoint]:
        """The Fig. 7 sweep: independent GEMMs per node count, per-node efficiency."""
        tasks = [
            (config, size, nodes, config.prediction_enabled, precision)
            for nodes in node_counts
            for size in sizes
        ]
        return self.map(_efficiency_worker, tasks)

    def evaluate_points_on_graph(
        self,
        points: Iterable,
        graph,
        base_config: Optional[MACOConfig] = None,
        parallelism: Optional[str] = None,
    ) -> List:
        """Per-phase evaluation of every design point on a workload graph.

        Returns :class:`~repro.core.explorer.GraphEvaluationResult` objects in
        input order; each phase's distinct shapes are timed once per point and
        scaled by the phase repeat count, so decode-heavy LLM graphs stay
        cheap to sweep.  ``parallelism`` (``"tp:4"``-style) shards the graph
        across a node group at every point instead of the default whole-fleet
        GEMM partitioning.
        """
        tasks = [(base_config, point, graph, parallelism) for point in points]
        return self.map(_evaluate_graph_worker, tasks)

    def sweep_parallelism(
        self,
        config: MACOConfig,
        graph,
        strategies: Sequence[str] = ("tp", "pp"),
        degrees: Sequence[int] = (1, 2, 4, 8),
        specs: Optional[Sequence] = None,
    ) -> List:
        """Plan every sharding of a graph, fanned out over the pool.

        Without ``specs`` the grid is the (strategy, degree) cross product in
        row-major (strategy outer, degree inner) order.  ``specs`` — strings
        or :class:`~repro.parallel.ParallelismSpec` objects, e.g.
        ``["tp:4", "tp2d:2x4"]`` — replaces the cross product, which is how
        grid-shaped ``tp2d`` cells join a sweep.  Returns
        :class:`~repro.parallel.ParallelPlan` objects in input order.  Plans
        are pure functions of their inputs and every timing walk goes through
        the cache, so the serial and pooled paths are bit-identical
        (``repro.cli parallel --jobs`` relies on this).
        """
        from repro.parallel import ParallelismSpec

        if specs is None:
            specs = [
                ParallelismSpec(strategy, degree)
                for strategy in strategies
                for degree in degrees
            ]
        tasks = [(config, graph, str(ParallelismSpec.parse(spec))) for spec in specs]
        return self.map(_parallel_plan_worker, tasks)

    def run_workloads(
        self,
        systems: Sequence,
        workloads: Sequence[WorkloadGraph],
        num_nodes: Optional[int] = None,
    ) -> List[WorkloadResult]:
        """Run every workload on every system (row-major: systems outer).

        ``systems`` entries are either ``(cls, config)`` pairs or instances
        exposing ``.config`` (baseline models, :class:`MACOSystem`); workers
        rebuild the system from its class and configuration, so only the
        (frozen, picklable) configuration crosses the process boundary.

        Unlike the sweep methods, the systems' ``run_workload`` internals do
        not take a cache parameter: they always use the process-wide default
        cache (``repro.core.perf.DEFAULT_TIMING_CACHE``), which the pool
        initializer points at the runner's cache snapshot inside workers.  A
        custom ``cache`` therefore only collects hit statistics here when it
        is also installed as the process default.
        """
        specs: List[Tuple[type, MACOConfig]] = []
        for system in systems:
            if isinstance(system, tuple):
                specs.append(system)
            else:
                specs.append((type(system), system.config))
        tasks = [
            (cls, config, workload, num_nodes)
            for cls, config in specs
            for workload in workloads
        ]
        return self.map(_workload_worker, tasks)
