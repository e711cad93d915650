"""Design-space exploration utilities.

The paper's title is about *exploring* GEMM acceleration on a loosely-coupled
multi-core processor; this module provides the exploration loop a computer
architect would run on top of the reproduction: sweep architectural knobs
(systolic-array geometry, scratchpad capacity, node count, DMA/NoC provisioning,
clock frequencies), evaluate each candidate on a workload with the same
cycle-approximate model used by the paper's figures, and rank the candidates by
throughput, efficiency, or performance per area/watt.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.config import MACOConfig, maco_default_config
from repro.core.mapping import in_order_sum, layer_stream_seconds
from repro.core.perf import TimingCache, estimate_node_gemm_cached, memory_environment
from repro.gemm.precision import Precision
from repro.gemm.tiling import TileConfig
from repro.gemm.workloads import GEMMShape
from repro.mmae.buffers import BufferAllocationError, BufferSet
from repro.workloads.graph import WorkloadGraph

if TYPE_CHECKING:
    from repro.core.batch import SweepRunner


@dataclass(frozen=True)
class DesignPoint:
    """One candidate configuration in the exploration space."""

    name: str
    sa_rows: int = 4
    sa_cols: int = 4
    buffer_kb: int = 64              # per A/B/C buffer
    num_nodes: int = 16
    mmae_frequency_ghz: float = 2.5
    dma_engines: int = 2
    prediction_enabled: bool = True

    def __post_init__(self) -> None:
        if self.sa_rows <= 0 or self.sa_cols <= 0:
            raise ValueError("systolic array dimensions must be positive")
        if self.buffer_kb <= 0 or self.num_nodes <= 0 or self.dma_engines <= 0:
            raise ValueError("buffer size, node count and DMA engines must be positive")
        if self.mmae_frequency_ghz <= 0:
            raise ValueError("frequency must be positive")

    def to_config(self, base: Optional[MACOConfig] = None) -> MACOConfig:
        """Materialise this design point as a full MACO configuration."""
        base = base if base is not None else maco_default_config()
        mmae = replace(
            base.mmae,
            sa_rows=self.sa_rows,
            sa_cols=self.sa_cols,
            a_buffer_bytes=self.buffer_kb * 1024,
            b_buffer_bytes=self.buffer_kb * 1024,
            c_buffer_bytes=self.buffer_kb * 1024,
            frequency_hz=self.mmae_frequency_ghz * 1e9,
            dma_engines=self.dma_engines,
            # First-order area/power scaling: the array grows with the PE count,
            # the buffers with their capacity; the controller/ADE stay fixed.
            area_mm2=base.mmae.area_mm2
            * (0.40 + 0.247 * (self.sa_rows * self.sa_cols) / 16.0 + 0.367 * self.buffer_kb / 64.0),
            power_w=base.mmae.power_w
            * (0.40 + 0.35 * (self.sa_rows * self.sa_cols) / 16.0 + 0.25 * self.buffer_kb / 64.0),
        )
        # The software tiling follows the hardware: the second-level tile is the
        # largest square block the (double-buffered) scratchpads can hold, so a
        # larger buffer buys more on-chip reuse and lower DMA demand.
        buffers = BufferSet(
            a_capacity=mmae.a_buffer_bytes,
            b_capacity=mmae.b_buffer_bytes,
            c_capacity=mmae.c_buffer_bytes,
        )
        fitted = buffers.max_tile_dim(Precision.FP64, double_buffered=True)
        # Prefer at least the systolic-array-friendly 8x8 block, but never a
        # tile the scratchpads cannot actually hold: validate the clamped tile
        # and shrink back to the fitted dimension rather than silently
        # modelling an impossible schedule.
        tile_dim = max(8, fitted)
        try:
            buffers.check_tile_fits(tile_dim, tile_dim, tile_dim, Precision.FP64, double_buffered=True)
        except BufferAllocationError:
            tile_dim = fitted
            try:
                buffers.check_tile_fits(tile_dim, tile_dim, tile_dim, Precision.FP64, double_buffered=True)
            except BufferAllocationError as exc:
                raise ValueError(
                    f"design point {self.name!r}: buffer_kb={self.buffer_kb} cannot hold "
                    f"even a {tile_dim}x{tile_dim} double-buffered FP64 tile"
                ) from exc
        level2 = TileConfig(tile_dim, tile_dim)
        level1 = TileConfig(max(base.level1_tile.rows, tile_dim), max(base.level1_tile.cols, tile_dim))
        return replace(
            base,
            num_nodes=self.num_nodes,
            mmae=mmae,
            level1_tile=level1,
            level2_tile=level2,
            prediction_enabled=self.prediction_enabled,
        )


@dataclass
class EvaluationResult:
    """Outcome of evaluating one design point on a workload."""

    point: DesignPoint
    config: MACOConfig
    seconds: float
    gflops: float
    efficiency: float
    node_area_mm2: float
    node_power_w: float

    @property
    def gflops_per_mm2(self) -> float:
        """Throughput per compute-node area (CPU core + MMAE)."""
        return self.gflops / (self.node_area_mm2 * self.config.num_nodes)

    @property
    def gflops_per_watt(self) -> float:
        """Throughput per compute-node power (CPU core + MMAE)."""
        return self.gflops / (self.node_power_w * self.config.num_nodes)


@dataclass
class PhaseResult:
    """Timing of one workload phase under one design point.

    ``compute_seconds``/``comm_seconds`` split the phase time when the graph
    was evaluated under a parallelism spec; without one the phase is all
    compute and ``comm_seconds`` stays 0.  ``comm_overlapped_seconds`` is the
    slice of ``comm_seconds`` the plan's schedule hid under compute (only
    ``tp2d`` overlaps today), so ``seconds`` pays just the exposed part.
    """

    name: str
    kind: str
    step: int
    repeat: int
    seconds: float
    gflops: float
    efficiency: float
    state_bytes: int
    compute_seconds: float = 0.0
    comm_seconds: float = 0.0
    comm_overlapped_seconds: float = 0.0

    @property
    def comm_exposed_seconds(self) -> float:
        """Communication left on the phase's critical path after overlap."""
        return self.comm_seconds - self.comm_overlapped_seconds


@dataclass
class GraphEvaluationResult:
    """Per-phase and aggregate outcome of one design point on a workload graph.

    ``parallelism`` records the sharding spec (e.g. ``"tp:4"``) the graph was
    evaluated under, or ``None`` for the default whole-fleet partitioning.
    """

    aggregate: EvaluationResult
    phases: List[PhaseResult] = field(default_factory=list)
    parallelism: Optional[str] = None

    @property
    def point(self) -> DesignPoint:
        return self.aggregate.point

    @property
    def bottleneck(self) -> PhaseResult:
        """The phase that dominates the graph's runtime."""
        return max(self.phases, key=lambda phase: phase.seconds)


class DesignSpaceExplorer:
    """Evaluates and ranks design points on a GEMM workload."""

    def __init__(self, base_config: Optional[MACOConfig] = None) -> None:
        self.base_config = base_config if base_config is not None else maco_default_config()

    # ------------------------------------------------------------------ sweeping
    @staticmethod
    def grid(
        sa_dims: Sequence[int] = (2, 4, 8),
        buffer_kbs: Sequence[int] = (32, 64, 128),
        node_counts: Sequence[int] = (4, 8, 16),
        prediction: Sequence[bool] = (True,),
    ) -> List[DesignPoint]:
        """A full-factorial grid of design points over the main knobs."""
        points = []
        for dim, buffer_kb, nodes, pred in itertools.product(sa_dims, buffer_kbs, node_counts, prediction):
            points.append(
                DesignPoint(
                    name=f"sa{dim}x{dim}-buf{buffer_kb}k-n{nodes}{'' if pred else '-nopred'}",
                    sa_rows=dim, sa_cols=dim, buffer_kb=buffer_kb, num_nodes=nodes,
                    prediction_enabled=pred,
                )
            )
        return points

    @staticmethod
    def random_sample(
        count: int,
        sa_dims: Sequence[int] = (2, 4, 8, 16),
        buffer_kbs: Sequence[int] = (16, 32, 64, 128, 256),
        node_counts: Sequence[int] = (1, 2, 4, 8, 16),
        prediction: Sequence[bool] = (True,),
        seed: Optional[int] = None,
    ) -> List[DesignPoint]:
        """``count`` design points sampled uniformly at random from the knobs.

        A full-factorial grid over realistic knob ranges has thousands of
        cells; uniform sampling makes such spaces tractable while remaining
        unbiased.  Deterministic for a given ``seed``.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        rng = random.Random(seed)
        points = []
        for index in range(count):
            dim = rng.choice(list(sa_dims))
            buffer_kb = rng.choice(list(buffer_kbs))
            nodes = rng.choice(list(node_counts))
            pred = rng.choice(list(prediction))
            points.append(
                DesignPoint(
                    name=f"rnd{index:04d}-sa{dim}x{dim}-buf{buffer_kb}k-n{nodes}"
                         f"{'' if pred else '-nopred'}",
                    sa_rows=dim, sa_cols=dim, buffer_kb=buffer_kb, num_nodes=nodes,
                    prediction_enabled=pred,
                )
            )
        return points

    @staticmethod
    def latin_hypercube(
        count: int,
        sa_dims: Sequence[int] = (2, 4, 8, 16),
        buffer_kbs: Sequence[int] = (16, 32, 64, 128, 256),
        node_counts: Sequence[int] = (1, 2, 4, 8, 16),
        prediction: Sequence[bool] = (True,),
        seed: Optional[int] = None,
    ) -> List[DesignPoint]:
        """``count`` design points by Latin-hypercube sampling over the knobs.

        Each knob's range is split into ``count`` strata and every stratum is
        used exactly once (via an independent shuffle per knob), so the sample
        covers each dimension far more evenly than uniform sampling at the
        same budget.  Deterministic for a given ``seed``.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        rng = random.Random(seed)
        columns = []
        for choices in (list(sa_dims), list(buffer_kbs), list(node_counts), list(prediction)):
            strata = [(stratum + rng.random()) / count for stratum in range(count)]
            rng.shuffle(strata)
            columns.append(
                [choices[min(int(u * len(choices)), len(choices) - 1)] for u in strata]
            )
        points = []
        for index, (dim, buffer_kb, nodes, pred) in enumerate(zip(*columns)):
            points.append(
                DesignPoint(
                    name=f"lhs{index:04d}-sa{dim}x{dim}-buf{buffer_kb}k-n{nodes}"
                         f"{'' if pred else '-nopred'}",
                    sa_rows=dim, sa_cols=dim, buffer_kb=buffer_kb, num_nodes=nodes,
                    prediction_enabled=pred,
                )
            )
        return points

    @classmethod
    def sample(
        cls,
        method: str,
        count: int = 32,
        seed: Optional[int] = None,
        **knobs,
    ) -> List[DesignPoint]:
        """Dispatch to a sampling generator by name (``grid``/``random``/``lhs``).

        ``count`` and ``seed`` parameterise the random and Latin-hypercube
        samplers; the full-factorial ``grid`` ignores both (its size is the
        product of the knob domains).
        """
        if method == "grid":
            return cls.grid(**knobs)
        if method == "random":
            return cls.random_sample(count, seed=seed, **knobs)
        if method in ("lhs", "latin-hypercube"):
            return cls.latin_hypercube(count, seed=seed, **knobs)
        raise ValueError(f"unknown sampling method {method!r}; options: grid, random, lhs")

    # ---------------------------------------------------------------- evaluation
    @staticmethod
    def _efficiency(
        config: MACOConfig,
        shapes: Sequence[GEMMShape],
        gflops: float,
        total_seconds: float,
        weights: Optional[Sequence[int]] = None,
    ) -> float:
        """Fraction of peak, weighting each shape by its own precision's peak.

        ``weights`` gives each shape's execution multiplicity (phase repeats);
        the default weighs every shape once.
        """
        precisions = {shape.precision for shape in shapes}
        if len(precisions) == 1:
            peak = config.peak_gflops(next(iter(precisions)))
            return gflops / peak if peak else 0.0
        # Mixed-precision workload: a single peak misreports efficiency
        # (FP16 layers can exceed the FP64 peak).  Accumulate the ideal
        # time of each shape at its own precision's peak instead; for a
        # uniform workload this reduces to gflops / peak.
        if weights is None:
            weights = [1] * len(shapes)
        ideal_seconds = in_order_sum(
            weight * shape.flops / (config.peak_gflops(shape.precision) * 1e9)
            for shape, weight in zip(shapes, weights)
            if config.peak_gflops(shape.precision) > 0
        )
        return ideal_seconds / total_seconds if total_seconds > 0 else 0.0

    def evaluate(
        self,
        point: DesignPoint,
        graph: WorkloadGraph,
        cache: Optional[TimingCache] = None,
    ) -> EvaluationResult:
        """Evaluate one design point on a workload graph.

        The result is the aggregate of :meth:`evaluate_graph`.
        """
        return self.evaluate_graph(point, graph, cache=cache).aggregate

    def evaluate_graph(
        self,
        point: DesignPoint,
        graph: WorkloadGraph,
        cache: Optional[TimingCache] = None,
        parallelism: Optional[str] = None,
    ) -> GraphEvaluationResult:
        """Evaluate one design point per-phase on a workload graph.

        Each phase's distinct shapes are timed once and scaled by its
        ``repeat`` count, so an LLM decode block costs a handful of timing
        walks regardless of how many tokens it folds; repeated shapes across
        phases hit the shared :class:`~repro.core.perf.TimingCache`.
        The aggregate result sums the phase times (phases are sequential and
        data dependent), so per-phase seconds always sum to the aggregate.

        With ``parallelism`` (a :class:`repro.parallel.ParallelismSpec` or a
        ``"tp:4"``-style string) phases are sharded across a node group by
        :func:`repro.parallel.plan_parallel` instead of partitioned across
        the whole fleet, and every phase result carries its compute/
        communication split.
        """
        if parallelism is not None:
            return self._evaluate_graph_parallel(point, graph, cache, parallelism)
        config = point.to_config(self.base_config)
        env = memory_environment(config, config.num_nodes)

        def node_seconds(shape: GEMMShape) -> float:
            return estimate_node_gemm_cached(
                config, shape, active_nodes=config.num_nodes, env=env, cache=cache,
            ).seconds

        phase_results: List[PhaseResult] = []
        total_seconds = 0.0
        total_flops = 0
        all_shapes: List[GEMMShape] = []
        all_weights: List[int] = []
        for phase in graph.phases:
            seconds = layer_stream_seconds(phase.shapes, config.num_nodes, node_seconds) * phase.repeat
            flops = phase.gemm_flops * phase.repeat
            gflops = flops / seconds / 1e9 if seconds > 0 else 0.0
            phase_results.append(
                PhaseResult(
                    name=phase.name,
                    kind=phase.kind.value,
                    step=phase.step,
                    repeat=phase.repeat,
                    seconds=seconds,
                    gflops=gflops,
                    efficiency=self._efficiency(
                        config, phase.shapes, gflops, seconds,
                        weights=[phase.repeat] * len(phase.shapes),
                    ),
                    state_bytes=phase.state_bytes,
                    compute_seconds=seconds,
                )
            )
            total_seconds += seconds
            total_flops += flops
            all_shapes.extend(phase.shapes)
            all_weights.extend([phase.repeat] * len(phase.shapes))

        gflops = total_flops / total_seconds / 1e9 if total_seconds > 0 else 0.0
        aggregate = EvaluationResult(
            point=point,
            config=config,
            seconds=total_seconds,
            gflops=gflops,
            efficiency=self._efficiency(config, all_shapes, gflops, total_seconds,
                                        weights=all_weights),
            node_area_mm2=config.cpu.area_mm2 + config.mmae.area_mm2,
            node_power_w=config.cpu.power_w + config.mmae.power_w,
        )
        return GraphEvaluationResult(aggregate=aggregate, phases=phase_results)

    def _evaluate_graph_parallel(
        self,
        point: DesignPoint,
        graph: WorkloadGraph,
        cache: Optional[TimingCache],
        parallelism: str,
    ) -> GraphEvaluationResult:
        """Shard the graph across a node group and report per-phase results.

        The plan comes from :func:`repro.parallel.plan_parallel`: a group of
        ``degree`` nodes executes every phase (tensor parallel) or a stage of
        phases each (pipeline parallel), with collective communication priced
        on the configuration's mesh.  Efficiency is fraction-of-peak over the
        nodes the plan occupies (per phase, the nodes the phase occupies), not
        the whole fleet — node-seconds in the denominator — so a plan that
        buys latency with idle shards shows up as lower efficiency.
        """
        from repro.parallel import ParallelismSpec, plan_parallel

        spec = ParallelismSpec.parse(parallelism)
        config = point.to_config(self.base_config)
        plan = plan_parallel(graph, config, spec, cache=cache)
        phase_results: List[PhaseResult] = []
        total_flops = 0
        all_shapes: List[GEMMShape] = []
        all_weights: List[int] = []
        for phase, phase_plan in zip(graph.phases, plan.phases):
            flops = phase.total_gemm_flops
            seconds = phase_plan.seconds
            gflops = flops / seconds / 1e9 if seconds > 0 else 0.0
            busy = len(phase_plan.nodes)
            phase_results.append(
                PhaseResult(
                    name=phase.name,
                    kind=phase.kind.value,
                    step=phase.step,
                    repeat=phase.repeat,
                    seconds=seconds,
                    gflops=gflops,
                    efficiency=self._efficiency(
                        config.with_nodes(busy), phase.shapes, gflops, seconds,
                        weights=[phase.repeat] * len(phase.shapes),
                    ),
                    state_bytes=phase.state_bytes,
                    compute_seconds=phase_plan.compute_seconds,
                    comm_seconds=phase_plan.comm_seconds,
                    comm_overlapped_seconds=phase_plan.comm_overlapped_seconds,
                )
            )
            total_flops += flops
            all_shapes.extend(phase.shapes)
            all_weights.extend([phase.repeat] * len(phase.shapes))

        total_seconds = plan.total_seconds
        gflops = total_flops / total_seconds / 1e9 if total_seconds > 0 else 0.0
        aggregate = EvaluationResult(
            point=point,
            config=config,
            seconds=total_seconds,
            gflops=gflops,
            efficiency=self._efficiency(
                config.with_nodes(len(plan.group)), all_shapes, gflops, total_seconds,
                weights=all_weights,
            ),
            node_area_mm2=config.cpu.area_mm2 + config.mmae.area_mm2,
            node_power_w=config.cpu.power_w + config.mmae.power_w,
        )
        return GraphEvaluationResult(
            aggregate=aggregate, phases=phase_results, parallelism=str(spec),
        )

    def explore(
        self,
        points: Iterable[DesignPoint],
        graph: WorkloadGraph,
        objective: Callable[[EvaluationResult], float] | str = "gflops",
        runner: Optional[SweepRunner] = None,
    ) -> List[EvaluationResult]:
        """Evaluate every point and return the results sorted best-first.

        The aggregates of :meth:`explore_graph`.
        """
        ranked = self.explore_graph(points, graph, objective, runner=runner)
        return [result.aggregate for result in ranked]

    def explore_graph(
        self,
        points: Iterable[DesignPoint],
        graph: WorkloadGraph,
        objective: Callable[[EvaluationResult], float] | str = "gflops",
        runner: Optional[SweepRunner] = None,
        parallelism: Optional[str] = None,
    ) -> List[GraphEvaluationResult]:
        """Evaluate every point per-phase on a graph, sorted best-first by aggregate.

        Points are evaluated in order through :meth:`evaluate_graph`, with
        ``runner``'s timing cache (default: the process-wide cache); every
        result carries the per-phase breakdown alongside the aggregate used
        for ranking.  ``parallelism`` (``"tp:4"``-style) shards the graph
        across a node group at every design point instead of partitioning
        each GEMM across the whole fleet.
        """
        key = self._objective(objective)
        cache = runner.cache if runner is not None else None
        results = [
            self.evaluate_graph(point, graph, cache=cache, parallelism=parallelism)
            for point in points
        ]
        return sorted(results, key=lambda result: key(result.aggregate), reverse=True)

    def best(
        self,
        points: Iterable[DesignPoint],
        graph: WorkloadGraph,
        objective: Callable[[EvaluationResult], float] | str = "gflops",
        runner: Optional[SweepRunner] = None,
    ) -> EvaluationResult:
        """The best design point under the chosen objective."""
        ranked = self.explore(points, graph, objective, runner=runner)
        return ranked[0]

    @staticmethod
    def _objective(objective: Callable[[EvaluationResult], float] | str) -> Callable[[EvaluationResult], float]:
        if callable(objective):
            return objective
        known: Dict[str, Callable[[EvaluationResult], float]] = {
            "gflops": lambda r: r.gflops,
            "efficiency": lambda r: r.efficiency,
            "gflops_per_mm2": lambda r: r.gflops_per_mm2,
            "gflops_per_watt": lambda r: r.gflops_per_watt,
        }
        if objective not in known:
            raise ValueError(f"unknown objective {objective!r}; options: {sorted(known)}")
        return known[objective]


def pareto_front(
    results: Sequence[EvaluationResult],
    metrics: Sequence[Callable[[EvaluationResult], float]] = (
        lambda r: r.gflops,
        lambda r: r.gflops_per_watt,
    ),
) -> List[EvaluationResult]:
    """The subset of results not dominated on all of the given metrics.

    A result is dominated when another scores at least as well on every
    metric and strictly better on at least one; ties (identical score
    vectors) do not dominate each other.  Results are returned in input
    order.  The common two-metric case runs as an O(n log n) sort-based
    skyline scan; other metric counts fall back to pairwise checks.
    """
    results = list(results)
    scores = [tuple(metric(result) for metric in metrics) for result in results]

    if len(metrics) == 2:
        # Sort by (x desc, y desc); scanning in that order, a point is on the
        # front iff its y exceeds the best y seen so far, or it exactly ties
        # the score vector that last raised the best y (a duplicate, which by
        # definition is not strictly dominated).
        order = sorted(range(len(results)), key=lambda i: scores[i], reverse=True)
        keep: List[int] = []
        best: Optional[tuple] = None
        for index in order:
            x, y = scores[index]
            if best is None or y > best[1]:
                keep.append(index)
                best = (x, y)
            elif y == best[1] and x == best[0]:
                keep.append(index)
        return [results[index] for index in sorted(keep)]

    front = []
    for index, candidate_scores in enumerate(scores):
        dominated = False
        for other_index, other_scores in enumerate(scores):
            if other_index == index:
                continue
            if all(o >= c for o, c in zip(other_scores, candidate_scores)) and any(
                o > c for o, c in zip(other_scores, candidate_scores)
            ):
                dominated = True
                break
        if not dominated:
            front.append(results[index])
    return front
