"""Shard a :class:`~repro.workloads.graph.WorkloadGraph` across mesh nodes.

Three sharding strategies, all producing a :class:`ParallelPlan` whose
per-phase rows separate *compute* from *communication* — and, where the
schedule overlaps the two, exposed from hidden communication — so the
trade-off the plan makes is visible (``repro.cli parallel`` renders exactly
these rows):

* **tensor parallel** (``tp``) — every GEMM of every phase is split across
  the whole group along its larger free dimension: an ``N`` split gives each
  node a column slice of the output (replicated afterwards with a ring
  all-gather), a ``K`` split gives each node a partial sum over its slice of
  the reduction dimension (combined with a ring all-reduce).  Compute per
  node is the extent-proportional slice of the unsharded phase time — the
  shards execute the same tile schedule over a fraction of the tiles — so
  summing the per-node compute over the group reproduces the unsharded
  phase exactly (the conservation property ``tests/test_parallel.py``
  checks), and a degree-1 plan is bit-identical to the single-node numbers.
* **2-D tensor parallel** (``tp2d:RxC``) — every GEMM is sharded SUMMA-style
  over an R x C grid: grid row ``r`` owns the A row-panel, grid column ``c``
  the B column-panel, and PE ``(r, c)`` its C tile, so per-node compute is
  the ``(m_r / M) * (n_c / N)`` share of the unsharded time (conservation
  again holds by construction).  The K dimension is walked in
  ``lcm(R, C)`` pipeline steps whose row/column panel broadcasts run under
  the previous step's compute; phase timing follows the pipelined closed
  form ``max(compute, bcast) + exposed tail`` of
  :func:`~repro.parallel.summa.summa_pipeline_seconds`, never worse than
  the serial sum.  The final output replication is priced with the
  asymmetric :meth:`~repro.parallel.collective.CollectiveCostModel.gather_seconds`
  and stays fully exposed (nothing left to hide it under).
* **pipeline parallel** (``pp``) — the phase list is cut into ``degree``
  contiguous stages balanced on unsharded phase seconds (contiguity respects
  the data dependence between phases); each stage runs its phases whole on
  one node and hands the boundary activation to the next stage with a
  point-to-point transfer.  For a single request nothing overlaps — the
  request's latency is the sum of the stages plus the transfers — but the
  fleet regains throughput because a group admits the next request after one
  :attr:`~ParallelPlan.pipeline_interval_seconds`.

``auto`` plans both 1-D strategies and keeps the one with the lower request
latency.

Communication is priced by :class:`~repro.parallel.collective.CollectiveCostModel`
on the actual mesh (X-Y routes, link sharing, co-scheduled background
groups), not a flat bandwidth constant; see docs/PARALLELISM.md for the
derivations and worked examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import MACOConfig
from repro.core.mapping import in_order_sum, layer_stream_seconds
from repro.core.perf import TimingCache, estimate_node_gemm_cached, memory_environment
from repro.gemm.workloads import GEMMShape
from repro.mmae.dataflow import MemoryEnvironment
from repro.parallel.collective import CollectiveCostModel
from repro.parallel.summa import (
    OverheadBreakdown,
    calibrate_overhead_factor,
    summa_grid,
    summa_pipeline_seconds,
    summa_steps,
)
from repro.workloads.graph import Phase, WorkloadGraph

__all__ = [
    "PARALLELISM_STRATEGIES",
    "ParallelismSpec",
    "PhasePlan",
    "ParallelPlan",
    "StrategyInfo",
    "node_groups",
    "plan_parallel",
]


@dataclass(frozen=True)
class StrategyInfo:
    """One entry of the strategy registry: how a strategy is spelled and sized."""

    name: str
    #: ``True`` when the spec's size is an ``RxC`` grid (degree = R * C)
    #: rather than a plain integer degree.
    takes_grid: bool
    #: One-line summary surfaced in CLI help and error messages.
    summary: str

    @property
    def spec_example(self) -> str:
        return f"{self.name}:2x4" if self.takes_grid else f"{self.name}:4"


#: The strategy registry: every spelling a spec parser accepts, in the order
#: the docs present them.  ``auto`` resolves to whichever 1-D strategy scores
#: the lower request latency.
PARALLELISM_STRATEGIES: Dict[str, StrategyInfo] = {
    info.name: info
    for info in (
        StrategyInfo("tp", False, "1-D tensor parallel: split each GEMM's larger free dim"),
        StrategyInfo("tp2d", True, "2-D SUMMA tensor parallel on an RxC grid with overlap"),
        StrategyInfo("pp", False, "pipeline parallel: contiguous phase stages, p2p hand-off"),
        StrategyInfo("auto", False, "plan tp and pp, keep the lower request latency"),
    )
}


def _spec_grammar() -> str:
    examples = ", ".join(info.spec_example for info in PARALLELISM_STRATEGIES.values())
    return f"strategy:degree or strategy:RxC (one of: {examples})"


@dataclass(frozen=True)
class ParallelismSpec:
    """How to shard: a strategy name plus its size (degree, or an RxC grid).

    Grid strategies (``tp2d``) carry ``grid=(rows, cols)`` and derive
    ``degree = rows * cols`` when it is not given explicitly; scalar
    strategies must leave ``grid`` unset.  :meth:`parse` and :meth:`format`
    round-trip exactly: ``ParallelismSpec.parse(spec.format()) == spec``.
    """

    strategy: str
    degree: int = 0
    grid: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        info = PARALLELISM_STRATEGIES.get(self.strategy)
        if info is None:
            raise ValueError(
                f"unknown parallel strategy {self.strategy!r}; "
                f"options: {sorted(PARALLELISM_STRATEGIES)}"
            )
        if self.grid is not None:
            if not info.takes_grid:
                raise ValueError(
                    f"strategy {self.strategy!r} takes a plain degree "
                    f"(e.g. {info.spec_example}), not an RxC grid"
                )
            rows, cols = self.grid
            if rows < 1 or cols < 1:
                raise ValueError(
                    f"parallelism grid dimensions must be >= 1, got {rows}x{cols}"
                )
            object.__setattr__(self, "grid", (int(rows), int(cols)))
            if self.degree == 0:
                object.__setattr__(self, "degree", rows * cols)
            elif self.degree != rows * cols:
                raise ValueError(
                    f"degree {self.degree} contradicts grid {rows}x{cols} "
                    f"({rows * cols} nodes)"
                )
        elif info.takes_grid:
            raise ValueError(
                f"strategy {self.strategy!r} needs an RxC grid, "
                f"e.g. {info.spec_example}"
            )
        if self.degree < 1:
            raise ValueError(f"parallel degree must be >= 1, got {self.degree}")

    @classmethod
    def parse(cls, text: "ParallelismSpec | str") -> "ParallelismSpec":
        """Parse ``"strategy:degree"`` / ``"strategy:RxC"``; passes specs through."""
        if isinstance(text, ParallelismSpec):
            return text
        strategy, separator, raw_size = text.strip().lower().partition(":")
        if not separator or not raw_size:
            raise ValueError(
                f"parallelism spec {text!r} must look like {_spec_grammar()}"
            )
        info = PARALLELISM_STRATEGIES.get(strategy)
        if info is not None and info.takes_grid:
            raw_rows, grid_separator, raw_cols = raw_size.partition("x")
            if not grid_separator:
                raise ValueError(
                    f"parallelism spec {text!r}: strategy {strategy!r} needs an "
                    f"RxC grid, e.g. {info.spec_example}"
                )
            try:
                rows, cols = int(raw_rows), int(raw_cols)
            except ValueError:
                raise ValueError(
                    f"parallelism spec {text!r}: grid {raw_size!r} is not RxC "
                    "with integer dimensions"
                ) from None
            return cls(strategy=strategy, grid=(rows, cols))
        if info is not None and "x" in raw_size:
            raise ValueError(
                f"parallelism spec {text!r}: strategy {strategy!r} takes a "
                f"plain degree (e.g. {info.spec_example}), not an RxC grid"
            )
        try:
            degree = int(raw_size)
        except ValueError:
            raise ValueError(
                f"parallelism spec {text!r}: degree {raw_size!r} is not an integer"
            ) from None
        return cls(strategy=strategy, degree=degree)

    def format(self) -> str:
        """The canonical spelling; ``parse(spec.format())`` is ``spec`` exactly."""
        if self.grid is not None:
            return f"{self.strategy}:{self.grid[0]}x{self.grid[1]}"
        return f"{self.strategy}:{self.degree}"

    def __str__(self) -> str:
        return self.format()


@dataclass(frozen=True)
class PhasePlan:
    """One workload phase under the plan: who computes what, who talks to whom.

    Seconds fields cover all ``repeat`` executions of the phase.  The
    tensor-parallel compute models keep per-node seconds extent-proportional,
    so ``sum(node_compute_seconds) == unsharded_seconds`` whenever every node
    received work (conservation); the phase's wall-clock compute time is the
    slowest node, :attr:`compute_seconds`.

    ``comm_seconds`` is the *serial* price of the phase's collectives;
    ``comm_overlapped_seconds`` is the part of it the schedule hides under
    compute (zero for ``tp``/``pp``, whose collectives land after the
    compute), so the wall clock only pays :attr:`comm_exposed_seconds`.
    """

    name: str
    kind: str
    step: int
    repeat: int
    stage: int
    nodes: Tuple[int, ...]
    unsharded_seconds: float
    node_compute_seconds: Tuple[float, ...]
    comm_seconds: float
    comm_bytes: int
    collective: str
    comm_overlapped_seconds: float = 0.0

    @property
    def compute_seconds(self) -> float:
        """Wall-clock compute time of the phase: the slowest node's share."""
        return max(self.node_compute_seconds)

    @property
    def comm_exposed_seconds(self) -> float:
        """Communication left on the critical path after overlap."""
        return self.comm_seconds - self.comm_overlapped_seconds

    @property
    def seconds(self) -> float:
        """Phase wall-clock time: compute plus the exposed communication."""
        return self.compute_seconds + self.comm_exposed_seconds

    @property
    def comm_fraction(self) -> float:
        """Share of the phase's wall clock spent communicating (0 at degree 1)."""
        return self.comm_exposed_seconds / self.seconds if self.seconds > 0 else 0.0


@dataclass
class ParallelPlan:
    """A sharded execution plan for one workload graph on one node group."""

    workload: str
    strategy: str
    degree: int
    group: Tuple[int, ...]
    phases: List[PhasePlan] = field(default_factory=list)
    #: Compute overhead decomposition calibrated on the functional path
    #: (attached by the SUMMA planner; a report field, not a timing input).
    overhead: Optional[OverheadBreakdown] = None
    #: The R x C grid for ``tp2d`` plans (``None`` for the 1-D strategies);
    #: kept so reports can render the full spec — degree alone cannot tell
    #: a 2x4 grid from a 4x2.
    grid: Optional[Tuple[int, int]] = None

    @property
    def spec(self) -> ParallelismSpec:
        """The spec this plan realises (``auto`` plans report the winner)."""
        return ParallelismSpec(self.strategy, self.degree, self.grid)

    @property
    def compute_seconds(self) -> float:
        """Critical-path compute seconds summed over the (sequential) phases."""
        return in_order_sum(phase.compute_seconds for phase in self.phases)

    @property
    def comm_seconds(self) -> float:
        """Serial collective and hand-off seconds summed over the phases."""
        return in_order_sum(phase.comm_seconds for phase in self.phases)

    @property
    def comm_overlapped_seconds(self) -> float:
        """Communication hidden under compute by the pipelined schedules."""
        return in_order_sum(phase.comm_overlapped_seconds for phase in self.phases)

    @property
    def comm_exposed_seconds(self) -> float:
        """Communication that stays on the request's critical path."""
        return in_order_sum(phase.comm_exposed_seconds for phase in self.phases)

    @property
    def total_seconds(self) -> float:
        """End-to-end latency of one request under the plan."""
        return self.compute_seconds + self.comm_exposed_seconds

    @property
    def unsharded_seconds(self) -> float:
        """The same phases executed whole on a single node (the baseline)."""
        return in_order_sum(phase.unsharded_seconds for phase in self.phases)

    @property
    def speedup(self) -> float:
        """Latency speedup over single-node execution (< degree: comm + imbalance)."""
        return self.unsharded_seconds / self.total_seconds if self.total_seconds > 0 else 0.0

    @property
    def pipeline_interval_seconds(self) -> float:
        """Steady-state seconds between request completions on this group.

        For pipeline parallelism this is the busiest stage (compute plus its
        hand-off); back-to-back requests overlap across stages, so the group
        finishes one request per interval.  Tensor parallelism keeps the whole
        group busy for the whole request, so the interval is the full latency.
        """
        if self.strategy != "pp":
            return self.total_seconds
        per_stage: dict = {}
        for phase in self.phases:
            per_stage[phase.stage] = per_stage.get(phase.stage, 0.0) + phase.seconds
        return max(per_stage.values()) if per_stage else 0.0

    @property
    def comm_fraction(self) -> float:
        """Fraction of the request latency spent communicating."""
        return (
            self.comm_exposed_seconds / self.total_seconds if self.total_seconds > 0 else 0.0
        )


def node_groups(num_nodes: int, degree: int) -> List[Tuple[int, ...]]:
    """Partition nodes ``0..num_nodes-1`` into contiguous groups of ``degree``.

    Contiguous ids keep each group's ring compact on the row-major mesh.
    ``num_nodes`` must divide evenly — a partial group could neither run a
    ``degree``-wide plan nor serve on its own, so it is rejected loudly.
    """
    if degree < 1:
        raise ValueError(f"parallel degree must be >= 1, got {degree}")
    if num_nodes < degree:
        raise ValueError(f"need at least {degree} nodes for degree {degree}, got {num_nodes}")
    if num_nodes % degree != 0:
        raise ValueError(
            f"{num_nodes} nodes do not divide into groups of {degree}; "
            "choose a degree that divides the fleet"
        )
    return [tuple(range(start, start + degree)) for start in range(0, num_nodes, degree)]


def _balanced_shares(extent: int, degree: int) -> List[int]:
    """Split ``extent`` into ``degree`` near-equal integer shares (surplus nodes get 0)."""
    usable = min(degree, extent)
    base, extra = divmod(extent, usable)
    shares = [base + (1 if index < extra else 0) for index in range(usable)]
    shares.extend([0] * (degree - usable))
    return shares


def _contiguous_stages(weights: Sequence[float], stages: int) -> List[int]:
    """Assign each phase to a stage: contiguous blocks minimising the busiest stage.

    Classic linear-partition dynamic program over the per-phase weights —
    O(phases^2 x stages), trivially small here.  Returns one stage index per
    phase, non-decreasing.
    """
    count = len(weights)
    stages = min(stages, count)
    prefix = [0.0]
    for weight in weights:
        prefix.append(prefix[-1] + weight)

    def block(start: int, end: int) -> float:
        return prefix[end] - prefix[start]

    infinity = float("inf")
    # best[s][i]: minimal busiest-stage weight splitting the first i phases into s stages.
    best = [[infinity] * (count + 1) for _ in range(stages + 1)]
    cut = [[0] * (count + 1) for _ in range(stages + 1)]
    best[0][0] = 0.0
    for stage in range(1, stages + 1):
        for end in range(1, count + 1):
            for start in range(stage - 1, end):
                candidate = max(best[stage - 1][start], block(start, end))
                if candidate < best[stage][end]:
                    best[stage][end] = candidate
                    cut[stage][end] = start
    # Walk the cuts back into per-phase stage indices.
    bounds = [count]
    position = count
    for stage in range(stages, 0, -1):
        position = cut[stage][position]
        bounds.append(position)
    bounds.reverse()  # [0, ..., count]
    assignment = []
    for stage in range(stages):
        assignment.extend([stage] * (bounds[stage + 1] - bounds[stage]))
    return assignment


@dataclass(frozen=True)
class _ShapeCost:
    """What one GEMM of a tensor-parallel phase adds to the phase's plan."""

    #: Seconds of the whole GEMM on one node.
    whole: float
    #: Each node's compute increment, in node order.
    node_seconds: Tuple[float, ...]
    comm_seconds: float = 0.0
    comm_overlapped_seconds: float = 0.0
    comm_bytes: int = 0
    #: Collective kinds the GEMM uses, in the order the plan names them.
    collectives: Tuple[str, ...] = ()


def _sharded_phase_plan(
    phase: Phase,
    group: Tuple[int, ...],
    cost: Callable[[GEMMShape], _ShapeCost],
) -> PhasePlan:
    """Add up a tensor-parallel phase from the costs of its GEMMs.

    ``cost`` prices one GEMM; it runs once per distinct shape of the phase,
    the first time the shape appears.  Every accumulator still adds one term
    per GEMM in phase order, so a repeated shape adds the same floats in the
    same order as pricing it again would (DESIGN.md section 4.2).
    """
    costs: Dict[GEMMShape, _ShapeCost] = {}
    node_seconds = [0.0] * len(group)
    unsharded_once = 0.0
    comm_seconds = 0.0
    comm_overlapped = 0.0
    comm_bytes = 0
    collective_kinds: List[str] = []
    for shape in phase.shapes:
        entry = costs.get(shape)
        if entry is None:
            entry = costs[shape] = cost(shape)
        unsharded_once += entry.whole
        for node_index, seconds in enumerate(entry.node_seconds):
            node_seconds[node_index] += seconds
        comm_seconds += entry.comm_seconds
        comm_overlapped += entry.comm_overlapped_seconds
        comm_bytes += entry.comm_bytes
        for kind in entry.collectives:
            if kind not in collective_kinds:
                collective_kinds.append(kind)
    return PhasePlan(
        name=phase.name,
        kind=phase.kind.value,
        step=phase.step,
        repeat=phase.repeat,
        stage=0,
        nodes=group,
        unsharded_seconds=unsharded_once * phase.repeat,
        node_compute_seconds=tuple(seconds * phase.repeat for seconds in node_seconds),
        comm_seconds=comm_seconds * phase.repeat,
        comm_bytes=comm_bytes * phase.repeat,
        collective="+".join(collective_kinds) if collective_kinds else "none",
        comm_overlapped_seconds=comm_overlapped * phase.repeat,
    )


def _tp_phase_plan(
    config: MACOConfig,
    phase: Phase,
    group: Tuple[int, ...],
    env: MemoryEnvironment,
    cache: Optional[TimingCache],
    collectives: CollectiveCostModel,
    background: Sequence[Sequence[int]],
    include_communication: bool,
) -> PhasePlan:
    degree = len(group)

    def cost(shape: GEMMShape) -> _ShapeCost:
        whole = estimate_node_gemm_cached(config, shape, env=env, cache=cache).seconds
        # Split the larger free dimension: N keeps the reduction local (the
        # outputs are disjoint column slices, replicated with an all-gather),
        # K shards the reduction itself (partial sums, combined with an
        # all-reduce).  Shards run the same tile schedule over their slice of
        # the tiles, so per-node compute is the extent-proportional share.
        split = "n" if shape.n >= shape.k else "k"
        extent = shape.n if split == "n" else shape.k
        node_seconds = tuple(whole * (share / extent) for share in _balanced_shares(extent, degree))
        if degree == 1 or not include_communication:
            return _ShapeCost(whole, node_seconds)
        payload = shape.bytes_c
        if split == "k":
            return _ShapeCost(
                whole, node_seconds,
                comm_seconds=collectives.ring_allreduce_seconds(group, payload, background),
                comm_bytes=int(payload * 2 * (degree - 1) / degree),
                collectives=("ring-all-reduce",),
            )
        return _ShapeCost(
            whole, node_seconds,
            comm_seconds=collectives.all_gather_seconds(group, payload, background),
            comm_bytes=int(payload * (degree - 1) / degree),
            collectives=("all-gather",),
        )

    return _sharded_phase_plan(phase, group, cost)


def _tp2d_phase_plan(
    config: MACOConfig,
    phase: Phase,
    group: Tuple[int, ...],
    grid: Tuple[int, int],
    env: MemoryEnvironment,
    cache: Optional[TimingCache],
    collectives: CollectiveCostModel,
    background: Sequence[Sequence[int]],
    include_communication: bool,
) -> PhasePlan:
    """SUMMA-shard one phase over the R x C grid with pipelined broadcasts.

    Per GEMM ``C[M,N] += A[M,K] @ B[K,N]``: node ``(r, c)`` computes the
    ``m_r x n_c`` tile, an extent-proportional ``(m_r / M) * (n_c / N)``
    share of the unsharded seconds — the shares sum to 1 over the grid, so
    conservation holds by construction, and ``_balanced_shares`` hands the
    remainder elements to the first rows/columns so node ``(0, 0)`` is the
    phase's critical node for every shape.  The K loop runs in
    ``lcm(R, C)`` pipeline steps; each step's A k-panel is chain-multicast
    along every grid row concurrently (payload ``bytes_a / (R * S)`` per
    row) and the B k-panel down every grid column, and all but the first
    step's broadcasts hide under the previous step's compute.  The closed
    form in :func:`summa_pipeline_seconds` prices the resulting wall clock;
    whatever it hides is reported as ``comm_overlapped_seconds``.  The final
    C replication is an asymmetric gather and stays fully exposed — it can
    only start when the last tile is done.
    """
    rows, cols = grid
    degree = len(group)
    grid_rows, grid_cols = summa_grid(group, rows, cols)
    steps = summa_steps(rows, cols)

    def cost(shape: GEMMShape) -> _ShapeCost:
        whole = estimate_node_gemm_cached(config, shape, env=env, cache=cache).seconds
        m_shares = _balanced_shares(shape.m, rows)
        n_shares = _balanced_shares(shape.n, cols)
        node_seconds = tuple(
            whole * (m_shares[row_index] / shape.m) * (n_shares[col_index] / shape.n)
            for row_index in range(rows)
            for col_index in range(cols)
        )
        if degree == 1 or not include_communication:
            return _ShapeCost(whole, node_seconds)
        # This shape's wall-clock compute is node (0, 0)'s share — the
        # largest by the balanced-shares remainder convention.
        shape_compute = whole * (m_shares[0] / shape.m) * (n_shares[0] / shape.n)
        step_broadcast = collectives.multicast_seconds(
            grid_rows, shape.bytes_a / (rows * steps), background
        ) + collectives.multicast_seconds(
            grid_cols, shape.bytes_b / (cols * steps), background
        )
        broadcast = step_broadcast * steps
        gather = collectives.gather_seconds(group, shape.bytes_c, background)
        pipelined = summa_pipeline_seconds(shape_compute, broadcast, steps)
        exposed = (pipelined - shape_compute) + gather
        return _ShapeCost(
            whole, node_seconds,
            comm_seconds=broadcast + gather,
            comm_overlapped_seconds=(broadcast + gather) - exposed,
            # Wire bytes: each node ends up holding its row-panel of A
            # (receiving the (C-1)/C it did not store), its column-panel of
            # B, and the gathered C.
            comm_bytes=(
                shape.bytes_a * (cols - 1) // cols
                + shape.bytes_b * (rows - 1) // rows
                + shape.bytes_c * (degree - 1) // degree
            ),
            collectives=tuple(
                kind for kind, seconds in (("summa-bcast", broadcast), ("gather", gather))
                if seconds > 0
            ),
        )

    return _sharded_phase_plan(phase, group, cost)


def _pp_phase_plans(
    config: MACOConfig,
    graph: WorkloadGraph,
    group: Tuple[int, ...],
    env: MemoryEnvironment,
    cache: Optional[TimingCache],
    collectives: CollectiveCostModel,
    background: Sequence[Sequence[int]],
    include_communication: bool,
) -> List[PhasePlan]:
    degree = len(group)

    def whole_gemm_seconds(shape: GEMMShape) -> float:
        return estimate_node_gemm_cached(config, shape, env=env, cache=cache).seconds

    # One node runs each phase whole (all repeats), with no communication.
    unsharded = [
        layer_stream_seconds(phase.shapes, 1, whole_gemm_seconds) * phase.repeat
        for phase in graph.phases
    ]
    assignment = _contiguous_stages(unsharded, degree)
    plans: List[PhasePlan] = []
    for index, phase in enumerate(graph.phases):
        stage = assignment[index]
        node_seconds = [0.0] * degree
        node_seconds[stage] = unsharded[index]
        comm_seconds = 0.0
        comm_bytes = 0
        collective = "none"
        last_of_stage = index + 1 == len(graph.phases) or assignment[index + 1] != stage
        if last_of_stage and index + 1 < len(graph.phases) and include_communication:
            # Hand the boundary activation (the phase's final output tile) to
            # the next stage's node.  The transfer happens once per request —
            # repeats inside the phase stay on-stage.
            payload = phase.shapes[-1].bytes_c
            next_stage = assignment[index + 1]
            comm_seconds = collectives.point_to_point_seconds(
                group[stage], group[next_stage], payload, background
            )
            comm_bytes = payload
            collective = "p2p"
        plans.append(
            PhasePlan(
                name=phase.name,
                kind=phase.kind.value,
                step=phase.step,
                repeat=phase.repeat,
                stage=stage,
                nodes=(group[stage],),
                unsharded_seconds=unsharded[index],
                node_compute_seconds=tuple(node_seconds),
                comm_seconds=comm_seconds,
                comm_bytes=comm_bytes,
                collective=collective,
            )
        )
    return plans


def plan_parallel(
    graph: WorkloadGraph,
    config: MACOConfig,
    spec: "ParallelismSpec | str",
    group: Optional[Sequence[int]] = None,
    env: Optional[MemoryEnvironment] = None,
    cache: Optional[TimingCache] = None,
    collectives: Optional[CollectiveCostModel] = None,
    background: Sequence[Sequence[int]] = (),
    include_communication: bool = True,
) -> ParallelPlan:
    """Shard ``graph`` across a node group under ``spec`` and price the result.

    ``group`` defaults to nodes ``0..degree-1`` (the convention the paper's
    scaling experiments use); ``env`` defaults to the memory environment with
    ``degree`` active nodes, so a standalone plan sees exactly the contention
    its own group creates — the serving simulator overrides both to model a
    fully loaded fleet.  ``background`` lists co-scheduled groups whose
    collective traffic shares mesh links with ours.
    ``include_communication=False`` zeroes the collectives (used by the
    conservation tests and for isolating compute scaling).

    Deterministic and side-effect free: every timing walk goes through the
    shared :class:`~repro.core.perf.TimingCache`, so plans are cheap to sweep
    and bit-identical whether the cache is cold or warm.
    """
    spec = ParallelismSpec.parse(spec)
    if spec.degree > config.num_nodes:
        raise ValueError(
            f"parallel degree {spec.degree} exceeds the configuration's "
            f"{config.num_nodes} nodes"
        )
    if collectives is None:
        collectives = CollectiveCostModel(config=config.noc)
    if spec.degree > collectives.topology.num_nodes:
        raise ValueError(
            f"parallel degree {spec.degree} exceeds the "
            f"{collectives.topology.width}x{collectives.topology.height} mesh"
        )
    group = tuple(group) if group is not None else tuple(range(spec.degree))
    if len(group) != spec.degree:
        raise ValueError(f"node group {group} has {len(group)} members but degree is {spec.degree}")
    if env is None:
        env = memory_environment(config, spec.degree)

    if spec.strategy == "auto":
        candidates = [
            plan_parallel(
                graph,
                config,
                ParallelismSpec(strategy, spec.degree),
                group=group,
                env=env,
                cache=cache,
                collectives=collectives,
                background=background,
                include_communication=include_communication,
            )
            for strategy in ("tp", "pp")
        ]
        # Lower request latency wins; ties go to tensor parallel (listed first).
        return min(candidates, key=lambda plan: plan.total_seconds)

    overhead: Optional[OverheadBreakdown] = None
    if spec.strategy == "tp":
        phases = [
            _tp_phase_plan(config, phase, group, env, cache, collectives, background, include_communication)
            for phase in graph.phases
        ]
    elif spec.strategy == "tp2d":
        assert spec.grid is not None  # enforced by ParallelismSpec
        phases = [
            _tp2d_phase_plan(
                config, phase, group, spec.grid, env, cache, collectives,
                background, include_communication,
            )
            for phase in graph.phases
        ]
        overhead = calibrate_overhead_factor(config.mmae.sa_rows, config.mmae.sa_cols)
    else:
        phases = _pp_phase_plans(config, graph, group, env, cache, collectives,
                                 background, include_communication)
    return ParallelPlan(
        workload=graph.name,
        strategy=spec.strategy,
        degree=spec.degree,
        group=group,
        phases=phases,
        overhead=overhead,
        grid=spec.grid,
    )
