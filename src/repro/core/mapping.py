"""Mapping GEMM and GEMM+ workloads onto MACO's compute nodes (paper Section IV.B).

Two pieces are modelled:

* **multi-core GEMM partitioning** (Fig. 5(a)) — the output matrix Y is tiled
  and the tiles are distributed across the compute nodes.  The reproduction
  partitions the larger output dimension (rows or columns), which matches the
  figure's one-tile-column-per-node example for square matrices and keeps the
  per-node sub-GEMMs well shaped for the skewed layers of DL networks.  The
  operand that every node reads in full (B when rows are split, A when columns
  are split) is stashed and locked in the L3 once and shared.
  :func:`layer_stream_seconds` times a stream of partitioned layers for every
  system model (MACO, the baselines, the explorer): each layer lasts as long
  as its slowest node, and layers run in order.  Networks repeat a handful
  of GEMM shapes, so it partitions and times each distinct shape once and
  adds one float per layer in execution order (DESIGN.md section 4.2).
  :func:`in_order_sum` is the same left-to-right rule for any other float
  sum that feeds a reported number.
* **GEMM+ scheduling** (Fig. 5(b)/(c)) — the CPU issues stash/lock requests
  ahead of the MMAE's tiles, distributes the non-GEMM tail operators of the
  previous layer across the CPU cores, and runs them while the MMAEs compute
  the next layer.  Without the mapping scheme the tail operators serialise
  after the GEMMs on the launching core and stream cold (unlocked) data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Literal, Tuple

from repro.gemm.workloads import GEMMShape
from repro.workloads.graph import WorkloadGraph

SplitDimension = Literal["rows", "cols"]


@dataclass(frozen=True)
class NodeAssignment:
    """The slice of a GEMM one compute node executes."""

    node_id: int
    shape: GEMMShape
    dimension: SplitDimension
    start: int
    end: int

    @property
    def extent(self) -> int:
        """Number of columns (or rows) this node covers."""
        return self.end - self.start


@dataclass(frozen=True)
class MappingPlan:
    """How one GEMM is split across compute nodes (Fig. 5(a)).

    An even split of the partitioned dimension gives its first
    ``extent % num_nodes`` nodes one row (or column) more than the rest, so a
    plan has at most two distinct sub-GEMMs.  :attr:`sub_shapes` holds them
    in node order (the ``base + 1`` slice, if any node takes one, then the
    ``base`` slice); timing a plan needs only those.  :attr:`assignments`
    expands them into the per-node slices.
    """

    original: GEMMShape
    dimension: SplitDimension
    #: Nodes that actually received work (can be fewer than requested).
    num_nodes: int
    sub_shapes: Tuple[GEMMShape, ...]

    @property
    def assignments(self) -> List[NodeAssignment]:
        """Each node's slice, in node order."""
        extent = self.original.m if self.dimension == "rows" else self.original.n
        base, extra = divmod(extent, self.num_nodes)
        assignments = []
        cursor = 0
        for node_id in range(self.num_nodes):
            wide = node_id < extra
            length = base + 1 if wide else base
            assignments.append(
                NodeAssignment(
                    node_id=node_id,
                    shape=self.sub_shapes[0] if wide else self.sub_shapes[-1],
                    dimension=self.dimension,
                    start=cursor,
                    end=cursor + length,
                )
            )
            cursor += length
        return assignments

    @property
    def stash_bytes(self) -> int:
        """Bytes stashed and locked in the L3 ahead of the computation (:func:`gemm_stash_bytes`)."""
        return gemm_stash_bytes(self.original, self.num_nodes)

    def covers_output(self) -> bool:
        """True if the assignments exactly tile the split dimension of Y."""
        covered = sorted((a.start, a.end) for a in self.assignments)
        cursor = 0
        for start, end in covered:
            if start != cursor:
                return False
            cursor = end
        target = self.original.m if self.dimension == "rows" else self.original.n
        return cursor == target

    def total_assigned_flops(self) -> int:
        """FLOPs across all assignments (equals the source shape's FLOPs)."""
        return sum(assignment.shape.flops for assignment in self.assignments)


def _split(shape: GEMMShape) -> Tuple[SplitDimension, int]:
    """The output dimension a GEMM is partitioned along, and its extent."""
    return ("rows", shape.m) if shape.m >= shape.n else ("cols", shape.n)


def partition_gemm(shape: GEMMShape, num_nodes: int) -> MappingPlan:
    """Split a GEMM's output across ``num_nodes`` compute nodes (Fig. 5(a)).

    The larger output dimension is partitioned so the per-node sub-GEMMs stay
    as square as possible; if there are more nodes than elements along that
    dimension, the surplus nodes receive no work.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    dimension, extent = _split(shape)
    usable_nodes = min(num_nodes, extent)
    base, extra = divmod(extent, usable_nodes)
    lengths = (base + 1, base) if extra else (base,)
    if dimension == "rows":
        sub_shapes = tuple(GEMMShape(length, shape.n, shape.k, shape.precision) for length in lengths)
    else:
        sub_shapes = tuple(GEMMShape(shape.m, length, shape.k, shape.precision) for length in lengths)
    return MappingPlan(
        original=shape,
        dimension=dimension,
        num_nodes=usable_nodes,
        sub_shapes=sub_shapes,
    )


def gemm_stash_bytes(shape: GEMMShape, num_nodes: int) -> int:
    """Bytes stashed and locked in the L3 to run ``shape`` split across ``num_nodes`` nodes.

    The operand every node reads in full (B when rows are split, A when
    columns are split) is stashed once, and each node that receives work
    stashes its own A and C rows (or B and C columns), sized by the widest
    slice of :func:`partition_gemm`'s split.  This is
    :attr:`MappingPlan.stash_bytes` without building the plan.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    element = shape.precision.bytes_per_element
    dimension, extent = _split(shape)
    usable_nodes = min(num_nodes, extent)
    widest = -(-extent // usable_nodes)
    if dimension == "rows":
        shared_bytes = shape.k * shape.n * element
        private_bytes = widest * (shape.k + shape.n) * element
    else:
        shared_bytes = shape.m * shape.k * element
        private_bytes = widest * (shape.k + shape.m) * element
    return shared_bytes + usable_nodes * private_bytes


def in_order_sum(values: Iterable[float]) -> float:
    """Add floats left to right, starting from ``0.0``.

    This is the one float reducer for sums that feed a reported number
    (DESIGN.md section 4.2): ``sum()`` over floats compensates its rounding
    on Python 3.12 and later, so its last bit would depend on the
    interpreter.  On 3.10 and 3.11 the two agree bit for bit.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def layer_stream_seconds(
    layers: Iterable[GEMMShape],
    num_nodes: int,
    node_seconds: Callable[[GEMMShape], float],
    layer_overhead_s: float = 0.0,
) -> float:
    """Seconds to run a stream of GEMM layers in order, each split across ``num_nodes``.

    Layers are data dependent, so each starts when the previous one ends and
    lasts as long as its slowest node: ``node_seconds`` times one node's
    sub-GEMM, and ``layer_overhead_s`` is a fixed per-layer cost (e.g. a host
    fence).  A layer's seconds depend only on its shape, so each distinct
    shape is partitioned (:func:`partition_gemm`) and timed once per call,
    the first time it appears, and ``node_seconds`` runs once per distinct
    sub-shape of it (:attr:`MappingPlan.sub_shapes`, in node order); the
    maximum over those equals the maximum over the nodes.  The stream sum
    still adds one ``layer + layer_overhead_s`` per layer, left to right as
    :func:`in_order_sum` does (DESIGN.md section 4.2).
    """
    seconds: Dict[GEMMShape, float] = {}
    total = 0.0
    for shape in layers:
        layer = seconds.get(shape)
        if layer is None:
            layer = seconds[shape] = max(
                node_seconds(sub) for sub in partition_gemm(shape, num_nodes).sub_shapes
            )
        total += layer + layer_overhead_s
    return total


@dataclass
class GemmPlusSchedule:
    """Timing of a GEMM+ workload on the compute nodes (Fig. 5(c)).

    ``mmae_seconds`` is the per-node MMAE busy time summed over the workload's
    GEMMs; ``cpu_seconds`` is the CPU time spent on the non-GEMM tail operators
    (already distributed across cores when the mapping scheme is on, on the
    single launching core when it is off).  With the mapping scheme the CPU
    work overlaps with the next layer's GEMM; without it every layer's tail
    serialises after its GEMM and streams cold data.
    """

    mmae_seconds: float
    cpu_seconds: float
    stash_seconds: float
    mapping_enabled: bool
    #: Fraction of the CPU tail that cannot be hidden even with the mapping
    #: scheme (the final layer's tail plus scheduling slack).
    exposed_tail_fraction: float = 0.08
    #: Bandwidth degradation of the CPU tail when its inputs are not locked in
    #: the L3 (cache misses to DRAM roughly halve the streaming rate).
    unmapped_cpu_slowdown: float = 2.0

    @property
    def total_seconds(self) -> float:
        """End-to-end workload time under the overlap model."""
        if self.mapping_enabled:
            hidden_cpu = self.cpu_seconds * (1.0 - self.exposed_tail_fraction)
            exposed_cpu = self.cpu_seconds * self.exposed_tail_fraction
            # Stash requests for weights are issued ahead of the tiles and overlap
            # with compute, but a dependent layer's activations can only be
            # stashed once the previous layer has produced them, so part of the
            # stash traffic stays on the critical path.
            exposed_stash = min(self.stash_seconds, 0.10 * self.mmae_seconds + 1e-9)
            return max(self.mmae_seconds, hidden_cpu) + exposed_cpu + exposed_stash
        # Without the mapping scheme: no stash (operands stream from DRAM on
        # demand), and the CPU tail serialises at degraded bandwidth.
        return self.mmae_seconds + self.cpu_seconds * self.unmapped_cpu_slowdown


def schedule_gemm_plus(
    mmae_seconds: float,
    cpu_seconds: float,
    stash_seconds: float,
    mapping_enabled: bool = True,
) -> GemmPlusSchedule:
    """Build the GEMM+ overlap schedule from the per-node component times."""
    for name, value in (("mmae", mmae_seconds), ("cpu", cpu_seconds), ("stash", stash_seconds)):
        if value < 0:
            raise ValueError(f"{name} time cannot be negative")
    return GemmPlusSchedule(
        mmae_seconds=mmae_seconds,
        cpu_seconds=cpu_seconds,
        stash_seconds=stash_seconds,
        mapping_enabled=mapping_enabled,
    )


def partition_workload(
    workload: WorkloadGraph, num_nodes: int
) -> List[List[GEMMShape]]:
    """Per-node GEMM lists for a full workload, partitioning every layer's GEMM.

    Layers execute in order (they are data dependent), so each layer's GEMM is
    split across all nodes rather than assigning whole layers to nodes.
    """
    per_node: List[List[GEMMShape]] = [[] for _ in range(num_nodes)]
    for shape in workload.layers():
        plan = partition_gemm(shape, num_nodes)
        for assignment in plan.assignments:
            per_node[assignment.node_id].append(assignment.shape)
        # Nodes beyond the usable count simply skip this layer.
    return per_node
