"""Collective-communication cost model priced on the mesh NoC.

Sharding a workload across compute nodes introduces traffic the single-node
model never sees: tensor-parallel GEMMs exchange partial sums or gathered
output slices after every layer, and pipeline stages hand activations to
their successor.  This module prices those collectives on the *actual* mesh
— X-Y routes, per-link bandwidth, router pipeline latency — instead of a
flat bandwidth constant, so a group whose ring wraps around the mesh pays
more than a compact one, and co-scheduled groups that share links slow each
other down.

Five primitives cover the strategies in :mod:`repro.parallel.partitioner`:

* **ring all-reduce** — the standard bandwidth-optimal algorithm: ``p``
  nodes arranged in a ring run ``p - 1`` reduce-scatter steps followed by
  ``p - 1`` all-gather steps, each step moving ``payload / p`` bytes per
  node to its ring successor.  Every step's transfers happen concurrently,
  so the step time is set by the ring edge whose X-Y route crosses the
  most-loaded mesh link.
* **ring all-gather** — the second half of the all-reduce on its own
  (``p - 1`` steps), used when nodes hold disjoint output slices that must
  be replicated rather than summed.
* **point-to-point** — one X-Y routed transfer, used for pipeline-stage
  activation hand-off.
* **chain multicast** — a root's panel pipelined along the open chain of a
  sub-group (no wrap-around), every listed sub-group concurrently; the 2-D
  SUMMA planner prices its per-step row and column broadcasts with this.
* **asymmetric gather** — the all-gather wire pattern with every payload
  byte costed ``gather_asymmetry`` times the broadcast direction.  Real
  meshes collect measurably slower than they distribute (csl-experiments
  measured a D2H gather at 0.298 words/cycle against an H2D broadcast at
  0.868 — 2.9x slower per byte); the knob is configurable and only the
  serialization term scales, router latency is direction-agnostic.

Contention between concurrent groups is modelled by overlaying the
*background* groups' ring edges onto the same link-load map before taking
the bottleneck: the serving simulator passes every co-scheduled group as
background, which is the steady-state worst case, consistent with how
:func:`repro.core.perf.memory_environment` treats DRAM and L3 sharing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.noc.mesh import MeshTopology
from repro.noc.network import NocConfig
from repro.noc.routing import route_hops, route_links

__all__ = ["DEFAULT_GATHER_ASYMMETRY", "CollectiveCostModel"]

Link = Tuple[int, int]

#: Default gather-vs-broadcast per-byte cost ratio: csl-experiments measured
#: D2H gathers at 0.298 words/cycle against H2D broadcasts at 0.868 (~2.9x).
DEFAULT_GATHER_ASYMMETRY = 2.9


@dataclass
class CollectiveCostModel:
    """Prices collectives on the mesh described by a :class:`NocConfig`.

    A ring step's bottleneck link load and longest route depend only on its
    edges and the background groups, so the instance memoises them per
    ``(edges, background)``: a plan re-prices the same rings for every GEMM
    of every phase, and only the first pays for the X-Y routing.
    """

    config: NocConfig = field(default_factory=NocConfig)
    #: Header / flow-control overhead applied to every payload byte.
    protocol_overhead: float = 0.08
    #: Per-byte cost of collecting relative to distributing (>= applied to
    #: :meth:`gather_seconds` only; broadcasts and rings stay symmetric).
    gather_asymmetry: float = DEFAULT_GATHER_ASYMMETRY

    def __post_init__(self) -> None:
        if self.protocol_overhead < 0:
            raise ValueError("protocol_overhead cannot be negative")
        if self.gather_asymmetry <= 0:
            raise ValueError("gather_asymmetry must be positive")
        self.topology = MeshTopology(self.config.width, self.config.height)
        self._routes: Dict[Tuple, Tuple[int, int]] = {}

    # --------------------------------------------------------------- ring shape
    def ring_edges(self, group: Sequence[int]) -> List[Link]:
        """The directed ``node -> successor`` edges of the group's ring.

        The ring follows the given group order and wraps around; a group of
        one node has no edges (nothing to exchange).
        """
        nodes = self._validated_group(group)
        if len(nodes) < 2:
            return []
        return [(nodes[i], nodes[(i + 1) % len(nodes)]) for i in range(len(nodes))]

    def chain_edges(self, group: Sequence[int]) -> List[Link]:
        """The open chain of the group — the ring without the wrap-around edge.

        A pipelined multicast forwards the payload root -> next -> ... -> last,
        so only consecutive pairs carry traffic; a single-node chain has none.
        """
        nodes = self._validated_group(group)
        return [(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)]

    def _validated_group(self, group: Sequence[int]) -> List[int]:
        nodes = list(group)
        if not nodes:
            raise ValueError("node group cannot be empty")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"node group has duplicate members: {nodes}")
        for node in nodes:
            if not 0 <= node < self.topology.num_nodes:
                raise ValueError(
                    f"node {node} outside the {self.topology.width}x{self.topology.height} mesh",
                )
        return nodes

    def _link_loads(self, edges: Iterable[Link]) -> Dict[Link, int]:
        """How many concurrent flows each directed mesh link carries."""
        loads: Dict[Link, int] = {}
        for src, dst in edges:
            for link in route_links(self.topology, src, dst):
                loads[link] = loads.get(link, 0) + 1
        return loads

    def _bottleneck_load(self, edges: Sequence[Link], background: Sequence[Sequence[int]]) -> int:
        """Worst link load seen by ``edges`` when background rings run concurrently.

        Background groups contribute their own ring edges to the load map
        (every group is assumed to be mid-collective — the steady-state worst
        case); the returned load is the maximum over the links the *foreground*
        edges actually traverse, so background traffic on disjoint links does
        not slow the group down.
        """
        overlay = list(edges)
        for group in background:
            overlay.extend(self.ring_edges(group))
        loads = self._link_loads(overlay)
        worst = 1
        for src, dst in edges:
            for link in route_links(self.topology, src, dst):
                worst = max(worst, loads[link])
        return worst

    def _step_seconds(
        self,
        edges: Sequence[Link],
        chunk_bytes: float,
        background: Sequence[Sequence[int]],
    ) -> float:
        """Time of one ring step: every edge moves ``chunk_bytes`` concurrently."""
        key = (tuple(edges), tuple(tuple(group) for group in background))
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = (
                self._bottleneck_load(edges, background),
                max(route_hops(self.topology, src, dst) for src, dst in edges),
            )
        load, max_hops = route
        wire_bytes = chunk_bytes * (1.0 + self.protocol_overhead)
        serialization = wire_bytes * load / self.config.link_bandwidth_bytes_per_s
        latency = (max_hops + 1) * self.config.router_pipeline_cycles * self.config.cycle_time_s
        return serialization + latency

    # -------------------------------------------------------------- collectives
    def ring_allreduce_seconds(
        self,
        group: Sequence[int],
        payload_bytes: int,
        background: Sequence[Sequence[int]] = (),
    ) -> float:
        """Seconds to all-reduce ``payload_bytes`` (per node) across the group.

        ``2 * (p - 1)`` ring steps of ``payload / p`` bytes each: the
        reduce-scatter half leaves every node with one fully reduced shard,
        the all-gather half replicates the shards.  Zero for a single-node
        group or an empty payload.
        """
        if payload_bytes < 0:
            raise ValueError("payload cannot be negative")
        edges = self.ring_edges(group)
        if not edges or payload_bytes == 0:
            return 0.0
        p = len(list(group))
        chunk = payload_bytes / p
        return 2 * (p - 1) * self._step_seconds(edges, chunk, background)

    def all_gather_seconds(
        self,
        group: Sequence[int],
        payload_bytes: int,
        background: Sequence[Sequence[int]] = (),
    ) -> float:
        """Seconds to replicate disjoint ``payload / p`` slices to every node.

        The all-gather half of the ring all-reduce on its own: ``p - 1``
        steps of ``payload / p`` bytes — exactly half the all-reduce cost for
        the same payload, which the tests pin down.
        """
        if payload_bytes < 0:
            raise ValueError("payload cannot be negative")
        edges = self.ring_edges(group)
        if not edges or payload_bytes == 0:
            return 0.0
        p = len(list(group))
        chunk = payload_bytes / p
        return (p - 1) * self._step_seconds(edges, chunk, background)

    def point_to_point_seconds(
        self,
        src: int,
        dst: int,
        payload_bytes: int,
        background: Sequence[Sequence[int]] = (),
    ) -> float:
        """Seconds for one X-Y routed transfer from ``src`` to ``dst``.

        Used for pipeline-stage activation hand-off; a same-node transfer is
        free (the activation never leaves the node's L2/L3 slice).
        """
        if payload_bytes < 0:
            raise ValueError("payload cannot be negative")
        self._validated_group([src])
        self._validated_group([dst])
        if src == dst or payload_bytes == 0:
            return 0.0
        return self._step_seconds([(src, dst)], float(payload_bytes), background)

    def multicast_seconds(
        self,
        groups: Sequence[Sequence[int]],
        payload_bytes: float,
        background: Sequence[Sequence[int]] = (),
    ) -> float:
        """Seconds for every sub-group to chain-multicast ``payload_bytes`` at once.

        Each sub-group's first node forwards the payload along the group's
        open chain (a pipelined multicast crosses every chain link exactly
        once), and all sub-groups run concurrently — the SUMMA planner passes
        every grid row (or column) here, so a step's time is set by the
        worst-loaded link across all the chains plus the deepest chain's
        router latency.  Zero when no chain has an edge (all singleton
        sub-groups) or the payload is empty.
        """
        if payload_bytes < 0:
            raise ValueError("payload cannot be negative")
        edges: List[Link] = []
        for group in groups:
            edges.extend(self.chain_edges(group))
        if not edges or payload_bytes == 0:
            return 0.0
        return self._step_seconds(edges, float(payload_bytes), background)

    def gather_seconds(
        self,
        group: Sequence[int],
        payload_bytes: int,
        background: Sequence[Sequence[int]] = (),
    ) -> float:
        """Seconds to collect and replicate ``payload_bytes`` with asymmetric pricing.

        The wire pattern is the ring all-gather (``p - 1`` steps of
        ``payload / p`` bytes), but every byte is costed
        :attr:`gather_asymmetry` times the broadcast direction — only the
        serialization term scales; the per-hop router latency is
        direction-agnostic.  With ``gather_asymmetry=1`` this degenerates to
        :meth:`all_gather_seconds` exactly.
        """
        if payload_bytes < 0:
            raise ValueError("payload cannot be negative")
        edges = self.ring_edges(group)
        if not edges or payload_bytes == 0:
            return 0.0
        p = len(list(group))
        chunk = payload_bytes / p * self.gather_asymmetry
        return (p - 1) * self._step_seconds(edges, chunk, background)
