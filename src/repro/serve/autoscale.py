"""Fleet autoscaling and capacity-derived KV budgets for the serving loop.

Two related pieces of the elasticity story live here:

* :class:`Autoscaler` — a windowed, hysteresis-guarded controller that decides
  when the step-batching runner should grow or shrink its fleet of group
  servers.  Scale-out triggers on sustained queue-depth or SLO-attainment
  pressure; scale-in triggers on sustained idleness and *drains* a group
  (stop admitting, let residents finish, merge the capacity back).  New
  capacity pays a modeled provisioning delay before it serves.  The
  controller is a pure state machine over per-window observations — the
  peak queue depth, completions and SLO misses, passed as plain ints — so
  the golden conformance corpus can replay it against an independently
  computed scale-event timeline (``tests/golden/autoscale-*.json``).
* :func:`derive_kv_budget` — sizes the per-server KV budget from the modeled
  hardware instead of a hand-picked knob: each node's DRAM capacity share
  (:meth:`repro.mem.dram.DRAMModel.node_capacity_bytes`) minus the resident
  model weights under the active :class:`~repro.parallel.ParallelismSpec`
  (``tp``/``tp2d`` sharding divides the weights across the group, so wider
  groups free more KV room per node).

See DESIGN.md section 11 for the pressure signals and their thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.config import MACOConfig
from repro.gemm.precision import Precision
from repro.mem.dram import DRAMModel

__all__ = [
    "AutoscalePolicy",
    "Autoscaler",
    "ScaleEvent",
    "AutoscaleStats",
    "KVBudget",
    "derive_kv_budget",
]


@dataclass(frozen=True)
class AutoscalePolicy:
    """The autoscaler's thresholds, windows and delays (all per *group* server).

    ``min_groups``/``max_groups`` bound the committed fleet at every instant.
    Pressure is evaluated once per ``window_s`` of simulated time and must
    persist for ``sustain_windows`` consecutive windows before the controller
    acts (the hysteresis guard); after any decision a ``cooldown_s`` quiet
    period suppresses further decisions so the fleet cannot flap.  A
    scaled-out group is *committed* immediately (it counts against
    ``max_groups`` and accrues node-seconds) but only starts serving after
    ``provision_delay_s``.
    """

    min_groups: int = 1
    max_groups: int = 1
    window_s: float = 0.25
    sustain_windows: int = 2
    scale_out_queue_depth: float = 4.0
    scale_out_attainment: float = 0.9
    scale_in_queue_depth: float = 0.5
    cooldown_s: float = 1.0
    provision_delay_s: float = 0.5

    def __post_init__(self) -> None:
        if self.min_groups < 1:
            raise ValueError(f"min_groups must be at least 1, got {self.min_groups}")
        if self.max_groups < self.min_groups:
            raise ValueError(
                f"max_groups ({self.max_groups}) cannot be below "
                f"min_groups ({self.min_groups})")
        if self.window_s <= 0:
            raise ValueError(f"window_s must be positive, got {self.window_s}")
        if self.sustain_windows < 1:
            raise ValueError(
                f"sustain_windows must be at least 1, got {self.sustain_windows}")
        if self.scale_out_queue_depth <= 0:
            raise ValueError("scale_out_queue_depth must be positive")
        if not 0.0 < self.scale_out_attainment <= 1.0:
            raise ValueError("scale_out_attainment must be in (0, 1]")
        if self.scale_in_queue_depth < 0:
            raise ValueError("scale_in_queue_depth cannot be negative")
        if self.scale_in_queue_depth >= self.scale_out_queue_depth:
            raise ValueError(
                "scale_in_queue_depth must sit below scale_out_queue_depth "
                "(the hysteresis band)")
        if self.cooldown_s < 0 or self.provision_delay_s < 0:
            raise ValueError("cooldown_s and provision_delay_s cannot be negative")


class Autoscaler:
    """The pure decision state machine behind the fleet lifecycle.

    The event loop calls :meth:`evaluate` once per elapsed window with the
    window's three observations as plain ints — the peak waiting-queue
    depth, the completions and how many of them missed an SLO — plus the
    committed group count (serving, draining or provisioning — everything
    that costs node-seconds) and how many of those are draining.  The
    return value is ``None`` or a ``(direction, reason)`` pair:
    ``("out", "queue-pressure")``, ``("out", "slo-pressure")`` or
    ``("in", "idle")``.  Scale-out is bounded
    by the *committed* count (draining capacity still occupies nodes, so the
    fleet can never exceed ``max_groups`` at any instant); scale-in is
    bounded by the *serving* count (committed minus draining), so stacked
    drains cannot sink the fleet below ``min_groups``.  Mechanics — which
    group to provision or drain, the provisioning delay, admissions — belong
    to the caller; keeping the controller pure makes it replayable by the
    golden conformance corpus.

    ``time`` may be in any unit as long as ``cooldown`` — the policy's
    ``cooldown_s`` by default — is in the same one; the event engine
    evaluates windows in integer ticks and passes the cooldown in ticks.
    """

    def __init__(self, policy: AutoscalePolicy, cooldown: Optional[float] = None) -> None:
        self.policy = policy
        self.cooldown = policy.cooldown_s if cooldown is None else cooldown
        self._out_streak = 0
        self._slo_streak = 0
        self._in_streak = 0
        self._cooldown_until = -math.inf

    def evaluate(
        self,
        time: float,
        queue_depth_peak: int,
        served: int,
        slo_misses: int,
        committed_groups: int,
        draining_groups: int = 0,
    ) -> Optional[Tuple[str, str]]:
        """Digest one window's observations; return a scale decision or ``None``."""
        policy = self.policy
        serving = committed_groups - draining_groups
        depth_pressure = queue_depth_peak > policy.scale_out_queue_depth * serving
        attainment = 1.0 - slo_misses / served if served else None
        slo_pressure = attainment is not None and attainment < policy.scale_out_attainment
        if depth_pressure or slo_pressure:
            self._out_streak += 1
            self._slo_streak = self._slo_streak + 1 if slo_pressure else 0
            self._in_streak = 0
        elif queue_depth_peak <= policy.scale_in_queue_depth * serving:
            self._in_streak += 1
            self._out_streak = 0
            self._slo_streak = 0
        else:
            # Inside the hysteresis band: neither streak advances.
            self._out_streak = 0
            self._slo_streak = 0
            self._in_streak = 0
        if time < self._cooldown_until:
            return None
        if self._out_streak >= policy.sustain_windows:
            if committed_groups < policy.max_groups:
                reason = (
                    "slo-pressure"
                    if self._slo_streak >= policy.sustain_windows
                    else "queue-pressure")
                self._reset(time)
                return ("out", reason)
            return None
        if self._in_streak >= policy.sustain_windows:
            if serving > policy.min_groups:
                self._reset(time)
                return ("in", "idle")
            return None
        return None

    def _reset(self, time: float) -> None:
        self._out_streak = 0
        self._slo_streak = 0
        self._in_streak = 0
        self._cooldown_until = time + self.cooldown


@dataclass(frozen=True)
class ScaleEvent:
    """One fleet-size decision, with the pressure reading that drove it.

    ``groups_before``/``groups_after`` count *committed* groups.  A scale-out
    commits group ``group_id`` at ``time_s`` but the group serves only from
    ``serving_from_s`` (the provisioning delay); a scale-in marks group
    ``group_id`` draining at ``time_s`` and the capacity merges back at
    ``stopped_s``, once the residents finish (equal to ``time_s`` when the
    group was idle).
    """

    time_s: float
    direction: str  # "out" | "in"
    reason: str  # "queue-pressure" | "slo-pressure" | "idle"
    groups_before: int
    groups_after: int
    queue_depth: int
    group_id: Optional[int] = None
    serving_from_s: Optional[float] = None  # scale-out only
    stopped_s: Optional[float] = None  # scale-in only


@dataclass(frozen=True)
class AutoscaleStats:
    """The autoscale section of a :class:`~repro.serve.report.ServeReport`.

    ``timeline`` samples the committed group count at every change —
    ``(time_s, groups)`` pairs starting at the first arrival — and
    ``node_seconds`` integrates it: every committed group is charged from
    commitment (including the provisioning delay) to stop, times the nodes
    per group.  ``goodput_per_node_second`` is SLO-met completions per
    node-second, the fleet-efficiency figure the fixed-fleet baseline cannot
    improve while idle.
    """

    min_groups: int
    max_groups: int
    nodes_per_group: int
    provision_delay_s: float
    node_seconds: float
    goodput_per_node_second: float
    events: Tuple[ScaleEvent, ...]
    timeline: Tuple[Tuple[float, int], ...]


@dataclass(frozen=True)
class KVBudget:
    """A resolved per-server KV budget and where it came from.

    ``source`` is ``"auto"`` (derived from the DRAM capacity model),
    ``"explicit"`` (the caller passed bytes) or ``"default"``
    (:data:`~repro.serve.simulator.DEFAULT_KV_BUDGET_BYTES`).  The provenance
    fields are populated for auto budgets so feasibility errors can explain
    the sizing.
    """

    budget_bytes: float
    source: str
    capacity_bytes: Optional[int] = None
    weight_bytes: Optional[int] = None
    sharers: int = 1
    workload: Optional[str] = None

    def describe(self) -> str:
        """One-line provenance, used by feasibility error messages."""
        if self.source != "auto":
            return f"{self.budget_bytes / 1e6:.1f} MB ({self.source})"
        return (
            f"{self.budget_bytes / 1e6:.1f} MB auto-derived: "
            f"{self.capacity_bytes / 1e6:.1f} MB node DRAM capacity - "
            f"{self.weight_bytes / 1e6:.1f} MB resident weights "
            f"({self.workload}, sharded {self.sharers}x)")


def derive_kv_budget(
    config: MACOConfig,
    pairs: Sequence[Tuple[str, Precision]],
    sharers: int = 1,
    num_nodes: int = 1,
) -> KVBudget:
    """Size the per-server KV budget from the DRAM capacity model.

    Each node's share of the aggregate DRAM capacity must hold the resident
    model weights plus the KV cache.  The weights come from the workload
    graph's :attr:`~repro.workloads.graph.WorkloadGraph.weight_bytes`; a
    tensor-parallel group of ``sharers`` nodes holds each model sharded, so
    the per-node weight share divides by the group degree (rounded up).
    Co-resident workloads share a server one batch at a time, so the budget
    subtracts the *largest* weight share among the trace's distinct
    ``(workload, precision)`` pairs, not their sum.  Raises ``ValueError``
    with full provenance when the weights alone exceed the capacity.
    """
    from repro.workloads.registry import workload_graph_by_name

    if sharers < 1:
        raise ValueError(f"sharers must be at least 1, got {sharers}")
    if not pairs:
        raise ValueError("derive_kv_budget needs at least one (workload, precision) pair")
    capacity = DRAMModel(config=config.memory.dram).node_capacity_bytes(num_nodes)
    weight_share = 0
    dominant = None
    for workload, precision in sorted(set(pairs), key=lambda p: (p[0], p[1].name)):
        graph = workload_graph_by_name(workload, precision)
        share = -(-graph.weight_bytes // sharers)  # ceil division
        if share > weight_share:
            weight_share = share
            dominant = workload
    budget = capacity - weight_share
    if budget <= 0:
        raise ValueError(
            f"model weights alone exceed the node DRAM capacity: workload "
            f"{dominant!r} keeps {weight_share / 1e6:.1f} MB resident per node "
            f"(sharded {sharers}x) but each of {num_nodes} nodes owns only "
            f"{capacity / 1e6:.1f} MB; widen the parallelism group or grow "
            "DRAMConfig.channel_capacity_bytes")
    return KVBudget(
        budget_bytes=float(budget),
        source="auto",
        capacity_bytes=capacity,
        weight_bytes=weight_share,
        sharers=sharers,
        workload=dominant,
    )
