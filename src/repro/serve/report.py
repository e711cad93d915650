"""Aggregated results of a serving simulation.

:class:`ServeReport` is the single artefact a simulation run produces: fleet
throughput and tail latency, per-tenant and per-node breakdowns, queueing and
context-switch statistics, and — for LLM-style workloads — the serving
metrics that matter at iteration granularity:

* **TTFT** (time to first token): arrival to the end of the request's first
  step, i.e. how long a user stares at an empty screen;
* **TPOT** (time per output token): the decode-side pace, ``(finish - first
  token) / output tokens``, including any preemption stalls;
* **SLO attainment**: the fraction of requests that met *both* of their
  TTFT/TPOT targets (a request without targets counts as met);
* **goodput**: throughput counting only SLO-met requests — the number a
  capacity planner actually cares about under overload.

It renders as aligned ASCII tables (for eyeballs and diffs) or a stable JSON
document (``to_json`` sorts keys, so two runs with the same seed produce
byte-identical output — the determinism tests compare these strings directly).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import render_table
from repro.core.mapping import in_order_sum
from repro.serve.autoscale import AutoscalePolicy, AutoscaleStats, ScaleEvent

__all__ = [
    "TenantStats",
    "NodeStats",
    "ServeReport",
    "build_report_from_columns",
]


@dataclass(frozen=True)
class TenantStats:
    """Per-tenant serving outcome: request counts, throughput, tail latency."""

    name: str
    requests: int
    throughput_rps: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    wait_mean_s: float
    ttft_p50_s: float = 0.0
    ttft_p95_s: float = 0.0
    ttft_p99_s: float = 0.0
    tpot_p50_s: float = 0.0
    tpot_p95_s: float = 0.0
    tpot_p99_s: float = 0.0
    slo_attainment: float = 1.0
    goodput_rps: float = 0.0
    preemptions: int = 0


@dataclass(frozen=True)
class NodeStats:
    """Per-node serving outcome: completions, utilization, tenant switches."""

    node_id: int
    completed: int
    busy_s: float
    utilization: float
    tenant_switches: int
    switch_s: float
    preemptions: int = 0


@dataclass(frozen=True)
class ServeReport:
    """Everything a serving simulation measured, in one frozen record."""

    trace: str
    scheduler: str
    num_nodes: int
    total_requests: int
    makespan_s: float
    throughput_rps: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    queue_depth_mean: float
    queue_depth_max: int
    context_switch_s: float
    batching: str = "request"
    ttft_p50_s: float = 0.0
    ttft_p95_s: float = 0.0
    ttft_p99_s: float = 0.0
    tpot_p50_s: float = 0.0
    tpot_p95_s: float = 0.0
    tpot_p99_s: float = 0.0
    slo_attainment: float = 1.0
    goodput_rps: float = 0.0
    preemptions: int = 0
    tenants: List[TenantStats] = field(default_factory=list)
    nodes: List[NodeStats] = field(default_factory=list)
    #: Populated only by autoscaled runs (``None`` keeps fixed-fleet reports
    #: byte-identical to their pre-autoscale form, and lets the min==max
    #: neutrality check compare ``replace(report, autoscale=None)`` strings).
    autoscale: Optional[AutoscaleStats] = None

    @property
    def mean_utilization(self) -> float:
        """Average busy fraction across the fleet's nodes."""
        if not self.nodes:
            return 0.0
        return in_order_sum(node.utilization for node in self.nodes) / len(self.nodes)

    def to_dict(self) -> dict:
        """The report as plain nested dicts/lists (JSON-able, round-trips).

        Equal to ``dataclasses.asdict(self)``, tuples still tuples, without
        its ``copy.deepcopy`` of every leaf: the leaves are immutable scalars.
        """
        return _plain(self)

    def to_json(self, indent: int = 2) -> str:
        """Stable JSON text: sorted keys, so identical runs compare equal."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Render the report as ASCII tables plus a fleet summary line."""
        def ms(seconds: float) -> str:
            return f"{seconds * 1e3:.2f}"

        tenant_rows = [
            [stats.name, stats.requests, f"{stats.throughput_rps:.2f}",
             ms(stats.latency_p50_s), ms(stats.latency_p95_s), ms(stats.latency_p99_s),
             ms(stats.wait_mean_s)]
            for stats in self.tenants
        ]
        slo_rows = [
            [stats.name, ms(stats.ttft_p50_s), ms(stats.ttft_p95_s),
             ms(stats.tpot_p50_s), ms(stats.tpot_p95_s),
             f"{stats.slo_attainment * 100:.1f}%", f"{stats.goodput_rps:.2f}",
             stats.preemptions]
            for stats in self.tenants
        ]
        node_rows = [
            [stats.node_id, stats.completed, f"{stats.busy_s * 1e3:.1f}",
             f"{stats.utilization * 100:.1f}%", stats.tenant_switches, stats.preemptions]
            for stats in self.nodes
        ]
        sections = [
            f"Serve report - {self.scheduler} scheduler ({self.batching} batching), "
            f"trace {self.trace}: "
            f"{self.total_requests} requests on {self.num_nodes} nodes "
            f"in {self.makespan_s:.3f} s ({self.throughput_rps:.2f} req/s, "
            f"goodput {self.goodput_rps:.2f} req/s)",
            render_table(
                ["tenant", "requests", "req/s", "p50 (ms)", "p95 (ms)", "p99 (ms)", "mean wait (ms)"],
                tenant_rows, title="Per-tenant latency and throughput"),
            render_table(
                ["tenant", "ttft p50 (ms)", "ttft p95 (ms)", "tpot p50 (ms)", "tpot p95 (ms)",
                 "slo met", "goodput (req/s)", "preemptions"],
                slo_rows, title="Per-tenant token latency and SLO attainment"),
            render_table(
                ["node", "completed", "busy (ms)", "utilization", "tenant switches", "preemptions"],
                node_rows, title="Per-node utilization"),
            (f"fleet: p50 {ms(self.latency_p50_s)} ms, p95 {ms(self.latency_p95_s)} ms, "
             f"p99 {ms(self.latency_p99_s)} ms | ttft p95 {ms(self.ttft_p95_s)} ms, "
             f"tpot p95 {ms(self.tpot_p95_s)} ms | slo attainment "
             f"{self.slo_attainment * 100:.1f}% | mean utilization "
             f"{self.mean_utilization * 100:.1f}% | queue depth mean {self.queue_depth_mean:.2f} "
             f"max {self.queue_depth_max} | context-switch time {self.context_switch_s * 1e3:.3f} ms"
             f" | preemptions {self.preemptions}"),
        ]
        if self.autoscale is not None:
            auto = self.autoscale
            sections.append(
                f"autoscale: {auto.min_groups}..{auto.max_groups} groups of "
                f"{auto.nodes_per_group} node(s), {len(auto.events)} scale events, "
                f"{auto.node_seconds:.3f} node-seconds, goodput "
                f"{auto.goodput_per_node_second:.3f} req/node-s "
                f"(provisioning delay {auto.provision_delay_s:.2f} s)")
        return "\n\n".join(sections)


def _plain(value):
    """Rebuild a record's dataclasses as dicts and its lists and tuples in kind."""
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(item) for item in value)
    if hasattr(value, "__dataclass_fields__"):
        return {spec.name: _plain(getattr(value, spec.name)) for spec in fields(value)}
    return value


# -------------------------------------------------------- columnar assembly
#: Integer time base of the event engine: one tick is a nanosecond (defined
#: here so the builder has no import cycle with :mod:`repro.serve.engine`).
TICKS_PER_SECOND = 10**9

#: The engine's int64 clock: every arrival, SLO deadline and completion tick
#: lies in ``[0, TICK_LIMIT)``, so the int64 maximum itself stays free for
#: the no-deadline sentinel (:data:`~repro.serve.scheduler.NO_DEADLINE`).
TICK_LIMIT = 2**63 - 1


def _exact_sum(values: np.ndarray) -> int:
    """Sum an int64 array exactly, immune to int64 overflow.

    The tick-domain accumulators must be exact — equal columns must give
    byte-identical reports — so the sum is split into 32-bit
    halves: ``v == (v >> 32) << 32 | (v & 0xffffffff)`` holds per element
    (arithmetic shift), each half-sum stays below ``2**63`` for any array
    shorter than ``2**31`` elements, and the halves recombine as Python
    ints.  Fully vectorised, no overflow guard or scalar fallback needed.
    """
    if not len(values):
        return 0
    high = int((values >> 32).sum(dtype=np.int64))
    low = int((values & np.int64(0xFFFFFFFF)).sum(dtype=np.int64))
    return (high << 32) + low


def _select_ranks(values: np.ndarray) -> Tuple[float, float, float]:
    """The p50/p95/p99 nearest-rank elements of a non-empty array.

    One ``np.partition`` call with all three order statistics places each at
    its sorted index in a single pass — the same elements three separate
    selections would pick, for a third of the copies.
    """
    count = len(values)
    ranks = [max(1, math.ceil(q / 100.0 * count)) - 1 for q in (50, 95, 99)]
    part = np.partition(values, sorted(set(ranks)))
    return float(part[ranks[0]]), float(part[ranks[1]]), float(part[ranks[2]])


def _tick_percentiles(ticks: np.ndarray) -> Dict[str, float]:
    """Mean/p50/p95/p99 of an int64 tick array, in seconds."""
    if not len(ticks):
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    p50, p95, p99 = _select_ranks(ticks)
    return {
        "mean": _exact_sum(ticks) / (len(ticks) * TICKS_PER_SECOND),
        "p50": p50 / TICKS_PER_SECOND,
        "p95": p95 / TICKS_PER_SECOND,
        "p99": p99 / TICKS_PER_SECOND,
    }


def _float_percentiles(values: np.ndarray) -> Dict[str, float]:
    """p50/p95/p99 of a float array (per-request TPOT, already in seconds)."""
    if not len(values):
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    p50, p95, p99 = _select_ranks(values)
    return {"p50": p50, "p95": p95, "p99": p99}


def _queue_depth_max(
    arrival_ticks: np.ndarray, start_ticks: np.ndarray, requeued: Optional[np.ndarray] = None
) -> int:
    """Peak number of simultaneously waiting requests.

    A request waits from its arrival to its first admission, and again from
    each preemption to its re-admission (the ``requeued`` interval rows); the
    peak is the running maximum of the +-1 event sweep, with waits beginning
    ordered before waits ending at equal ticks (a request arriving the
    instant another starts sees that request still queued).  Without
    re-queues the sweep's maximum is always attained just after the last
    arrival of some arrival tick, so instead of sorting the merged event
    stream it suffices to evaluate, at every arrival, ``#{arrivals <= t} -
    #{starts < t}`` — two ``searchsorted`` passes over the already-sorted
    arrival column plus one sort of the start column.
    """
    count = len(arrival_ticks)
    if not count:
        return 0
    if requeued is not None and len(requeued):
        ticks = np.concatenate([arrival_ticks, requeued[:, 0], start_ticks, requeued[:, 1]])
        begins = count + len(requeued)
        delta = np.concatenate([np.ones(begins, np.int64), -np.ones(begins, np.int64)])
        order = np.lexsort((-delta, ticks))
        return int(np.cumsum(delta[order]).max())
    starts = np.sort(start_ticks)
    # #{arrivals <= t}: the arrival column is sorted, so this is the index
    # just past each tick's tie group — every group member inherits the last
    # member's index via a backward minimum over the group boundaries.
    boundary = np.empty(count, bool)
    boundary[-1] = True
    np.not_equal(arrival_ticks[1:], arrival_ticks[:-1], out=boundary[:-1])
    arrived = np.where(boundary, np.arange(1, count + 1, dtype=np.int64), 2**62)
    arrived = np.minimum.accumulate(arrived[::-1])[::-1]
    started = np.searchsorted(starts, arrival_ticks, side="left")
    return int((arrived - started).max())


def _autoscale_stats(
    policy: AutoscalePolicy,
    nodes_per_group: int,
    events: Sequence[tuple],
    timeline: Sequence[Tuple[int, int]],
    group_ticks: int,
    met: int,
) -> AutoscaleStats:
    """The autoscale section, converted from ticks to seconds.

    A scale-out serves from its decision time plus the policy's provisioning
    delay, computed in seconds so the two figures differ by exactly
    ``provision_delay_s``.
    """
    node_seconds = group_ticks * nodes_per_group / TICKS_PER_SECOND
    scale_events = []
    for time, direction, reason, before, after, depth, group, stopped in events:
        time_s = time / TICKS_PER_SECOND
        scale_events.append(ScaleEvent(
            time_s=time_s, direction=direction, reason=reason, groups_before=before,
            groups_after=after, queue_depth=depth, group_id=group,
            serving_from_s=time_s + policy.provision_delay_s if direction == "out" else None,
            stopped_s=None if stopped is None else stopped / TICKS_PER_SECOND))
    return AutoscaleStats(
        min_groups=policy.min_groups,
        max_groups=policy.max_groups,
        nodes_per_group=nodes_per_group,
        provision_delay_s=policy.provision_delay_s,
        node_seconds=node_seconds,
        goodput_per_node_second=met / node_seconds if node_seconds else 0.0,
        events=tuple(scale_events),
        timeline=tuple((time / TICKS_PER_SECOND, groups) for time, groups in timeline),
    )


def build_report_from_columns(
    trace_name: str,
    scheduler_name: str,
    num_nodes: int,
    tenant_names: Sequence[str],
    tenant_id: np.ndarray,
    arrival_ticks: np.ndarray,
    start_ticks: np.ndarray,
    first_ticks: np.ndarray,
    finish_ticks: np.ndarray,
    tokens: np.ndarray,
    ttft_slo_s: np.ndarray,
    tpot_slo_s: np.ndarray,
    node_accumulators: np.ndarray,
    batching: str = "request",
    preemptions: Optional[np.ndarray] = None,
    requeued: Optional[np.ndarray] = None,
    autoscale: Optional[AutoscalePolicy] = None,
    nodes_per_group: int = 1,
    scale_events: Sequence[tuple] = (),
    timeline: Sequence[Tuple[int, int]] = (),
    group_ticks: int = 0,
) -> ServeReport:
    """Assemble a :class:`ServeReport` from tick-domain completion columns.

    Completions arrive as parallel int64 nanosecond-tick arrays in canonical
    request order plus the per-node accumulator matrix ``(completed, busy,
    switch, switches, preemptions)`` (tick columns as int64 rows, one per
    server).  Step batching adds the per-request ``preemptions`` counts, the
    ``requeued`` ``(preemption, re-admission)`` tick intervals, and under
    autoscaling the tick-domain scale events, committed-fleet timeline and
    committed group ticks, which become the report's
    :class:`~repro.serve.autoscale.AutoscaleStats`.  All reductions are either
    exact integer arithmetic (sums, nearest-rank selection on ticks) or a
    fixed float expression of exact integers, so equal columns yield a
    byte-identical report.

    The queue-depth figures are defined directly on the columns, in both
    batching modes: a request waits from arrival to its first admission and
    from each preemption to its re-admission, the mean is the exact
    waiting-time integral over the makespan (so Little's law holds exactly)
    and the max is the peak of the waiting-interval sweep.
    """
    count = len(arrival_ticks)
    makespan_ticks = int(finish_ticks.max()) if count else 0
    makespan = makespan_ticks / TICKS_PER_SECOND
    latency_ticks = finish_ticks - arrival_ticks
    wait_ticks = start_ticks - arrival_ticks
    ttft_ticks = first_ticks - arrival_ticks
    tpot_seconds = np.divide(
        finish_ticks - first_ticks, tokens * TICKS_PER_SECOND,
        out=np.zeros(count, np.float64), where=tokens > 0)
    ttft_has_slo = ~np.isnan(ttft_slo_s)
    tpot_has_slo = ~np.isnan(tpot_slo_s)
    if not ttft_has_slo.any() and not tpot_has_slo.any():
        # No deadlines anywhere: every request trivially meets its (absent)
        # SLO, so skip the comparison passes over the full columns.
        met = None
    else:
        met = ~(
            (ttft_has_slo & ((ttft_ticks / TICKS_PER_SECOND) > ttft_slo_s))
            | (tpot_has_slo & (tpot_seconds > tpot_slo_s))
        )

    tenants = []
    present = (np.flatnonzero(np.bincount(tenant_id, minlength=len(tenant_names)))
               if count else ())
    for tid in present:
        rows = np.flatnonzero(tenant_id == tid)
        summary = _tick_percentiles(latency_ticks[rows])
        ttft = _tick_percentiles(ttft_ticks[rows])
        tpot = _float_percentiles(tpot_seconds[rows])
        tenant_met = len(rows) if met is None else int(met[rows].sum())
        tenants.append(TenantStats(
            name=tenant_names[tid],
            requests=len(rows),
            throughput_rps=len(rows) / makespan if makespan else 0.0,
            latency_mean_s=summary["mean"],
            latency_p50_s=summary["p50"],
            latency_p95_s=summary["p95"],
            latency_p99_s=summary["p99"],
            wait_mean_s=_exact_sum(wait_ticks[rows]) / (len(rows) * TICKS_PER_SECOND),
            ttft_p50_s=ttft["p50"],
            ttft_p95_s=ttft["p95"],
            ttft_p99_s=ttft["p99"],
            tpot_p50_s=tpot["p50"],
            tpot_p95_s=tpot["p95"],
            tpot_p99_s=tpot["p99"],
            slo_attainment=tenant_met / len(rows),
            goodput_rps=tenant_met / makespan if makespan else 0.0,
            preemptions=0 if preemptions is None else int(preemptions[rows].sum()),
        ))

    node_stats = [
        NodeStats(
            node_id=node,
            completed=int(node_accumulators[node, 0]),
            busy_s=int(node_accumulators[node, 1]) / TICKS_PER_SECOND,
            utilization=(int(node_accumulators[node, 1]) / TICKS_PER_SECOND / makespan
                         if makespan else 0.0),
            tenant_switches=int(node_accumulators[node, 3]),
            switch_s=int(node_accumulators[node, 2]) / TICKS_PER_SECOND,
            preemptions=int(node_accumulators[node, 4]),
        )
        for node in range(len(node_accumulators))
    ]

    fleet = _tick_percentiles(latency_ticks)
    fleet_ttft = _tick_percentiles(ttft_ticks)
    fleet_tpot = _float_percentiles(tpot_seconds)
    fleet_met = count if met is None else int(met.sum())
    total_switch_ticks = _exact_sum(node_accumulators[:, 2])
    depth_area = _exact_sum(wait_ticks)
    if requeued is not None and len(requeued):
        depth_area += _exact_sum(requeued[:, 1] - requeued[:, 0])
    return ServeReport(
        trace=trace_name,
        scheduler=scheduler_name,
        num_nodes=num_nodes,
        total_requests=count,
        makespan_s=makespan,
        throughput_rps=count / makespan if makespan else 0.0,
        latency_mean_s=fleet["mean"],
        latency_p50_s=fleet["p50"],
        latency_p95_s=fleet["p95"],
        latency_p99_s=fleet["p99"],
        queue_depth_mean=depth_area / makespan_ticks if makespan_ticks else 0.0,
        queue_depth_max=_queue_depth_max(arrival_ticks, start_ticks, requeued),
        context_switch_s=total_switch_ticks / TICKS_PER_SECOND,
        batching=batching,
        ttft_p50_s=fleet_ttft["p50"],
        ttft_p95_s=fleet_ttft["p95"],
        ttft_p99_s=fleet_ttft["p99"],
        tpot_p50_s=fleet_tpot["p50"],
        tpot_p95_s=fleet_tpot["p95"],
        tpot_p99_s=fleet_tpot["p99"],
        slo_attainment=fleet_met / count if count else 1.0,
        goodput_rps=fleet_met / makespan if makespan else 0.0,
        preemptions=_exact_sum(node_accumulators[:, 4]),
        tenants=tenants,
        nodes=node_stats,
        autoscale=(None if autoscale is None else _autoscale_stats(
            autoscale, nodes_per_group, scale_events, timeline, group_ticks, fleet_met)),
    )


#: The benchmark (perfbench/layers.py) traces the builder under both names.
build_report = build_report_from_columns
