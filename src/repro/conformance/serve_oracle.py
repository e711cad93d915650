"""Scalar references for the serve fast paths: the request runner and the traces.

:func:`run_segment_scalar` is the readable specification of whole-request
dispatch of :mod:`repro.serve.engine`: a straightforward per-event Python
loop over one rank at a time, with tuple-keyed policy heaps instead of the
engine's packed integer keys, bulk admission and closed-form FCFS.
:func:`check_request_engine` lowers a trace once and diffs the engine's
completion columns against the oracle's on that same
:class:`~repro.serve.engine.EngineTrace` — the contract the fuzz kinds, the
parity tests and ``bench serve_scale`` all check.

:func:`poisson_trace_scalar` and :func:`bursty_trace_scalar` are the
per-request specifications of the vectorised generators in
:mod:`repro.serve.trace`, which must reproduce them element for element.
"""

from __future__ import annotations

import heapq
import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mapping import in_order_sum
from repro.gemm.precision import Precision
from repro.serve.engine import ACCUMULATORS, EngineTrace, SegmentColumns, simulate_segments
from repro.serve.scheduler import scheduler_by_name
from repro.serve.trace import Request, RequestTrace, TenantSpec, _bursty_rates

__all__ = [
    "TupleHeapQueue",
    "reference_queue",
    "run_segment_scalar",
    "oracle_columns",
    "lower",
    "check_request_engine",
    "poisson_trace_scalar",
    "bursty_trace_scalar",
]


class TupleHeapQueue:
    """Reference policy heap: ``key(rank) + (rank,)`` tuples, min-heap order.

    The trailing rank is the ``(arrival, id)`` tie-break — canonical rank
    order *is* ``(arrival tick, id)`` order.
    """

    __slots__ = ("_key", "_heap")

    def __init__(self, key) -> None:
        self._key = key
        self._heap: List[Tuple[int, ...]] = []

    def push(self, rank: int) -> None:
        heapq.heappush(self._heap, self._key(rank) + (rank,))

    def pop(self) -> int:
        return heapq.heappop(self._heap)[-1]

    def __len__(self) -> int:
        return len(self._heap)


def reference_queue(et: EngineTrace):
    """The oracle's policy queue: tuple keys, one push per admission."""
    if et.policy in ("fcfs", "rr"):
        return scheduler_by_name(et.policy, tenant=et.tenant)
    if et.policy == "sjf":
        return TupleHeapQueue(lambda rank: (int(et.svc0[rank]),))
    if et.policy == "priority":
        return TupleHeapQueue(lambda rank: (-int(et.priority[rank]),))
    if et.policy == "slo":
        return TupleHeapQueue(
            lambda rank: (-int(et.priority[rank]), int(et.deadline[rank])))
    raise ValueError(f"unknown scheduling policy {et.policy!r}")


def run_segment_scalar(et: EngineTrace):
    """Reference request runner: one rank at a time, in ticks, from a cold fleet.

    Pick the earliest free server (``(free_at, node)`` heap), admit every
    arrival up to its clock, pop the policy, gate a tenant change on the
    pipeline drain, charge the constant switch cost, occupy the server for
    one pipeline interval and drain it at the full latency.  Returns
    ``(start, first, finish, accumulators)`` for every rank.
    """
    count = len(et)
    start = np.empty(count, np.int64)
    first = np.empty(count, np.int64)
    finish = np.empty(count, np.int64)
    accumulators = np.zeros((et.num_servers, ACCUMULATORS), np.int64)
    arrival, tenant, pair = et.arrival, et.tenant, et.pair
    latency_table, interval_table, first_table = (
        et.latency_table, et.interval_table, et.first_table)
    switch_ticks = et.switch_ticks
    queue = reference_queue(et)
    servers = [(0, node) for node in range(et.num_servers)]
    drain = [0] * et.num_servers
    last_tenant: List[Optional[int]] = [None] * et.num_servers
    index = 0
    while index < count or len(queue):
        free_at, node = servers[0]
        while index < count and arrival[index] <= free_at:
            queue.push(index)
            index += 1
        if not len(queue):
            now = int(arrival[index])
            while index < count and arrival[index] <= now:
                queue.push(index)
                index += 1
            continue
        rank = queue.pop()
        this_tenant = int(tenant[rank])
        begin = max(free_at, int(arrival[rank]))
        switch = 0
        if last_tenant[node] is not None and last_tenant[node] != this_tenant:
            begin = max(begin, drain[node])
            switch = switch_ticks
            accumulators[node, 3] += 1
        row = int(pair[rank])
        dispatch = begin + switch
        done = dispatch + int(latency_table[row, node])
        start[rank] = begin
        first[rank] = dispatch + int(first_table[row, node])
        finish[rank] = done
        interval = int(interval_table[row, node])
        heapq.heapreplace(servers, (dispatch + interval, node))
        drain[node] = done
        last_tenant[node] = this_tenant
        accumulators[node, 0] += 1
        accumulators[node, 1] += switch + interval
        accumulators[node, 2] += switch
    return start, first, finish, accumulators


def oracle_columns(et: EngineTrace) -> SegmentColumns:
    """The oracle's completion columns for the whole trace, like the engine's."""
    return SegmentColumns(*run_segment_scalar(et))


def lower(simulator, trace) -> EngineTrace:
    """The request-mode :class:`~repro.serve.engine.EngineTrace` a simulator runs."""
    simulator._prepare_services(trace)
    return simulator._engine_trace(trace.columns)


def check_request_engine(simulator, trace) -> Optional[str]:
    """Diff the request runner against the oracle on one lowered trace.

    Returns a description of the first differing column, or ``None`` when
    the ``start``/``first``/``finish`` columns and the per-server
    accumulators are identical.
    """
    et = lower(simulator, trace)
    engine = simulate_segments(et)
    oracle = oracle_columns(et)
    for name in ("start", "first", "finish", "accumulators"):
        if not np.array_equal(getattr(engine, name), getattr(oracle, name)):
            return f"request runner and scalar oracle differ in {name}"
    return None


# ------------------------------------------------------------ trace generators
#: Per-request scheduling metadata carried through trace generation:
#: ``(priority, ttft_slo_s, tpot_slo_s)``.
_SLOFields = Tuple[int, Optional[float], Optional[float]]
_Pending = List[Tuple[float, str, int, str, Precision, _SLOFields]]


def _slo_fields(spec: TenantSpec) -> _SLOFields:
    return (spec.priority, spec.ttft_slo_s, spec.tpot_slo_s)


def _exp_gap(uniform: float, rate: float) -> float:
    """One exponential inter-arrival gap from one uniform draw.

    Routed through ``np.log`` (not ``math.log``: the two can differ in the
    last ulp) so the scalar generators consume uniforms exactly like the
    vectorised ``-np.log(1 - u) / rate`` over a chunk.
    """
    return float(-np.log(1.0 - uniform) / rate)


def pick_workload(spec: TenantSpec, rng: random.Random) -> str:
    """Draw one workload name from the spec's (normalised) mix."""
    total = in_order_sum(weight for _, weight in spec.mix)
    draw = rng.random() * total
    cumulative = 0.0
    for name, weight in spec.mix:
        cumulative += weight
        if draw < cumulative:
            return name
    return spec.mix[-1][0]


def _finalize(name: str, pending: _Pending, duration_s: float) -> RequestTrace:
    """Sort merged per-tenant arrivals and assign stable request ids.

    The sort key ``(arrival, tenant, per-tenant sequence)`` breaks ties
    deterministically, so the same inputs always produce the same ids.
    """
    pending.sort(key=lambda item: (item[0], item[1], item[2]))
    requests = [
        Request(request_id=index, tenant=tenant, workload=workload,
                arrival_s=arrival, precision=precision,
                priority=slo[0], ttft_slo_s=slo[1], tpot_slo_s=slo[2])
        for index, (arrival, tenant, _seq, workload, precision, slo) in enumerate(pending)
    ]
    return RequestTrace(name=name, requests=requests, duration_s=duration_s)


def poisson_trace_scalar(
    tenants: Sequence[TenantSpec],
    duration_s: float,
    seed: int = 0,
    precision: Precision = Precision.FP32,
) -> RequestTrace:
    """Per-request reference of :func:`repro.serve.trace.poisson_trace`.

    Inputs are taken as valid; the vectorised generator checks them.
    """
    pending: _Pending = []
    for spec in tenants:
        rng = random.Random(f"{seed}/poisson/{spec.name}")
        slo = _slo_fields(spec)
        clock, sequence = 0.0, 0
        while True:
            clock += _exp_gap(rng.random(), spec.rate_rps)
            if clock >= duration_s:
                break
            pending.append((clock, spec.name, sequence, pick_workload(spec, rng), precision, slo))
            sequence += 1
    return _finalize(f"poisson-seed{seed}", pending, duration_s)


def bursty_trace_scalar(
    tenants: Sequence[TenantSpec],
    duration_s: float,
    seed: int = 0,
    precision: Precision = Precision.FP32,
    burst_factor: float = 8.0,
    burst_fraction: float = 0.2,
    cycle_s: float = 0.25,
) -> RequestTrace:
    """Per-request reference of :func:`repro.serve.trace.bursty_trace`.

    Lewis–Shedler thinning, one candidate at a time.  Inputs are taken as
    valid; the vectorised generator checks them.
    """
    pending: _Pending = []
    for spec in tenants:
        rng = random.Random(f"{seed}/bursty/{spec.name}")
        slo = _slo_fields(spec)
        on_rate, off_rate = _bursty_rates(spec, burst_factor, burst_fraction)
        clock, sequence = 0.0, 0
        while True:
            clock += _exp_gap(rng.random(), on_rate)
            if clock >= duration_s:
                break
            in_burst = (clock % cycle_s) / cycle_s < burst_fraction
            rate_now = on_rate if in_burst else off_rate
            if rng.random() * on_rate < rate_now:  # thinning acceptance
                pending.append((clock, spec.name, sequence, pick_workload(spec, rng),
                                precision, slo))
                sequence += 1
    return _finalize(f"bursty-seed{seed}", pending, duration_s)
