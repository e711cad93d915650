"""The integer-tick event engine behind both serving batching modes.

One engine runs every serving simulation (see DESIGN.md sections 8 and 9).
Two decisions give it both speed and the repo's byte-identical
determinism guarantees:

**Integer nanosecond ticks.**  All event arithmetic runs on int64 nanosecond
ticks (:data:`TICKS_PER_SECOND`); float seconds appear only at the report
boundary.  Service estimates convert with a *ceiling* (a request is never
reported faster than its analytic estimate), arrivals round to the nearest
tick.  A step's ticks are the difference of ceilinged *cumulative* step
boundaries, so a request's steps sum exactly to its request-mode latency.
Integer math is exact, so equal traces produce bit-equal completion columns,
and the shared :func:`~repro.serve.report.build_report_from_columns` turns
equal columns into byte-identical JSON.

**Two runners, one trace record.**  :func:`simulate_segments` runs the whole
trace in one pass, from a cold fleet, on the request runner (whole-request
dispatch: window admission over the sorted arrival array, with an arrival
that finds an empty queue alone in its window handed straight to the free
server, packed integer policy keys, and a fully vectorised closed form for
the FCFS single-server case — with one server the dispatch order is the
canonical order, so start times collapse to a max-plus prefix scan
``start = cumsum(cost) + running_max(arrival - cumsum(cost))``) or, when the
:class:`EngineTrace` carries :class:`StepTables`, the step runner
(iteration-level continuous batching with a paged KV budget, preemption and
the autoscaled fleet lifecycle).  Both share the rank-keyed
:class:`~repro.serve.scheduler.BatchingPolicy` queues.  A server that goes
idle keeps its last tenant resident, so the next request of another tenant
pays the switch even after an idle gap.

The engine consumes the columnar trace (:class:`~repro.serve.trace.
TraceColumns`) directly — requests are rank indices into arrays, and no
``Request`` objects are materialised on the hot path.  The per-event scalar
reference the request runner is tested against lives in
:mod:`repro.conformance.serve_oracle`.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.serve.autoscale import AutoscalePolicy, Autoscaler
from repro.serve.report import TICKS_PER_SECOND
from repro.serve.scheduler import NO_DEADLINE, scheduler_by_name

__all__ = [
    "TICKS_PER_SECOND",
    "NO_DEADLINE",
    "EngineTrace",
    "StepTables",
    "SegmentColumns",
    "drain_costs",
    "simulate_segments",
]

#: Per-server accumulator columns: completions, busy ticks, switch ticks,
#: tenant switches, preemptions.
ACCUMULATORS = 5


@dataclass(frozen=True)
class StepTables:
    """The step-batching half of an :class:`EngineTrace`.

    ``ticks``/``stage``/``state``/``restore`` are indexed ``[server][pair]``
    and hold one tuple per step: its service ticks (differences of ceilinged
    cumulative boundaries), pipeline stage, the resident state bytes the
    request holds *after* it, and the KV-restore ticks a preempted request
    pays before it.  ``staged`` says some step runs outside stage 0
    (pipeline parallelism).
    """

    ticks: Tuple[Tuple[Tuple[int, ...], ...], ...]
    stage: Tuple[Tuple[Tuple[int, ...], ...], ...]
    state: Tuple[Tuple[Tuple[int, ...], ...], ...]
    restore: Tuple[Tuple[Tuple[int, ...], ...], ...]
    staged: bool
    max_batch: int
    budget: float
    preemption: bool
    autoscale: Optional[AutoscalePolicy] = None


@dataclass(frozen=True)
class EngineTrace:
    """A trace lowered to canonical-order tick arrays plus service tables.

    Rows are *ranks*: requests sorted by ``(arrival tick, request id)``.  Per
    rank, ``pair`` indexes the distinct ``(workload, precision)`` tables;
    ``latency/interval/first_table`` hold each pair's ceiling-tick service
    figures per server (one column per server — the np.take lookup that
    replaces a dict hit per event).  ``svc0`` (server-0 latency, the sjf key),
    ``priority`` (the policy and victim tier) and ``deadline`` (arrival + TTFT
    SLO, :data:`NO_DEADLINE` when absent) are pre-expanded per rank because
    the policy queues consume them on every push; ``ttft_slo_s`` and
    ``tpot_slo_s`` are the per-rank SLO targets (``nan`` when absent) the
    report and the autoscaler's windows score completions against.  ``step``
    is set for step batching.
    """

    policy: str
    num_servers: int
    switch_ticks: int
    arrival: np.ndarray
    tenant: np.ndarray
    pair: np.ndarray
    latency_table: np.ndarray
    interval_table: np.ndarray
    first_table: np.ndarray
    tokens_table: np.ndarray
    svc0: np.ndarray
    priority: np.ndarray
    deadline: np.ndarray
    ttft_slo_s: np.ndarray
    tpot_slo_s: np.ndarray
    uniform_interval: bool
    step: Optional[StepTables] = None

    def __len__(self) -> int:
        return len(self.arrival)


@dataclass
class SegmentColumns:
    """Completion columns of one run, in ticks.

    ``start``/``first``/``finish`` are the first admission, first-token and
    finish ticks per rank; ``accumulators`` the per-server
    ``(completed, busy, switch ticks, switches, preemptions)`` matrix.  The
    step runner adds per-rank ``preemptions``, the ``requeued`` waiting
    intervals ``(preemption tick, re-admission tick)``, and under autoscaling
    the scale ``events`` (tick-domain tuples ``(time, direction, reason,
    groups_before, groups_after, queue_depth, group_id, stopped)``), the
    committed-fleet ``timeline``, the committed ``group_ticks``, and the
    ``admissions``/``drains`` diagnostics.
    """

    start: np.ndarray
    first: np.ndarray
    finish: np.ndarray
    accumulators: np.ndarray
    preemptions: Optional[np.ndarray] = None
    requeued: Optional[np.ndarray] = None
    events: Tuple = ()
    timeline: Tuple = ()
    group_ticks: int = 0
    admissions: Tuple = ()
    drains: Tuple = ()


# ------------------------------------------------------------ request runner
def _run_segment_closed_form(et: EngineTrace) -> SegmentColumns:
    """FCFS on one uniform-interval server: dispatch is a prefix scan.

    With a single server FCFS dispatches in rank order, so with ``cost_r =
    switch_r + latency_r`` the recurrence ``start_r = max(start_{r-1} +
    cost_{r-1}, arrival_r)`` unrolls to ``start_r = C_{r-1} + max_{j<=r}
    (arrival_j - C_{j-1})`` where ``C`` is the inclusive cost prefix sum —
    one ``cumsum`` plus one ``maximum.accumulate``, no event loop.  Exact on
    int64, so it is bit-equal to the scalar reference by construction (the
    parity tests enforce it anyway).
    """
    arrival = et.arrival
    tenant = et.tenant
    pair = et.pair
    latency = et.latency_table[pair, 0]
    count = len(et)
    changed = np.empty(count, dtype=bool)
    changed[0] = False  # a cold server adopts its first tenant for free
    np.not_equal(tenant[1:], tenant[:-1], out=changed[1:])
    switch = changed * np.int64(et.switch_ticks)
    cost = switch + latency
    inclusive = np.cumsum(cost)
    exclusive = inclusive - cost
    start = exclusive + np.maximum.accumulate(arrival - exclusive)
    dispatch = start + switch
    finish = dispatch + latency
    first = dispatch + et.first_table[pair, 0]
    switches = int(np.count_nonzero(changed))
    accumulators = np.zeros((1, ACCUMULATORS), np.int64)
    accumulators[0, 0] = count
    # cumsum already computed the exact cost total (the closed form is only
    # valid when the prefix sums fit int64 anyway), and every switch charges
    # the same constant, so neither sum needs another pass.
    accumulators[0, 1] = int(inclusive[-1])
    accumulators[0, 2] = switches * et.switch_ticks
    accumulators[0, 3] = switches
    return SegmentColumns(start, first, finish, accumulators)


def _run_segment_array(et: EngineTrace) -> SegmentColumns:
    """The request runner: closed form when eligible, else a dispatch loop.

    Semantics: pick the earliest free server (``(free_at, node)`` heap), admit
    every arrival up to ``max(free_at, next arrival)`` (the admission window),
    pop the policy, gate a tenant change on the pipeline drain, charge the
    constant switch cost, occupy the server for one pipeline interval and
    drain it at the full latency.

    A dispatch costs a handful of Python list operations.  The runner counts
    the waiting ranks itself; a window of several ranks enters the policy in
    one :meth:`~repro.serve.scheduler.BatchingPolicy.push_span` call, found
    by a binary search only when a second rank falls inside it.  A rank that
    arrives to an empty queue alone in its window is the one any policy
    would pop, so it goes straight to the server and the policy only does
    its :meth:`~repro.serve.scheduler.BatchingPolicy.bypass` bookkeeping.
    The completion columns fill int64 buffers that numpy adopts once at the
    end, the per-server accumulators are Python ints, and each (pair,
    server) has one ``(latency, first-token, interval)`` tuple.
    """
    if et.policy == "fcfs" and et.num_servers == 1 and et.uniform_interval:
        return _run_segment_closed_form(et)
    count = len(et)
    num_servers = et.num_servers
    start = array("q", bytes(8 * count))
    first = array("q", start)
    finish = array("q", start)
    arrival = et.arrival.tolist()
    tenant = et.tenant.tolist()
    pair = et.pair.tolist()
    service = [list(zip(*rows)) for rows in zip(
        et.latency_table.tolist(), et.first_table.tolist(), et.interval_table.tolist())]
    switch_ticks = et.switch_ticks
    queue = scheduler_by_name(
        et.policy, tenant=et.tenant, service=et.svc0, priority=et.priority, deadline=et.deadline
    )
    push_span, pop, bypass = queue.push_span, queue.pop, queue.bypass
    servers = [(0, node) for node in range(num_servers)]
    heapreplace = heapq.heapreplace
    drain = [0] * num_servers
    last_tenant = [-1] * num_servers  # a cold server adopts its first tenant for free
    completed = [0] * num_servers
    occupied = [0] * num_servers  # interval ticks; switch ticks are added at the end
    switches = [0] * num_servers
    admitted = waiting = 0
    while admitted < count or waiting:
        free_at, node = servers[0]
        if waiting:
            if admitted < count and arrival[admitted] <= free_at:
                stop = admitted + 1
                if stop < count and arrival[stop] <= free_at:
                    stop = bisect_right(arrival, free_at, stop + 1)
                push_span(admitted, stop)
                waiting += stop - admitted
                admitted = stop
            position = pop()
            waiting -= 1
        else:
            position = admitted
            now = arrival[position]
            if now < free_at:
                now = free_at
            admitted += 1
            if admitted < count and arrival[admitted] <= now:
                admitted = bisect_right(arrival, now, admitted + 1)
                push_span(position, admitted)
                waiting = admitted - position - 1
                position = pop()
            else:
                bypass(position)
        arrived = arrival[position]
        begin = free_at if free_at > arrived else arrived
        this_tenant = tenant[position]
        latency, first_ticks, interval = service[pair[position]][node]
        dispatch = begin
        was = last_tenant[node]
        if was != this_tenant:
            if was >= 0:
                if drain[node] > begin:
                    begin = drain[node]
                switches[node] += 1
                dispatch = begin + switch_ticks
            last_tenant[node] = this_tenant
        done = dispatch + latency
        start[position] = begin
        first[position] = dispatch + first_ticks
        finish[position] = done
        heapreplace(servers, (dispatch + interval, node))
        drain[node] = done
        completed[node] += 1
        occupied[node] += interval
    accumulators = np.array(
        [(completed[node], occupied[node] + switches[node] * switch_ticks,
          switches[node] * switch_ticks, switches[node], 0) for node in range(num_servers)],
        np.int64)
    return SegmentColumns(np.frombuffer(start, np.int64), np.frombuffer(first, np.int64),
                          np.frombuffer(finish, np.int64), accumulators)


# --------------------------------------------------------------- step runner
def _run_step_segment(et: EngineTrace) -> SegmentColumns:
    """The step runner: iteration-level batching from a cold fleet.

    Each server holds a running batch of up to ``max_batch`` ranks and
    advances in *iterations*: one step per member, members in rank order
    with per-pipeline-stage local clocks (stages overlap; within a stage
    steps serialise).  The next server to act is the earliest ``(free_at,
    server)`` among the busy servers — plus, while requests wait, the
    committed non-draining idle ones — and it first queues every arrival up
    to its clock.  Between iterations it admits waiting ranks in policy
    order, head-of-line only, while a batch slot is free, the head is
    admissible by the server's clock (its ``ready`` tick: the arrival, or
    the preemption tick of a re-queued rank) and its resident state fits the
    KV budget next to the members'; an idle server admits the head at
    ``max(clock, ready)``.  When the members' next-step state outgrows the
    budget, :meth:`~repro.serve.scheduler.BatchingPolicy.victim` picks ranks
    to preempt; a victim keeps its step progress, re-enters the queue at its
    rank position and pays its KV-restore ticks on its next step.  A tenant
    change between consecutive member steps charges the constant switch
    ticks (the first tenant a cold server sees is adopted for free).

    Under ``autoscale`` the fleet starts at ``min_groups`` committed groups
    and the :class:`~repro.serve.autoscale.Autoscaler` is evaluated at every
    window boundary (in ticks) the acting server's clock has passed.

    The runner keeps its bookkeeping in plain ints: the waiting count (+1
    per push, -1 per pop; the policy is never asked its length), the
    committed and draining group counts, and per server an ``admitting``
    flag (committed and not draining) and the scale-in event a draining
    group waits on.  The acting server's step tables, KV occupancy and
    accumulator row are locals for the iteration.
    """
    st = et.step
    count = len(et)
    servers = range(et.num_servers)
    arrival = et.arrival.tolist()
    ready = list(arrival)
    pair = et.pair.tolist()
    tenant = et.tenant.tolist()
    priority = et.priority.tolist()
    policy = scheduler_by_name(
        et.policy, tenant=tenant, service=et.svc0, priority=priority, deadline=et.deadline
    )
    push, peek, pop, victim = policy.push, policy.peek, policy.pop, policy.victim
    steps = [len(row) for row in st.ticks[0]]
    tables = list(zip(st.ticks, st.stage, st.restore, st.state))
    max_batch, budget, preemption, staged = st.max_batch, st.budget, st.preemption, st.staged
    switch_ticks = et.switch_ticks

    step_index = [0] * count
    start = [-1] * count
    first = [-1] * count
    finish = [0] * count
    preempted = [0] * count
    restore_due = [False] * count
    requeued: List[Tuple[int, int]] = []

    free_at = [0] * et.num_servers
    batch: List[List[int]] = [[] for _ in servers]
    occupancy = [0] * et.num_servers
    last_tenant = [-1] * et.num_servers
    totals = [[0] * ACCUMULATORS for _ in servers]

    apolicy = st.autoscale
    first_arrival = arrival[0]
    admitting = [apolicy is None or s < apolicy.min_groups for s in servers]
    draining: List[Optional[list]] = [None] * et.num_servers
    groups = sum(admitting)
    drain_count = 0
    serving_since = [first_arrival] * et.num_servers
    events: List[list] = []
    changes: List[Tuple[int, int]] = []
    admissions: List[Tuple[int, int]] = []
    drains: List[Tuple[int, int, int]] = []
    drain_marks = {}
    group_ticks = 0
    window_peak = served = misses = 0
    if apolicy is not None:
        evaluate = Autoscaler(apolicy, cooldown=_ticks(apolicy.cooldown_s)).evaluate
        window = _ticks(apolicy.window_s)
        delay = _ticks(apolicy.provision_delay_s)
        next_window = first_arrival + window
        tokens = et.tokens_table.tolist()
        ttft_slo = et.ttft_slo_s.tolist()
        tpot_slo = et.tpot_slo_s.tolist()
    else:
        next_window = NO_DEADLINE

    def stop_group(server: int, stopped: int, event: list) -> None:
        # The drained group's capacity merges back into the pool: it stops
        # accruing group ticks and becomes eligible for a future scale-out
        # (which re-provisions it from scratch).
        nonlocal group_ticks, groups, drain_count
        event[7] = stopped
        group_ticks += stopped - serving_since[server]
        groups -= 1
        if draining[server] is not None:
            drain_count -= 1
        admitting[server] = False
        draining[server] = None
        mark = drain_marks.pop(server, len(admissions))
        drains.append((server, mark, len(admissions)))
        changes.append((stopped, -1))

    index = 0
    waiting = 0  # ranks in the policy queue
    busy = 0  # servers with a non-empty batch
    while index < count or waiting or busy:
        server = -1
        if waiting or busy:
            for s in servers:
                if (batch[s] or (waiting and admitting[s])) and (
                        server < 0 or free_at[s] < clock):
                    server, clock = s, free_at[s]
        else:
            # Globally idle: jump to the next arrival instant (admit ties
            # too) without touching any server clock — the admitting server
            # moves its clock to the arrival below.  Windows elapsing across
            # the gap still tick, so an idle fleet can scale in.
            clock = arrival[index]
        if next_window <= clock:
            # Evaluate every pressure window that has elapsed by the clock.
            while next_window <= clock:
                t = next_window
                # A drain completes when the last resident's iteration ends;
                # the capacity merges back at the first window boundary after it.
                if drain_count:
                    for s in servers:
                        if draining[s] is not None and not batch[s] and free_at[s] <= t:
                            stop_group(s, free_at[s], draining[s])
                if waiting > window_peak:
                    window_peak = waiting
                decision = evaluate(t, window_peak, served, misses, groups, drain_count)
                if decision is not None:
                    direction, reason = decision
                    event = [t, direction, reason, groups,
                             groups + (1 if direction == "out" else -1), window_peak, None, None]
                    events.append(event)
                    if direction == "out":
                        # A fresh provision: no resident tenant, and it serves
                        # only after the provisioning delay.
                        target = next(s for s in servers
                                      if not admitting[s] and draining[s] is None)
                        admitting[target] = True
                        groups += 1
                        last_tenant[target] = -1
                        free_at[target] = t + delay
                        serving_since[target] = t
                        event[6] = target
                        changes.append((t, 1))
                    else:
                        target = min((s for s in servers if admitting[s]),
                                     key=lambda s: (len(batch[s]), -s))
                        event[6] = target
                        if batch[target] or free_at[target] > t:
                            # Residents, a last iteration or the provisioning
                            # delay still occupy the group: it stays
                            # committed, draining, until they end.
                            admitting[target] = False
                            draining[target] = event
                            drain_count += 1
                            drain_marks[target] = len(admissions)
                        else:
                            stop_group(target, t, event)
                window_peak = served = misses = 0
                next_window += window
            if server >= 0 and (free_at[server] != clock or not admitting[server]
                                and draining[server] is None):
                # The window drained (or re-provisioned) this very server:
                # it has lost its turn.
                continue
        if index < count and arrival[index] <= clock:
            # A window's depth peak is sampled after pushes (and at its end).
            while index < count and arrival[index] <= clock:
                push(index)
                index += 1
                waiting += 1
            if waiting > window_peak:
                window_peak = waiting
        if server < 0:
            continue
        members = batch[server]
        ticks, stages, restores, state = tables[server]
        held = occupancy[server]
        # Admission: policy order, head-of-line, between iterations.  A
        # draining group stops admitting; its residents run to completion.
        if admitting[server]:
            while waiting and len(members) < max_batch:
                head = peek()
                if members and ready[head] > clock:
                    break  # not yet admissible at this server's clock
                need = state[pair[head]][step_index[head]]
                if members and held + need > budget:
                    break  # no room in the KV budget; wait for completions
                pop()
                waiting -= 1
                admit = ready[head] if ready[head] > clock else clock
                if not members:
                    clock = admit
                    busy += 1
                if start[head] < 0:
                    start[head] = admit
                else:  # re-admitted: it waited from its preemption (its ready tick)
                    requeued.append((ready[head], admit))
                if apolicy is not None:
                    admissions.append((admit, server))
                members.append(head)
                held += need
        if not members:
            continue
        acc = totals[server]
        # Preemption: the members' next steps grew past the budget.  The
        # waiting count only grows in the burst, so its peak is its end.
        if preemption and held > budget and len(members) > 1:
            while len(members) > 1 and held > budget:
                rank = victim(members)
                members.remove(rank)
                held -= state[pair[rank]][step_index[rank]]
                preempted[rank] += 1
                restore_due[rank] = True
                acc[4] += 1
                # Re-queued, the rank is admissible only from its preemption.
                ready[rank] = clock
                push(rank)
                waiting += 1
            if waiting > window_peak:
                window_peak = waiting
        # One iteration: one step per member, rank order, per-stage clocks.
        members.sort()
        stage_clock = {}
        last = last_tenant[server]
        now = clock
        done = False
        for rank in members:
            row = pair[rank]
            k = step_index[rank]
            if staged:
                now = stage_clock.get(stages[row][k], clock)
            this_tenant = tenant[rank]
            if this_tenant != last:
                if last >= 0:
                    now += switch_ticks
                    acc[2] += switch_ticks
                    acc[3] += 1
                last = this_tenant
            if restore_due[rank]:
                now += restores[row][k]
                restore_due[rank] = False
            now += ticks[row][k]
            if staged:
                stage_clock[stages[row][k]] = now
            row_state = state[row]
            k += 1
            step_index[rank] = k
            if first[rank] < 0:
                first[rank] = now
            if k < steps[row]:
                held += row_state[k] - row_state[k - 1]
                continue
            held -= row_state[k - 1]
            finish[rank] = now
            acc[0] += 1
            done = True
            if apolicy is not None:
                served += 1
                first_tick = first[rank]
                tpot = ((now - first_tick) / (tokens[row] * TICKS_PER_SECOND)
                        if tokens[row] else 0.0)
                if ((first_tick - arrival[rank]) / TICKS_PER_SECOND > ttft_slo[rank]
                        or tpot > tpot_slo[rank]):
                    misses += 1
        last_tenant[server] = last
        occupancy[server] = held
        end = max(stage_clock.values()) if staged else now
        free_at[server] = end
        acc[1] += end - clock
        if done:
            members[:] = [rank for rank in members if step_index[rank] < steps[pair[rank]]]
            if not members:
                busy -= 1

    timeline: List[Tuple[int, int]] = []
    if apolicy is not None:
        last_finish = max(finish)
        for s in servers:
            if draining[s] is not None:
                stop_group(s, free_at[s], draining[s])
            elif admitting[s]:
                group_ticks += last_finish - serving_since[s]
        fleet = apolicy.min_groups
        timeline.append((first_arrival, fleet))
        for time, delta in sorted(changes):
            fleet += delta
            timeline.append((time, fleet))
    return SegmentColumns(
        np.array(start, np.int64), np.array(first, np.int64), np.array(finish, np.int64),
        np.array(totals, np.int64), np.array(preempted, np.int64),
        np.array(requeued, np.int64).reshape(-1, 2),
        tuple(tuple(event) for event in events), tuple(timeline), group_ticks,
        tuple(admissions), tuple(drains))


def _ticks(seconds: float) -> int:
    """A policy duration (window, cooldown, provisioning delay) in ticks."""
    return round(seconds * TICKS_PER_SECOND)


# --------------------------------------------------------------- entry point
def drain_costs(et: EngineTrace) -> np.ndarray:
    """Each pair's worst per-request cost in ticks, the serial drain bound's unit.

    The switch ticks plus the slowest server's latency, and under step
    batching one KV restore of the peak state on top.  Step batching can
    exceed it: a preempted request may restore more than once, and batch
    members of different tenants may switch once per step.
    """
    worst = et.latency_table
    if et.step is not None:
        peak_restore = np.array([[max(row) for row in rows] for rows in et.step.restore])
        worst = worst + peak_restore.T
    return worst.max(axis=1) + et.switch_ticks


def simulate_segments(et: EngineTrace) -> SegmentColumns:
    """Run the whole trace from a cold fleet and return its completion columns.

    The step runner runs when ``et.step`` is set, the request runner
    otherwise.  An empty trace gives empty columns and zero accumulators.
    """
    if not len(et):
        empty = np.empty(0, np.int64)
        return SegmentColumns(empty, empty, empty, np.zeros((et.num_servers, ACCUMULATORS), np.int64))
    run = _run_step_segment if et.step is not None else _run_segment_array
    return run(et)
