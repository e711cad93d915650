"""Parity suite for the array-based serve engine (DESIGN.md section 9).

The vectorised serve core is checked against scalar oracles, and this file
is the contract between them: the NumPy trace generators must reproduce the
scalar generators element for element, the request runner's completion
columns must equal the scalar oracle's (:mod:`repro.conformance.serve_oracle`)
on the same lowered trace for every scheduler × seed, including a trace
whose servers idle between bursts.
"""

import dataclasses
import json
import math
import random

import numpy as np
import pytest

from repro.core import maco_default_config
from repro.conformance.serve_oracle import (
    bursty_trace_scalar,
    lower,
    oracle_columns,
    poisson_trace_scalar,
)
from repro.serve import (
    SCHEDULER_NAMES,
    RequestTrace,
    ServeSimulator,
    TraceColumns,
    bursty_trace,
    default_tenants,
    llm_tenants,
    poisson_trace,
    replay_trace,
)
from repro.serve.engine import TICKS_PER_SECOND, simulate_segments
from repro.serve.report import _select_ranks
from repro.serve.scheduler import NO_DEADLINE, scheduler_by_name

# The tenant/trace/simulator factories live in parity_utils.py, shared with
# the other parity suites and mirrored by the conformance fuzz layer's
# samplers.
from parity_utils import (
    assert_matches_oracle,
    make_mixed_tenants as mixed_tenants,
    make_serve_simulator as simulator,
    make_serve_trace as serve_trace,
)


# ----------------------------------------------------------- generator parity
class TestGeneratorParity:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_poisson_matches_scalar_element_for_element(self, seed):
        tenants = mixed_tenants()
        fast = poisson_trace(tenants, duration_s=30.0, seed=seed)
        slow = poisson_trace_scalar(tenants, duration_s=30.0, seed=seed)
        assert fast.to_records() == slow.to_records()

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_bursty_matches_scalar_element_for_element(self, seed):
        tenants = mixed_tenants()
        fast = bursty_trace(tenants, duration_s=30.0, seed=seed)
        slow = bursty_trace_scalar(tenants, duration_s=30.0, seed=seed)
        assert fast.to_records() == slow.to_records()

    def test_bursty_saturating_branch_matches_scalar(self):
        # burst_factor * burst_fraction >= 1 pushes every arrival into the
        # burst window (off rate 0) — the branch with the thinning rejects.
        tenants = mixed_tenants()
        fast = bursty_trace(tenants, 20.0, seed=3, burst_factor=10.0, burst_fraction=0.2)
        slow = bursty_trace_scalar(tenants, 20.0, seed=3, burst_factor=10.0, burst_fraction=0.2)
        assert fast.to_records() == slow.to_records()

    def test_columns_and_requests_views_agree(self):
        trace = serve_trace()
        rebuilt = RequestTrace(name=trace.name, requests=list(trace),
                               duration_s=trace.duration_s)
        assert rebuilt.to_records() == trace.to_records()
        assert isinstance(trace.columns, TraceColumns)
        assert len(trace.columns) == len(trace)

    def test_columnar_storage_is_compact(self):
        trace = poisson_trace(llm_tenants(2, rate_rps=5000.0), duration_s=10.0, seed=1)
        assert len(trace) > 50_000
        # ~50 bytes per request in columns; a dataclass per request costs kB.
        assert trace.columns.nbytes < 64 * len(trace)


# -------------------------------------------------------------- engine parity
class TestEngineParity:
    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    @pytest.mark.parametrize("seed", [7, 23])
    def test_request_runner_matches_oracle(self, scheduler, seed):
        assert_matches_oracle(simulator(scheduler), serve_trace(seed=seed))

    def test_multi_server_closed_form_fallback_matches_oracle(self):
        # One node keeps fcfs on the closed-form prefix scan; several nodes
        # exercise the heap loop. Both must agree with the scalar reference.
        trace = serve_trace(seed=11)
        for nodes in (1, 3):
            config = maco_default_config(num_nodes=nodes)
            assert_matches_oracle(ServeSimulator(config=config), trace)


# ------------------------------------------------------------ idle-gap parity
def gapped_trace(seed=5, bursts=3, gap_s=1000.0):
    """``bursts`` copies of a 10-s, 1-req/s-per-tenant canonical trace, each
    ``gap_s`` after the one before.  A burst drains in about 180 s, so every
    server idles between bursts, and the next burst starts on servers that
    still hold the tenant of their last request."""
    records = serve_trace(seed=seed, duration=10.0, rate=1.0).to_records()
    return replay_trace([{**record, "arrival_s": record["arrival_s"] + burst * gap_s}
                         for burst in range(bursts) for record in records])


class TestIdleGapParity:
    """A trace with long idle gaps is still one simulation: no gap resets a
    server's resident tenant or restarts the clock (DESIGN.md section 9)."""

    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_request_runner_matches_oracle_across_idle_gaps(self, scheduler):
        assert_matches_oracle(simulator(scheduler), gapped_trace())

    def test_step_runner_at_batch_one_matches_request_runner_across_idle_gaps(self):
        trace = gapped_trace()
        request = simulator().run(trace)
        step = simulator(batching="step", max_batch=1, preemption=True,
                         kv_budget_bytes=float("inf")).run(trace)
        assert sum(node.tenant_switches for node in request.nodes) > 0
        assert dataclasses.replace(step, batching="request").to_json() == request.to_json()


# -------------------------------------------------------- percentile parity
class TestPercentileParity:
    def test_partition_path_matches_scalar_on_random_inputs(self):
        rng = random.Random(42)
        for _ in range(25):
            size = rng.choice([1, 2, 17, 1023, 1024, 4097])
            values = [rng.random() * 1e3 for _ in range(size)]
            reference = tuple(sorted(values)[max(1, math.ceil(q / 100.0 * size)) - 1]
                              for q in (50, 95, 99))
            assert _select_ranks(np.asarray(values)) == reference


# ------------------------------------------------------------ replay streaming
class TestReplayStreaming:
    def test_streams_file_without_materializing(self, tmp_path):
        trace = serve_trace(seed=13)
        path = tmp_path / "trace.json"
        trace.save(path)
        replayed = replay_trace(path)
        assert replayed.to_records() == trace.to_records()
        report_a = simulator().run(trace).to_json()
        report_b = simulator().run(replayed).to_json()
        # Only the trace name differs between the two reports.
        assert json.loads(report_a)["tenants"] == json.loads(report_b)["tenants"]

    def test_duplicate_request_id_is_an_error(self):
        records = [
            {"request_id": 4, "tenant": "a", "workload": "bert", "arrival_s": 0.1},
            {"request_id": 4, "tenant": "a", "workload": "bert", "arrival_s": 0.2},
        ]
        with pytest.raises(ValueError, match="duplicate"):
            replay_trace(records)

    def test_out_of_order_request_id_is_an_error(self):
        records = [
            {"request_id": 9, "tenant": "a", "workload": "bert", "arrival_s": 0.1},
            {"request_id": 2, "tenant": "a", "workload": "bert", "arrival_s": 0.2},
        ]
        with pytest.raises(ValueError, match="out-of-order"):
            replay_trace(records)

    def test_mixed_id_presence_is_an_error(self):
        records = [
            {"request_id": 1, "tenant": "a", "workload": "bert", "arrival_s": 0.1},
            {"tenant": "a", "workload": "bert", "arrival_s": 0.2},
        ]
        with pytest.raises(ValueError, match="request_id"):
            replay_trace(records)

    def test_malformed_record_reports_its_position(self):
        records = [
            {"tenant": "a", "workload": "bert", "arrival_s": 0.1},
            {"tenant": "a", "workload": "bert"},
        ]
        with pytest.raises(ValueError, match="record 1"):
            replay_trace(records)


# ------------------------------------------------------------- lone dispatch
def _service_ticks(nodes=2):
    """``{workload: (latency, first, interval)}`` ticks on server 0."""
    workloads = ("bert", "gpt3", "resnet50")
    probe = replay_trace([{"tenant": "a", "workload": name, "arrival_s": float(index)}
                          for index, name in enumerate(workloads)])
    et = lower(ServeSimulator(config=maco_default_config(num_nodes=nodes)), probe)
    return {name: tuple(int(table[et.pair[index], 0]) for table in (
                et.latency_table, et.first_table, et.interval_table))
            for index, name in enumerate(workloads)}


def _replay_columns(scheduler, requests, nodes=2):
    """Run ``(tenant, workload, arrival tick[, extra fields])`` requests on
    the request runner and assert its columns equal the scalar oracle's."""
    records = [{"tenant": tenant, "workload": workload,
                "arrival_s": tick / TICKS_PER_SECOND, **(extra[0] if extra else {})}
               for tenant, workload, tick, *extra in requests]
    simulator = ServeSimulator(config=maco_default_config(num_nodes=nodes), scheduler=scheduler)
    et = lower(simulator, replay_trace(records))
    assert et.arrival.tolist() == [request[2] for request in requests]
    engine = simulate_segments(et)
    oracle = oracle_columns(et)
    for name in ("start", "first", "finish", "accumulators"):
        assert np.array_equal(getattr(engine, name), getattr(oracle, name)), name
    return et, engine


class TestLoneDispatch:
    """A rank that arrives to an empty queue, alone in its admission window,
    goes straight to the earliest-free server (DESIGN.md section 9.2).  Two
    servers and hand-built replay traces put each edge of that path on a
    known tick."""

    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_idle_server_takes_an_arrival_while_the_other_is_busy(self, scheduler):
        service = _service_ticks()
        second = 20 * TICKS_PER_SECOND
        et, done = _replay_columns(scheduler, [
            ("a", "gpt3", 0), ("a", "bert", 1_000_000), ("a", "resnet50", second)])
        # Server 0 runs the GPT-3 request; server 1 is idle and nothing waits.
        assert done.start.tolist() == [0, 1_000_000, second]
        assert done.finish[1] == 1_000_000 + service["bert"][0]
        # Server 1 drained at 12.5 s: the third request starts on arrival,
        # with no tenant switch, on the server that is free.
        assert done.finish[2] == second + service["resnet50"][0]
        assert done.accumulators[:, 0].tolist() == [1, 2]
        assert done.accumulators[:, 3].tolist() == [0, 0]

    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_two_arrivals_on_one_tick_go_through_the_policy(self, scheduler):
        # Server 1 frees at 12.5 s while server 0 stays busy until 34.7 s.
        # GPT-3 (rank 2) and ResNet-50 (rank 3) then arrive on the same tick
        # to an empty queue: a window of two, which the policy orders.
        service = _service_ticks()
        tick = 13 * TICKS_PER_SECOND
        urgent = {"priority": 1, "ttft_slo_s": 1.0}
        et, done = _replay_columns(scheduler, [
            ("a", "gpt3", 0), ("a", "bert", 1_000_000),
            ("a", "gpt3", tick), ("a", "resnet50", tick, urgent)])
        # sjf runs the shorter job first; priority and slo the urgent one.
        chosen, other = (3, 2) if scheduler in ("sjf", "priority", "slo") else (2, 3)
        assert done.start[chosen] == tick
        interval = service["resnet50" if chosen == 3 else "gpt3"][2]
        assert done.start[other] == min(tick + interval, service["gpt3"][2])

    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_arrival_on_a_free_tick_starts_on_it(self, scheduler):
        service = _service_ticks()
        free = service["bert"][2]  # server 0's free tick
        et, done = _replay_columns(scheduler, [
            ("a", "bert", 0), ("a", "gpt3", 1_000_000), ("a", "resnet50", free)])
        assert done.finish[0] == free
        assert done.start[2] == free
        assert done.first[2] == free + service["resnet50"][1]

    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_arrival_on_a_free_tick_joins_the_waiting_window(self, scheduler):
        # Two GPT-3 requests (ranks 2 and 3) reach server 0 when it frees;
        # rank 3 is left waiting.  The short, urgent ResNet-50 (rank 4)
        # arrives exactly when server 1 frees, so the policy chooses
        # between it and the waiting rank.
        service = _service_ticks()
        bert, gpt3, resnet = (service[name][2] for name in ("bert", "gpt3", "resnet50"))
        free = 1_000_000 + gpt3  # server 1's free tick
        et, done = _replay_columns(scheduler, [
            ("a", "bert", 0), ("a", "gpt3", 1_000_000), ("a", "gpt3", 2 * TICKS_PER_SECOND),
            ("a", "gpt3", 3 * TICKS_PER_SECOND), ("a", "resnet50", free,
                                                  {"priority": 1, "ttft_slo_s": 1.0})])
        assert done.start[2] == bert
        if scheduler in ("sjf", "priority", "slo"):
            assert done.start.tolist()[3:] == [free + resnet, free]
        else:
            assert done.start.tolist()[3:] == [free, bert + gpt3]

    def test_round_robin_rotation_counts_lone_dispatches(self):
        # Tenant a's two lone dispatches put it first in rr's rotation, so
        # the queued burst is served a, b, a, b although b arrived first.
        service = _service_ticks()
        burst = [("b", "resnet50", 1_000_000_000), ("a", "resnet50", 1_100_000_000),
                 ("b", "resnet50", 1_200_000_000), ("a", "resnet50", 1_300_000_000)]
        et, done = _replay_columns("rr", [("a", "bert", 0), ("a", "bert", 1_000_000), *burst])
        bert, resnet = service["bert"][2], service["resnet50"]
        assert done.start[3] == bert  # server 0 frees first and serves tenant a
        assert done.start[2] == bert + 1_000_000  # server 1 switches to tenant b
        assert done.first[2] == bert + 1_000_000 + et.switch_ticks + resnet[1]
        assert done.start[5] == bert + resnet[2]
        assert done.accumulators[:, 3].tolist() == [0, 1]

    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    @pytest.mark.parametrize("seed", range(4))
    def test_bypass_pops_like_a_push_then_pop(self, scheduler, seed):
        # Random windows, pops, re-pushes of popped ranks (as preemption
        # does) and lone ranks: a policy taking lone ranks through bypass and
        # windows through push_span pops exactly what one-rank pushes and
        # push-then-pop round trips would.
        rng = random.Random(seed)
        count = 200
        columns = dict(
            tenant=np.array([rng.randrange(3) for _ in range(count)]),
            service=np.array([rng.randrange(50) for _ in range(count)]),
            priority=np.array([rng.randrange(2) for _ in range(count)]),
            deadline=np.array([rng.choice([NO_DEADLINE, rng.randrange(100)])
                               for _ in range(count)]))
        fast = scheduler_by_name(scheduler, **columns)
        reference = scheduler_by_name(scheduler, **columns)
        popped, queued, pops = [], set(), []
        rank = 0
        while rank < count:
            if not queued and rng.random() < 0.5:
                fast.bypass(rank)
                reference.push(rank)
                assert reference.pop() == rank
                popped.append(rank)
                rank += 1
                continue
            stop = min(count, rank + rng.randint(1, 3))
            fast.push_span(rank, stop)
            for pushed in range(rank, stop):
                reference.push(pushed)
            queued.update(range(rank, stop))
            rank = stop
            while queued and rng.random() < 0.6:
                if popped and rng.random() < 0.2:
                    again = popped.pop(rng.randrange(len(popped)))
                    fast.push(again)
                    reference.push(again)
                    queued.add(again)
                assert fast.peek() == reference.peek()
                rank_out = fast.pop()
                assert reference.pop() == rank_out
                queued.discard(rank_out)
                popped.append(rank_out)
                pops.append(rank_out)
        while queued:
            rank_out = fast.pop()
            assert reference.pop() == rank_out
            queued.discard(rank_out)
            pops.append(rank_out)
        assert len(fast) == len(reference) == 0
        assert pops

    @pytest.mark.parametrize("scheduler", ["fcfs", "sjf"])
    def test_lone_ranks_skip_the_queue(self, scheduler, monkeypatch):
        # At half load most requests find an idle server and an empty queue:
        # they never enter the policy queue.  The rest arrive in windows
        # that do.
        simulator = ServeSimulator(config=maco_default_config(num_nodes=4), scheduler=scheduler)
        tenants = simulator.suggest_rates(default_tenants(3), utilization=0.5)
        trace = poisson_trace(tenants, 300 / sum(spec.rate_rps for spec in tenants), seed=3)
        et = lower(simulator, trace)
        policy = type(scheduler_by_name(scheduler, tenant=et.tenant, service=et.svc0,
                                        priority=et.priority, deadline=et.deadline))
        queued, bypassed = [], []
        push, push_span, bypass = policy.push, policy.push_span, policy.bypass
        monkeypatch.setattr(policy, "push", lambda queue, rank: (
            queued.append(rank), push(queue, rank))[1])
        monkeypatch.setattr(policy, "push_span", lambda queue, first, stop: (
            queued.extend(range(first, stop)), push_span(queue, first, stop))[1])
        monkeypatch.setattr(policy, "bypass", lambda queue, rank: (
            bypassed.append(rank), bypass(queue, rank))[1])
        done = simulate_segments(et)
        monkeypatch.undo()
        assert 0 < len(queued) < len(trace)
        assert sorted(queued + bypassed) == list(range(len(trace)))
        oracle = oracle_columns(et)
        for name in ("start", "first", "finish", "accumulators"):
            assert np.array_equal(getattr(done, name), getattr(oracle, name)), name
