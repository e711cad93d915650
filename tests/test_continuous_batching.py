"""Tests for iteration-level continuous batching (repro.serve, batching="step").

Covers the public surface (scheduler-name round-trips), the
determinism guarantees from docs/ARCHITECTURE.md section 4, the byte-exact
degenerate parity with the request-level loop (DESIGN.md section 8.3), the
preemption/victim policy, the SLO metrics, and the CLI flags.
"""

import json

import numpy as np
import pytest

from repro.cli import _parse_slo, build_parser, main
from repro.core import maco_default_config
from repro.gemm import Precision
from repro.serve import (
    SCHEDULER_NAMES,
    DEFAULT_KV_BUDGET_BYTES,
    AutoscalePolicy,
    ServeSimulator,
    bursty_trace,
    llm_tenants,
    poisson_trace,
    replay_trace,
    scheduler_by_name,
)
from repro.serve.engine import NO_DEADLINE, TICKS_PER_SECOND, simulate_segments
from repro.workloads import workload_graph_by_name

#: Small LLaMA proxy: one prefill step plus four 8-token decode blocks, so
#: step-mode scenarios run in well under a second.
VARIANT = "llama-7b@layers=2,prompt=128,decode=32,block=8"
#: Longer-decode variant whose resident KV grows across eight decode steps —
#: enough headroom between admission and peak for a tight budget to force
#: mid-flight preemptions (the short variant is admission-gated instead).
LONG_VARIANT = "llama-7b@layers=2,prompt=128,decode=64,block=8"


def llm_trace(seed=7, tenants=2, utilization=1.1, requests=40, config=None,
              variant=VARIANT):
    config = config or maco_default_config(num_nodes=4)
    sizing = ServeSimulator(config=config)
    specs = sizing.suggest_rates(llm_tenants(tenants, variant=variant),
                                 utilization=utilization)
    duration = requests / sum(spec.rate_rps for spec in specs)
    return poisson_trace(specs, duration, seed=seed)


def step_simulator(**overrides):
    defaults = dict(config=maco_default_config(num_nodes=4), scheduler="fcfs",
                    batching="step", max_batch=4)
    defaults.update(overrides)
    return ServeSimulator(**defaults)


def key_columns(count):
    """Every policy's per-rank key columns for ``count`` ranks."""
    return dict(tenant=np.zeros(count, np.int64), service=np.ones(count, np.int64),
                priority=np.zeros(count, np.int64),
                deadline=np.full(count, NO_DEADLINE, np.int64))


def slo_policy(arrival_s, priority, ttft_slo_s):
    """The slo policy over ranks with these arrivals, tiers and TTFT SLOs."""
    deadline = [NO_DEADLINE if slo is None else round((arrival + slo) * TICKS_PER_SECOND)
                for arrival, slo in zip(arrival_s, ttft_slo_s)]
    return scheduler_by_name("slo", priority=np.array(priority),
                             deadline=np.array(deadline, np.int64))


def pops(policy, ranks):
    for rank in ranks:
        policy.push(rank)
    return [policy.pop() for _ in ranks]


class TestPublicSurface:
    def test_scheduler_names_round_trip(self):
        for name in SCHEDULER_NAMES:
            policy = scheduler_by_name(name, **key_columns(3))
            assert policy.name == name

    def test_keyed_policies_require_their_columns(self):
        for name in ("sjf", "priority", "slo"):
            with pytest.raises(ValueError, match="columns"):
                scheduler_by_name(name)

    def test_unknown_name_lists_options(self):
        with pytest.raises(ValueError, match="slo"):
            scheduler_by_name("deadline")


class TestPolicies:
    # Ranks are positions in (arrival, request id) order.
    def test_priority_serves_higher_tiers_first(self):
        policy = scheduler_by_name("priority", priority=np.array([0, 2, 1]))
        assert pops(policy, [0, 1, 2]) == [1, 2, 0]

    def test_slo_is_edf_within_a_tier(self):
        # Rank 2 has no target: its deadline sorts last in the tier.
        policy = slo_policy([0.0, 1.0, 2.0], [0, 0, 0], [9.0, 2.0, None])
        assert pops(policy, [0, 1, 2]) == [1, 0, 2]

    def test_slo_priority_tier_beats_deadline(self):
        policy = slo_policy([0.0, 0.0], [0, 1], [0.1, 9.0])
        assert pops(policy, [0, 1]) == [1, 0]

    def test_victim_is_lowest_tier_then_newest(self):
        # Rank 0 sits in tier 1; ranks 1 and 2 arrived later in tier 0.
        policy = scheduler_by_name("fcfs", priority=np.array([1, 0, 0]))
        assert policy.victim([0, 2, 1]) == 2
        assert policy.victim([0, 1]) == 1

    def test_preempted_rank_reenters_fcfs_in_arrival_order(self):
        policy = scheduler_by_name("fcfs")
        for rank in range(4):
            policy.push(rank)
        assert [policy.pop() for _ in range(3)] == [0, 1, 2]
        policy.push(2)  # preempted: re-queued behind younger rank 3
        policy.push(0)
        assert [policy.pop() for _ in range(3)] == [0, 2, 3]

    def test_preempted_rank_reenters_rr_in_arrival_order(self):
        # Tenants a, a, b, a: rank 0 is admitted, then preempted and
        # re-queued ahead of its tenant-mates 1 and 3.
        policy = scheduler_by_name("rr", tenant=np.array([0, 0, 1, 0]))
        for rank in range(4):
            policy.push(rank)
        assert policy.pop() == 0
        policy.push(0)
        assert [policy.pop() for _ in range(4)] == [2, 0, 1, 3]


class TestDeterminism:
    def test_step_mode_reruns_byte_identical(self):
        first = step_simulator(scheduler="slo").run(llm_trace())
        second = step_simulator(scheduler="slo").run(llm_trace())
        assert first.to_json() == second.to_json()

    def test_warm_timing_cache_does_not_change_step_reports(self):
        from repro.core.perf import TimingCache

        warm = TimingCache()
        step_simulator(cache=warm).run(llm_trace())
        rerun = step_simulator(cache=warm).run(llm_trace())
        cold = step_simulator(cache=TimingCache()).run(llm_trace())
        assert rerun.to_json() == cold.to_json()

    def test_preemption_is_deterministic(self):
        def tight():
            simulator = step_simulator()
            peak = simulator.service_profile(LONG_VARIANT).peak_state_bytes
            return step_simulator(kv_budget_bytes=peak * 1.5)

        trace = llm_trace(variant=LONG_VARIANT, requests=60)
        first, second = tight().run(trace), tight().run(trace)
        assert first.preemptions > 0
        assert first.to_json() == second.to_json()


class TestDegenerateParity:
    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_batch_one_no_preemption_is_byte_exact_legacy(self, scheduler):
        trace = llm_trace()
        legacy = ServeSimulator(config=maco_default_config(num_nodes=4),
                                scheduler=scheduler).run(trace)
        step = step_simulator(scheduler=scheduler, max_batch=1, preemption=False).run(trace)
        legacy_payload = json.loads(legacy.to_json())
        step_payload = json.loads(step.to_json())
        # Only the mode label differs: the degenerate configuration delegates
        # to the request-level loop but still reports what was configured.
        assert legacy_payload.pop("batching") == "request"
        assert step_payload.pop("batching") == "step"
        assert step_payload == legacy_payload

    @pytest.mark.parametrize("nodes, parallelism", [(4, None), (1, None), (4, "tp:2")])
    def test_general_step_loop_at_batch_one_is_byte_exact_legacy(self, nodes, parallelism):
        # With preemption on, batch 1 runs the real step runner; a request's
        # step ticks sum exactly to its request-mode latency ticks, so on
        # fleets without pipeline parallelism it reproduces the request
        # runner's report byte for byte.
        trace = llm_trace()
        config = maco_default_config(num_nodes=nodes)
        legacy = ServeSimulator(config=config, parallelism=parallelism).run(trace)
        step = step_simulator(config=config, parallelism=parallelism, max_batch=1,
                              preemption=True, kv_budget_bytes=float("inf")).run(trace)
        legacy_payload = json.loads(legacy.to_json())
        step_payload = json.loads(step.to_json())
        assert legacy_payload.pop("batching") == "request"
        assert step_payload.pop("batching") == "step"
        assert step_payload == legacy_payload


class TestStepExecution:
    def test_all_requests_complete(self):
        trace = llm_trace()
        report = step_simulator().run(trace)
        assert sum(tenant.requests for tenant in report.tenants) == len(trace)
        assert report.batching == "step"

    def test_budget_must_fit_one_request(self):
        with pytest.raises(ValueError, match="kv_budget_bytes"):
            step_simulator(kv_budget_bytes=1024).run(llm_trace(requests=4))

    def test_no_preemption_keeps_residents(self):
        # Same tight budget that forces preemptions above: with preemption
        # disabled it only gates admission, so nobody is ever evicted.
        simulator = step_simulator()
        peak = simulator.service_profile(LONG_VARIANT).peak_state_bytes
        report = step_simulator(kv_budget_bytes=peak * 1.5, preemption=False).run(
            llm_trace(variant=LONG_VARIANT, requests=60))
        assert report.preemptions == 0

    def test_preemption_charges_restore_and_slows_victims(self):
        trace = llm_trace(variant=LONG_VARIANT, requests=60)
        simulator = step_simulator()
        peak = simulator.service_profile(LONG_VARIANT).peak_state_bytes
        roomy = step_simulator(kv_budget_bytes=DEFAULT_KV_BUDGET_BYTES).run(trace)
        tight = step_simulator(kv_budget_bytes=peak * 1.5).run(trace)
        assert tight.preemptions > 0
        assert sum(t.requests for t in tight.tenants) == len(trace)
        assert roomy.preemptions == 0

    def test_service_profile_partitions_request_latency(self):
        simulator = step_simulator()
        profile = simulator.service_profile(VARIANT)
        assert len(profile.steps) > 1
        assert sum(step.seconds for step in profile.steps) == pytest.approx(
            profile.latency_s, rel=1e-12)
        assert profile.peak_state_bytes == max(step.state_bytes for step in profile.steps)

    @pytest.mark.parametrize("parallelism", [None, "tp:2", "pp:2"])
    def test_step_ticks_partition_the_request_tables(self, parallelism):
        # One boundary list per (pair, server) feeds both runners: the step
        # ticks sum to the latency tick and start with the first-token tick.
        records = [{"tenant": f"t{index % 3}",
                    "workload": [f"{VARIANT},prefill", f"{VARIANT},decode", "bert"][index % 3],
                    "arrival_s": 0.25 * index, "precision": ["fp16", "fp32"][index % 2]}
                   for index in range(12)]
        trace = replay_trace(records)
        et = step_simulator(parallelism=parallelism)._engine_trace(trace.columns, trace)
        pairs, servers = et.latency_table.shape
        assert pairs == 6 and servers == (4 if parallelism is None else 2)
        for server in range(servers):
            for pair in range(pairs):
                ticks = et.step.ticks[server][pair]
                assert sum(ticks) == et.latency_table[pair, server]
                assert ticks[0] == et.first_table[pair, server]
        assert max(len(row) for row in et.step.ticks[0]) > 1
        if parallelism != "pp:2":
            assert np.array_equal(et.interval_table, et.latency_table)


class TestQueueAccounting:
    def test_littles_law_holds_in_step_mode(self):
        # Queue depth counts waiting intervals, so its time integral over the
        # makespan equals the summed waits exactly (no preemptions here).
        report = step_simulator().run(llm_trace(requests=120))
        assert report.preemptions == 0
        waits = sum(tenant.wait_mean_s * tenant.requests for tenant in report.tenants)
        assert report.queue_depth_mean * report.makespan_s == pytest.approx(waits, rel=1e-12)

    def test_readmission_never_precedes_preemption(self):
        # An idle server must not re-admit a victim before it was evicted.
        tenants = llm_tenants(2, variant=LONG_VARIANT)
        peak = max(workload_graph_by_name(workload).peak_state_bytes
                   for spec in tenants for workload, _ in spec.mix)
        simulator = step_simulator(
            scheduler="slo", kv_budget_bytes=1.5 * peak,
            autoscale=AutoscalePolicy(min_groups=1, max_groups=4))
        ingest, interactive = simulator.suggest_rates(tenants, utilization=0.9)
        specs = [ingest.with_slo(ttft_slo_s=4.0),
                 interactive.with_slo(ttft_slo_s=1.0, tpot_slo_s=0.2, priority=1)]
        trace = bursty_trace(specs, 300 / sum(spec.rate_rps for spec in specs), seed=2)
        simulator._prepare_services(trace)
        et = simulator._engine_trace(trace.columns, trace)
        requeued = simulate_segments(et).requeued
        assert len(requeued) > 50
        assert (requeued[:, 1] >= requeued[:, 0]).all()


class TestSLOMetrics:
    def test_goodput_never_exceeds_throughput(self):
        report = step_simulator(scheduler="slo").run(llm_trace())
        assert 0.0 <= report.goodput_rps <= report.throughput_rps + 1e-12
        assert 0.0 <= report.slo_attainment <= 1.0

    def test_no_targets_means_full_attainment(self):
        report = step_simulator().run(llm_trace())
        assert report.slo_attainment == 1.0
        assert report.goodput_rps == pytest.approx(report.throughput_rps)

    def test_ttft_tpot_percentiles_are_ordered(self):
        report = step_simulator().run(llm_trace())
        assert report.ttft_p50_s <= report.ttft_p95_s <= report.ttft_p99_s
        assert report.tpot_p50_s <= report.tpot_p95_s <= report.tpot_p99_s
        assert report.ttft_p50_s > 0.0


class TestWorkloadTokens:
    def test_decode_phases_carry_token_counts(self):
        graph = workload_graph_by_name(VARIANT, Precision.FP32)
        decode_tokens = [phase.tokens for phase in graph.phases if "decode" in phase.name]
        assert decode_tokens and all(tokens > 0 for tokens in decode_tokens)
        assert sum(decode_tokens) == graph.total_tokens

    def test_profile_tokens_match_graph(self):
        simulator = step_simulator()
        graph = workload_graph_by_name(VARIANT, Precision.FP32)
        profile = simulator.service_profile(VARIANT)
        assert profile.total_tokens == graph.total_tokens


class TestCLI:
    def test_serve_step_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.batching == "request"
        assert args.max_batch == 8
        assert args.kv_budget is None
        assert not args.no_preemption
        assert args.slo is None

    def test_scheduler_choices_track_registry(self):
        for name in SCHEDULER_NAMES:
            args = build_parser().parse_args(["serve", "--scheduler", name])
            assert args.scheduler == name

    def test_parse_slo_forms(self):
        assert _parse_slo("0.5") == (0.5, None)
        assert _parse_slo(":0.1") == (None, 0.1)
        assert _parse_slo("0.5:0.1") == (0.5, 0.1)

    @pytest.mark.parametrize("text", ["", ":", "fast", "-1", "0.5:-1"])
    def test_parse_slo_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            _parse_slo(text)

    def test_malformed_slo_exits_cleanly(self, capsys):
        assert main(["serve", "--trace", "poisson", "--tenants", "2",
                     "--tenant-mix", "llm", "--requests", "8", "--nodes", "2",
                     "--slo", "banana"]) == 2
        assert "--slo" in capsys.readouterr().err

    def test_step_serve_command_reports_slo_table(self, capsys):
        assert main(["serve", "--trace", "poisson", "--tenants", "2",
                     "--tenant-mix", "llm", "--seed", "7", "--requests", "12",
                     "--nodes", "2", "--batching", "step", "--max-batch", "4",
                     "--scheduler", "slo", "--slo", "0.5:0.1"]) == 0
        output = capsys.readouterr().out
        assert "SLO" in output
        assert "preemptions" in output
