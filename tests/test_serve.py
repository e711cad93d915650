"""Tests for the trace-driven multi-tenant serving simulator (repro.serve)."""

import json
import threading

import numpy as np
import pytest

from repro.core import maco_default_config
from repro.gemm import Precision
from repro.serve import (
    Request,
    ServeSimulator,
    TenantSpec,
    bursty_trace,
    default_tenants,
    poisson_trace,
    replay_trace,
    scheduler_by_name,
)
from repro.serve.report import _select_ranks


def make_request(request_id, tenant="t0", workload="resnet50", arrival=0.0):
    return Request(request_id=request_id, tenant=tenant, workload=workload, arrival_s=arrival)


@pytest.fixture
def simulator():
    return ServeSimulator(config=maco_default_config(num_nodes=4), scheduler="fcfs")


def quick_trace(seed=7, tenants=3, rate=2.0, duration=20.0):
    specs = [spec.with_rate(rate) for spec in default_tenants(tenants)]
    return poisson_trace(specs, duration, seed=seed)


# ------------------------------------------------------------------ percentiles
class TestPercentile:
    def test_nearest_rank_values(self):
        data = np.arange(1, 101)
        assert _select_ranks(data) == (50, 95, 99)

    def test_monotone_in_q(self):
        data = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0])
        values = list(_select_ranks(data))
        assert values == sorted(values)


# ------------------------------------------------------------------ trace layer
class TestTraces:
    def test_poisson_trace_is_deterministic(self):
        first = quick_trace(seed=11)
        second = quick_trace(seed=11)
        assert first.to_records() == second.to_records()

    def test_different_seeds_differ(self):
        assert quick_trace(seed=1).to_records() != quick_trace(seed=2).to_records()

    def test_arrivals_sorted_with_stable_ids(self):
        trace = quick_trace()
        arrivals = [request.arrival_s for request in trace]
        assert arrivals == sorted(arrivals)
        assert [request.request_id for request in trace] == list(range(len(trace)))

    def test_poisson_rate_roughly_respected(self):
        specs = [TenantSpec(name="a", rate_rps=50.0, mix=(("bert", 1.0),))]
        trace = poisson_trace(specs, duration_s=40.0, seed=3)
        assert 50.0 * 40.0 * 0.8 < len(trace) < 50.0 * 40.0 * 1.2

    def test_bursty_preserves_mean_rate_but_clusters(self):
        specs = [TenantSpec(name="a", rate_rps=50.0, mix=(("bert", 1.0),))]
        smooth = poisson_trace(specs, duration_s=40.0, seed=5)
        bursty = bursty_trace(specs, duration_s=40.0, seed=5, burst_factor=8.0,
                              burst_fraction=0.2, cycle_s=0.5)
        assert len(bursty) == pytest.approx(len(smooth), rel=0.25)
        in_burst = sum(1 for r in bursty if (r.arrival_s % 0.5) / 0.5 < 0.2)
        assert in_burst / len(bursty) > 0.8  # arrivals concentrate in the bursts

    def test_default_tenants_rotate_dominant_workload(self):
        specs = default_tenants(3)
        dominants = [max(spec.mix, key=lambda item: item[1])[0] for spec in specs]
        assert len(set(dominants)) == 3

    def test_replay_round_trip(self, tmp_path):
        trace = quick_trace()
        path = tmp_path / "trace.json"
        trace.save(path)
        replayed = replay_trace(path)
        assert replayed.to_records() == trace.to_records()

    def test_replay_rejects_malformed_records(self):
        with pytest.raises(ValueError):
            replay_trace([{"tenant": "a"}])

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(name="a", rate_rps=0.0)
        with pytest.raises(ValueError):
            TenantSpec(name="a", mix=())
        with pytest.raises(ValueError):
            poisson_trace(default_tenants(1), duration_s=0.0)
        with pytest.raises(ValueError):
            default_tenants(0)


# ------------------------------------------------------------------- schedulers
class TestSchedulers:
    # Policies key on ranks: positions in (arrival, request id) order.
    def test_fcfs_pops_in_arrival_order(self):
        scheduler = scheduler_by_name("fcfs")
        for rank in (2, 0, 1):
            scheduler.push(rank)
        assert [scheduler.pop() for _ in range(3)] == [0, 1, 2]

    def test_sjf_pops_shortest_estimate_first(self):
        # Service ticks per rank: gpt3, resnet50, bert.
        scheduler = scheduler_by_name("sjf", service=np.array([30, 1, 10]))
        for rank in range(3):
            scheduler.push(rank)
        assert [scheduler.pop() for _ in range(3)] == [1, 2, 0]

    def test_round_robin_alternates_tenants(self):
        tenants = ["a", "a", "a", "b", "b"]
        scheduler = scheduler_by_name("rr", tenant=np.array([0, 0, 0, 1, 1]))
        for rank in range(5):
            scheduler.push(rank)
        order = [tenants[scheduler.pop()] for _ in range(5)]
        assert order == ["a", "b", "a", "b", "a"]

    def test_pop_empty_raises(self):
        for scheduler in (scheduler_by_name("fcfs"),
                          scheduler_by_name("rr", tenant=np.array([0]))):
            with pytest.raises(IndexError):
                scheduler.pop()
            with pytest.raises(IndexError):
                scheduler.peek()

    def test_factory(self):
        assert scheduler_by_name("fcfs").name == "fcfs"
        assert scheduler_by_name("rr", tenant=np.array([0])).name == "rr"
        assert scheduler_by_name("sjf", service=np.array([1])).name == "sjf"
        with pytest.raises(ValueError):
            scheduler_by_name("sjf")
        with pytest.raises(ValueError):
            scheduler_by_name("lifo")


# ------------------------------------------------------------------- simulator
class TestSimulator:
    def test_identical_seed_gives_bit_identical_reports(self, simulator):
        trace = quick_trace(seed=7)
        first = simulator.run(trace)
        second = ServeSimulator(config=maco_default_config(num_nodes=4)).run(quick_trace(seed=7))
        assert first.to_json() == second.to_json()

    @pytest.mark.parametrize("scheduler", ["fcfs", "sjf", "rr"])
    def test_warm_timing_cache_does_not_change_report(self, scheduler):
        # Service estimates are pure: a simulator estimating through a cache
        # another simulator filled reports what a cold cache gives.
        from repro.core.perf import TimingCache

        trace = quick_trace(seed=9)
        config = maco_default_config(num_nodes=4)
        warm = TimingCache()
        ServeSimulator(config=config, scheduler=scheduler, cache=warm).run(trace)
        misses = warm.misses
        rerun = ServeSimulator(config=config, scheduler=scheduler, cache=warm).run(trace)
        assert warm.misses == misses and warm.hits > 0
        cold = ServeSimulator(config=config, scheduler=scheduler, cache=TimingCache()).run(trace)
        assert rerun.to_json() == cold.to_json()

    def test_percentile_ordering_regression(self, simulator):
        report = simulator.run(quick_trace(seed=3))
        assert report.latency_p99_s >= report.latency_p95_s >= report.latency_p50_s
        for tenant in report.tenants:
            assert tenant.latency_p99_s >= tenant.latency_p50_s

    def test_tenant_throughputs_sum_to_fleet(self, simulator):
        report = simulator.run(quick_trace(seed=3))
        assert sum(t.throughput_rps for t in report.tenants) == pytest.approx(
            report.throughput_rps, rel=1e-12)
        assert sum(t.requests for t in report.tenants) == report.total_requests

    def test_all_requests_complete_and_nodes_busy(self, simulator):
        trace = quick_trace(seed=4)
        report = simulator.run(trace)
        assert report.total_requests == len(trace)
        assert sum(node.completed for node in report.nodes) == len(trace)
        assert 0.0 < report.mean_utilization <= 1.0
        for node in report.nodes:
            assert node.utilization <= 1.0 + 1e-12

    def test_single_tenant_has_no_context_switches(self):
        specs = [TenantSpec(name="only", rate_rps=3.0, mix=(("resnet50", 1.0),))]
        trace = poisson_trace(specs, duration_s=10.0, seed=1)
        report = ServeSimulator(config=maco_default_config(num_nodes=2)).run(trace)
        assert report.context_switch_s == 0.0
        assert all(node.tenant_switches == 0 for node in report.nodes)

    @pytest.mark.parametrize("options", [{}, {"batching": "step", "max_batch": 2}],
                             ids=["request", "step"])
    def test_idle_node_keeps_its_last_tenant_resident(self, options):
        """An idle gap does not evict the resident tenant: the next request of
        another tenant pays the 830-tick switch (1,824 CPU cycles at 2.2 GHz,
        rounded up) even 1000 s later."""
        from repro.serve import RequestTrace

        trace = RequestTrace(name="idle", requests=[
            make_request(0, tenant="a", arrival=0.0),
            make_request(1, tenant="b", arrival=1000.0)])
        report = ServeSimulator(config=maco_default_config(num_nodes=1), **options).run(trace)
        assert [node.tenant_switches for node in report.nodes] == [1]
        assert report.context_switch_s == 8.3e-07
        latency = {tenant.name: tenant.latency_mean_s for tenant in report.tenants}
        assert round((latency["b"] - latency["a"]) * 1e9) == 830
        assert report.latency_p99_s == 0.417497317

    def test_multi_tenant_interleaving_charges_switches(self, simulator):
        report = simulator.run(quick_trace(seed=5))
        assert sum(node.tenant_switches for node in report.nodes) > 0
        assert report.context_switch_s > 0.0

    def test_latency_never_below_service_time(self, simulator):
        specs = [TenantSpec(name="only", rate_rps=1.0, mix=(("resnet50", 1.0),))]
        trace = poisson_trace(specs, duration_s=10.0, seed=2)
        report = simulator.run(trace)
        service = simulator.service_profile("resnet50", Precision.FP32).latency_s
        # finish - arrival can round down by one ulp relative to the raw estimate
        assert report.latency_p50_s >= service * (1.0 - 1e-12)

    def test_sjf_favours_short_jobs_over_fcfs(self):
        # Saturate a single node with a mixed queue: SJF must finish the short
        # resnet50 requests first, cutting their latency versus FCFS.
        specs = [
            TenantSpec(name="short", rate_rps=2.0, mix=(("resnet50", 1.0),)),
            TenantSpec(name="long", rate_rps=2.0, mix=(("gpt3", 1.0),)),
        ]
        trace = poisson_trace(specs, duration_s=10.0, seed=6)
        fcfs = ServeSimulator(config=maco_default_config(num_nodes=1), scheduler="fcfs")
        sjf = ServeSimulator(config=maco_default_config(num_nodes=1), scheduler="sjf")
        fcfs_report, sjf_report = fcfs.run(trace), sjf.run(trace)
        short_fcfs = next(t for t in fcfs_report.tenants if t.name == "short")
        short_sjf = next(t for t in sjf_report.tenants if t.name == "short")
        assert short_sjf.latency_mean_s < short_fcfs.latency_mean_s

    def test_report_json_round_trips(self, simulator):
        report = simulator.run(quick_trace(seed=8))
        parsed = json.loads(report.to_json())
        assert parsed["total_requests"] == report.total_requests
        assert len(parsed["tenants"]) == len(report.tenants)
        assert parsed == report.to_dict()

    def test_suggest_rates_targets_utilization(self):
        simulator = ServeSimulator(config=maco_default_config(num_nodes=4))
        specs = simulator.suggest_rates(default_tenants(3), utilization=0.7)
        trace = poisson_trace(specs, duration_s=60.0 / sum(s.rate_rps for s in specs) * 10, seed=1)
        report = simulator.run(trace)
        # Short traces drift from the asymptotic target; just require sanity.
        assert 0.3 < report.mean_utilization <= 1.0

    def test_functional_smoke_verifies_gemms(self):
        simulator = ServeSimulator(config=maco_default_config(num_nodes=2))
        trace = quick_trace(seed=1, duration=5.0)
        simulator.run(trace)
        assert simulator.functional_smoke(trace, size=32, max_requests=3) == 3

    def test_functional_smoke_builds_no_request_objects(self, monkeypatch):
        """The smoke reads request ids from the trace columns only."""
        from repro.serve.trace import TraceColumns

        def refuse(self):
            raise AssertionError("functional_smoke materialised the whole trace")

        monkeypatch.setattr(TraceColumns, "materialize", refuse)
        simulator = ServeSimulator(config=maco_default_config(num_nodes=2))
        assert simulator.functional_smoke(quick_trace(seed=1, duration=5.0), size=32) == 4

    @pytest.mark.parametrize("mode", ["request", "step", "autoscaled step"])
    def test_serving_builds_no_functional_machine(self, monkeypatch, mode):
        """Pricing and simulation read only the MACOConfig."""
        from repro.core.maco import MACOSystem
        from repro.serve import AutoscalePolicy, llm_tenants

        def refuse(*args, **kwargs):
            raise AssertionError("serving built a functional MACOSystem")

        monkeypatch.setattr(MACOSystem, "__init__", refuse)
        options = {} if mode == "request" else dict(batching="step", max_batch=2)
        if mode == "autoscaled step":
            options["autoscale"] = AutoscalePolicy(min_groups=1, max_groups=2)
        simulator = ServeSimulator(config=maco_default_config(num_nodes=2), **options)
        specs = simulator.suggest_rates(
            llm_tenants(2, variant="llama-7b@layers=1,prompt=16,decode=8,block=4"))
        report = simulator.run(poisson_trace(specs, 2.0, seed=3))
        assert report.total_requests > 0

    def test_unsorted_trace_simulates_like_sorted(self):
        """A hand-built out-of-order RequestTrace must not corrupt dispatch."""
        from repro.serve import RequestTrace

        requests = [make_request(0, arrival=5.0), make_request(1, arrival=1.0),
                    make_request(2, arrival=3.0)]
        shuffled = RequestTrace(name="t", requests=requests, duration_s=6.0)
        ordered = RequestTrace(name="t", requests=sorted(
            requests, key=lambda r: r.arrival_s), duration_s=6.0)
        config = maco_default_config(num_nodes=1)
        first = ServeSimulator(config=config).run(shuffled)
        second = ServeSimulator(config=config).run(ordered)
        assert first.to_json() == second.to_json()

    def test_disabling_mapping_increases_service_time(self):
        """The service estimate must mirror run_workload's L3-share collapse."""
        mapped = maco_default_config(num_nodes=4)
        unmapped = mapped.with_mapping(False)
        with_mapping = ServeSimulator(config=mapped).service_profile("bert", Precision.FP32)
        without = ServeSimulator(config=unmapped).service_profile("bert", Precision.FP32)
        assert without.latency_s > with_mapping.latency_s

    def test_queue_depth_mean_counts_in_service_waiters_exactly(self):
        """N same-instant requests on one node: time-averaged depth = (N-1)/2."""
        from repro.serve import RequestTrace

        n = 6
        trace = RequestTrace(
            name="burst", duration_s=1.0,
            requests=[make_request(i, arrival=0.0) for i in range(n)])
        report = ServeSimulator(config=maco_default_config(num_nodes=1)).run(trace)
        assert report.queue_depth_mean == pytest.approx((n - 1) / 2)
        assert report.queue_depth_max == n

    def test_suggest_rates_leaves_the_estimates_memoised(self):
        simulator = ServeSimulator(config=maco_default_config(num_nodes=4))
        simulator.suggest_rates(default_tenants(3))
        # suggest_rates must leave the estimates memoized for run() to reuse.
        assert len(simulator._services) == 3


# ---------------------------------------------------------- phase-aware serving
def run_within(seconds, function):
    """Run ``function`` on a daemon thread and fail if it outlives ``seconds``."""
    outcome = {}

    def target():
        try:
            outcome["value"] = function()
        except BaseException as error:  # re-raised on the test thread
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


#: ``(record overrides, error phrase)``: one hostile field per case.
HOSTILE_FIELDS = [
    ({"arrival_s": float("nan")}, "arrival"),
    ({"arrival_s": float("inf")}, "arrival"),
    ({"arrival_s": -1.0}, "arrival"),
    ({"arrival_s": 1e300}, "2\\*\\*63"),
    ({"ttft_slo_s": float("nan")}, "TTFT"),
    ({"tpot_slo_s": float("inf")}, "TPOT"),
    ({"ttft_slo_s": 0.0}, "TTFT"),
    ({"priority": 2**31}, "int32"),
    ({"priority": 1.5}, "priority must be a whole number"),
    ({"priority": True}, "priority must be a number"),
    ({"arrival_s": True}, "arrival_s must be a number"),
    ({"tpot_slo_s": True}, "tpot_slo_s must be a number"),
]


class TestHostileReplay:
    """Non-finite or out-of-range replay fields fail cleanly, never silently."""

    @staticmethod
    def records(overrides):
        records = [{"tenant": "t0", "workload": "bert", "arrival_s": 0.1 * index}
                   for index in range(3)]
        records[1].update(overrides)
        return records

    @pytest.mark.parametrize("overrides, phrase", HOSTILE_FIELDS)
    def test_replay_raises_value_error(self, overrides, phrase):
        with pytest.raises(ValueError, match=phrase):
            replay_trace(self.records(overrides))

    @pytest.mark.parametrize("overrides, phrase", HOSTILE_FIELDS)
    def test_request_raises_value_error(self, overrides, phrase):
        fields = {"request_id": 0, "tenant": "t0", "workload": "bert", "arrival_s": 0.0}
        fields.update(overrides)
        with pytest.raises(ValueError, match=phrase):
            Request(**fields)

    @pytest.mark.parametrize("batching", ["request", "step"])
    @pytest.mark.parametrize("overrides, phrase", HOSTILE_FIELDS)
    def test_cli_exits_2(self, tmp_path, capsys, batching, overrides, phrase):
        from repro.cli import main

        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(self.records(overrides)))  # NaN/Infinity tokens
        argv = ["serve", "--trace", "replay", "--trace-file", str(path),
                "--nodes", "2", "--batching", batching, "--format", "json"]
        assert run_within(60, lambda: main(argv)) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err and captured.out == ""


class TestHostileGeneratedInputs:
    """Generator parameters that would poison or overflow the engine fail cleanly."""

    @pytest.mark.parametrize("field, value, phrase", [
        ("rate_rps", float("nan"), "rate"),
        ("rate_rps", float("inf"), "rate"),
        ("ttft_slo_s", float("nan"), "TTFT"),
        ("tpot_slo_s", float("inf"), "TPOT"),
    ])
    def test_tenant_spec_rejects_what_request_rejects(self, field, value, phrase):
        with pytest.raises(ValueError, match=phrase):
            TenantSpec(name="t0", **{field: value})

    @pytest.mark.parametrize("flags, phrase", [
        (["--slo", "nan:0.1"], "--slo"),
        (["--rate", "nan"], "rate"),
        (["--utilization", "1e-300"], "arrival"),
    ])
    def test_cli_exits_2_naming_the_input(self, capsys, flags, phrase):
        from repro.cli import main

        argv = ["serve", "--trace", "poisson", "--tenants", "2", "--requests", "30",
                "--nodes", "4", "--format", "json", *flags]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert phrase in captured.err and captured.out == ""

    def test_arrival_plus_service_overflow_is_rejected(self):
        # 2**63 ns is 9223372036.85 s: a BERT request arriving 6.85 s before
        # that would finish past the end of the engine's int64 clock.
        trace = replay_trace([{"tenant": "t0", "workload": "bert", "arrival_s": 9.22337203e9}])
        simulator = ServeSimulator(config=maco_default_config(num_nodes=1), scheduler="fcfs")
        with pytest.raises(ValueError, match="overflows"):
            simulator.run(trace)


class TestTickDomain:
    """Every accepted tick stays on the engine's clock, below its sentinel."""

    @staticmethod
    def late_pair():
        # Two gpt3 requests whose first finish fits the int64 clock but whose
        # second, queued behind it, does not.
        latency = ServeSimulator(config=maco_default_config(num_nodes=1)).service_profile(
            "gpt3").latency_s
        arrival = 2**63 / 1e9 - 1.5 * latency
        return [{"tenant": "t0", "workload": "gpt3", "arrival_s": arrival}] * 2

    @pytest.mark.parametrize("scheduler", ["fcfs", "sjf"])
    def test_serial_drain_past_the_clock_is_rejected(self, scheduler):
        simulator = ServeSimulator(config=maco_default_config(num_nodes=1), scheduler=scheduler)
        with pytest.raises(ValueError, match="overflows"):
            simulator.run(replay_trace(self.late_pair()))

    def test_cli_exits_2_on_a_drain_past_the_clock(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "late.json"
        path.write_text(json.dumps(self.late_pair()))
        argv = ["serve", "--trace", "replay", "--trace-file", str(path), "--nodes", "1",
                "--format", "json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "overflows" in captured.err and captured.out == ""

    def test_slo_deadline_past_the_clock_is_rejected(self):
        trace = replay_trace([{"tenant": "t0", "workload": "bert", "arrival_s": 1.0,
                               "ttft_slo_s": 1e10}])
        simulator = ServeSimulator(config=maco_default_config(num_nodes=1), scheduler="slo")
        with pytest.raises(ValueError, match="request 0: TTFT SLO"):
            simulator.run(trace)

    def test_step_runner_accepts_arrivals_past_two_to_the_62_ns(self):
        trace = replay_trace([{"tenant": "t0", "workload": "bert", "arrival_s": 4.7e9}])
        simulator = ServeSimulator(config=maco_default_config(num_nodes=2),
                                   batching="step", max_batch=2)
        report = simulator.run(trace)
        assert report.tenants[0].requests == 1
        assert report.makespan_s > 4.7e9

    @pytest.mark.parametrize("start", [1.0, 4.7e9])
    def test_slo_deadlines_order_before_no_deadline_anywhere_on_the_clock(self, start):
        # The deadline-carrying resnet50 request overtakes the earlier one
        # without an SLO while the bert request holds the only node.
        trace = replay_trace([
            {"tenant": "bert", "workload": "bert", "arrival_s": start},
            {"tenant": "none", "workload": "resnet50", "arrival_s": start + 0.001},
            {"tenant": "slo", "workload": "resnet50", "arrival_s": start + 0.002,
             "ttft_slo_s": 0.5},
        ])
        report = ServeSimulator(config=maco_default_config(num_nodes=1), scheduler="slo").run(
            trace)
        latency = {tenant.name: tenant.latency_mean_s for tenant in report.tenants}
        assert latency["slo"] < latency["none"]


class TestLLMServing:
    """LLM prefill/decode tenants through the phase-aware service estimator."""

    VARIANT = "llama-7b@layers=2,prompt=128,decode=16,block=8"

    def llm_trace(self, seed=7, rate=1.0, duration=12.0):
        from repro.serve import llm_tenants

        specs = llm_tenants(2, rate_rps=rate, variant=self.VARIANT)
        return poisson_trace(specs, duration, seed=seed)

    def test_llm_tenants_alternate_prefill_and_decode(self):
        from repro.serve import llm_tenants

        specs = llm_tenants(4)
        dominants = [max(spec.mix, key=lambda item: item[1])[0] for spec in specs]
        assert dominants == ["llama-7b@prefill", "llama-7b@decode"] * 2

    def test_llm_tenants_reject_variant_with_phase_tag(self):
        """The split is llm_tenants' job; a phase-tagged variant fails early."""
        from repro.serve import llm_tenants

        for variant in ("llama-7b@decode", "llama-7b@layers=2,prefill",
                        "llama-7b@phases=decode"):
            with pytest.raises(ValueError, match="already selects phases"):
                llm_tenants(2, variant=variant)
        # Parameter-only specs still work.
        specs = llm_tenants(2, variant="llama-7b@layers=2")
        assert specs[0].mix[0][0] == "llama-7b@layers=2,prefill"

    def test_phase_estimates_sum_to_service_time(self):
        simulator = ServeSimulator(config=maco_default_config(num_nodes=2))
        profile = simulator.service_profile(self.VARIANT, Precision.FP32)
        phases, total = profile.steps, profile.latency_s
        assert len(phases) == 1 + 2  # prefill + two decode blocks
        assert sum(step.seconds for step in phases) == pytest.approx(total, rel=1e-12)
        assert all(step.seconds > 0 for step in phases)

    def test_decode_costs_more_than_prefill_per_flop(self):
        """Decode streams the full weights per token: far lower useful GFLOPS."""
        from repro.workloads import workload_graph_by_name

        simulator = ServeSimulator(config=maco_default_config(num_nodes=2))
        base = self.VARIANT.partition("@")[0]
        spec = self.VARIANT.partition("@")[2]
        prefill_name = f"{base}@{spec},prefill"
        decode_name = f"{base}@{spec},decode"
        ratios = {}
        for name in (prefill_name, decode_name):
            seconds = simulator.service_profile(name, Precision.FP32).latency_s
            flops = workload_graph_by_name(name).total_flops
            ratios[name] = flops / seconds
        assert ratios[prefill_name] > 2 * ratios[decode_name]

    def test_llm_mix_reports_are_deterministic(self):
        trace = self.llm_trace(seed=11)
        first = ServeSimulator(config=maco_default_config(num_nodes=2)).run(trace)
        second = ServeSimulator(config=maco_default_config(num_nodes=2)).run(
            self.llm_trace(seed=11))
        assert first.to_json() == second.to_json()

    def test_llm_mix_report_does_not_depend_on_the_timing_cache(self):
        from repro.core.perf import TimingCache

        trace = self.llm_trace(seed=5)
        config = maco_default_config(num_nodes=2)
        warm = TimingCache()
        ServeSimulator(config=config, cache=warm).run(trace)
        rerun = ServeSimulator(config=config, cache=warm).run(trace)
        cold = ServeSimulator(config=config, cache=TimingCache()).run(trace)
        assert rerun.to_json() == cold.to_json()

    def test_report_distinguishes_prefill_from_decode_tenants(self):
        report = ServeSimulator(config=maco_default_config(num_nodes=2)).run(
            self.llm_trace(seed=3, duration=20.0))
        by_name = {tenant.name: tenant for tenant in report.tenants}
        assert set(by_name) == {"tenant0-prefill", "tenant1-decode"}
        # The decode-heavy tenant pays for streaming the weights per token.
        assert by_name["tenant1-decode"].latency_p50_s > \
            by_name["tenant0-prefill"].latency_p50_s

    def test_phase_profile_breakdown(self):
        simulator = ServeSimulator(config=maco_default_config(num_nodes=2))
        profile = simulator.service_profile(self.VARIANT)
        names = [step.name for step in profile.steps]
        assert names[0].startswith("prefill")
        assert all(name.startswith("decode") for name in names[1:])
