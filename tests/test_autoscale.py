"""Tests for the elastic serve fleet (repro.serve.autoscale).

Covers the hysteresis controller's decision rules, the capacity-derived KV
budget (DRAM capacity minus sharded resident weights, per DESIGN.md section
11), the feasibility-error provenance, and the end-to-end elasticity story:
an autoscaled bursty overload run must match the fixed max-fleet's SLO
attainment on strictly fewer node-seconds, and degenerate to the
fixed-fleet report when ``min_groups == max_groups``.
"""

import dataclasses

import pytest

from repro.core import maco_default_config
from repro.gemm import Precision
from repro.mem.dram import DRAMModel
from repro.serve import (
    AutoscalePolicy,
    Autoscaler,
    KVBudget,
    ServeSimulator,
    bursty_trace,
    default_tenants,
    derive_kv_budget,
    llm_tenants,
    poisson_trace,
)
from repro.workloads import workload_graph_by_name

#: Small LLaMA proxy shared with test_continuous_batching.py: fast enough for
#: dozens of step-mode runs, heavy enough that four groups matter.
VARIANT = "llama-7b@layers=2,prompt=128,decode=32,block=8"


def overload_trace(seed=7, utilization=1.1, requests=60, bursty=True,
                   ttft_slo_s=15.0, tpot_slo_s=1.0):
    """A 110%-overload LLM trace with loose (but real) SLO targets.

    The loose targets keep attainment comparable between the elastic and the
    pinned fleet (both can meet them); the node-seconds comparison is where
    the elastic fleet must win.
    """
    config = maco_default_config(num_nodes=4)
    sizing = ServeSimulator(config=config)
    specs = [
        spec.with_slo(ttft_slo_s=ttft_slo_s, tpot_slo_s=tpot_slo_s)
        for spec in sizing.suggest_rates(
            llm_tenants(2, variant=VARIANT), utilization=utilization)
    ]
    duration = requests / sum(spec.rate_rps for spec in specs)
    generate = bursty_trace if bursty else poisson_trace
    return generate(specs, duration, seed=seed)


def elastic_simulator(min_groups=1, max_groups=4, **overrides):
    policy = AutoscalePolicy(min_groups=min_groups, max_groups=max_groups)
    defaults = dict(config=maco_default_config(num_nodes=4), scheduler="fcfs",
                    batching="step", max_batch=4, autoscale=policy)
    defaults.update(overrides)
    return ServeSimulator(**defaults)


def shrunk_capacity_config(node_capacity_bytes, num_nodes=4):
    """The default config with per-node DRAM capacity pinned to a byte count.

    With four channels and four nodes each node's capacity share equals one
    channel's capacity, so the pin is exact.
    """
    config = maco_default_config(num_nodes=num_nodes)
    dram = dataclasses.replace(
        config.memory.dram, channel_capacity_bytes=int(node_capacity_bytes))
    return dataclasses.replace(
        config, memory=dataclasses.replace(config.memory, dram=dram))


# ------------------------------------------------------------------- policy
class TestPolicyValidation:
    def test_bounds_are_validated(self):
        with pytest.raises(ValueError, match="min_groups"):
            AutoscalePolicy(min_groups=0)
        with pytest.raises(ValueError, match="max_groups"):
            AutoscalePolicy(min_groups=3, max_groups=2)
        with pytest.raises(ValueError, match="sustain_windows"):
            AutoscalePolicy(sustain_windows=0)
        with pytest.raises(ValueError, match="hysteresis"):
            AutoscalePolicy(scale_in_queue_depth=4.0, scale_out_queue_depth=4.0)
        with pytest.raises(ValueError, match="negative"):
            AutoscalePolicy(cooldown_s=-1.0)

    def test_autoscale_requires_step_batching(self):
        with pytest.raises(ValueError, match="step"):
            ServeSimulator(autoscale=AutoscalePolicy())

    def test_max_groups_bounded_by_fleet(self):
        with pytest.raises(ValueError, match="max_groups"):
            ServeSimulator(config=maco_default_config(num_nodes=2),
                           batching="step",
                           autoscale=AutoscalePolicy(max_groups=3))


class TestController:
    """Windows are ``(queue_depth_peak, served, slo_misses)`` triples."""

    POLICY = AutoscalePolicy(min_groups=1, max_groups=3, window_s=1.0,
                             sustain_windows=2, cooldown_s=2.0)

    def test_sustained_depth_pressure_scales_out(self):
        scaler = Autoscaler(self.POLICY)
        deep = (9, 0, 0)
        assert scaler.evaluate(1.0, *deep, 1) is None  # one window is not sustained
        assert scaler.evaluate(2.0, *deep, 1) == ("out", "queue-pressure")

    def test_sustained_slo_pressure_wins_the_reason(self):
        scaler = Autoscaler(self.POLICY)
        missing = (0, 10, 5)
        assert scaler.evaluate(1.0, *missing, 1) is None
        assert scaler.evaluate(2.0, *missing, 1) == ("out", "slo-pressure")

    def test_cooldown_suppresses_flapping(self):
        scaler = Autoscaler(self.POLICY)
        deep = (20, 0, 0)
        assert scaler.evaluate(2.0, *deep, 1) is None
        assert scaler.evaluate(3.0, *deep, 1) == ("out", "queue-pressure")
        # Pressure persists but the cooldown (until t=5) holds the line.
        assert scaler.evaluate(4.0, *deep, 2) is None
        assert scaler.evaluate(4.9, *deep, 2) is None
        assert scaler.evaluate(5.0, *deep, 2) == ("out", "queue-pressure")

    def test_idle_windows_scale_in_but_never_below_min(self):
        scaler = Autoscaler(self.POLICY)
        idle = (0, 0, 0)
        assert scaler.evaluate(1.0, *idle, 2) is None
        assert scaler.evaluate(2.0, *idle, 2) == ("in", "idle")
        assert scaler.evaluate(5.0, *idle, 1) is None
        assert scaler.evaluate(6.0, *idle, 1) is None  # at min_groups: held

    def test_out_bounded_by_committed_in_bounded_by_serving(self):
        scaler = Autoscaler(self.POLICY)
        deep = (20, 0, 0)
        scaler.evaluate(1.0, *deep, 3)
        # Committed at max (even with one group draining): no scale-out.
        assert scaler.evaluate(2.0, *deep, 3, draining_groups=1) is None
        scaler = Autoscaler(self.POLICY)
        idle = (0, 0, 0)
        scaler.evaluate(1.0, *idle, 2, draining_groups=1)
        # Serving (committed - draining) is already at min: no stacked drain.
        assert scaler.evaluate(2.0, *idle, 2, draining_groups=1) is None

    def test_band_between_thresholds_resets_streaks(self):
        scaler = Autoscaler(self.POLICY)
        idle = (0, 0, 0)
        band = (2, 4, 0)
        assert scaler.evaluate(1.0, *idle, 2) is None
        assert scaler.evaluate(2.0, *band, 2) is None  # streak broken
        assert scaler.evaluate(3.0, *idle, 2) is None  # must re-sustain
        assert scaler.evaluate(4.0, *idle, 2) == ("in", "idle")


# ------------------------------------------------------------ KV budget math
class TestKVBudgetSizing:
    CONFIG = maco_default_config(num_nodes=4)

    def node_capacity(self):
        return DRAMModel(config=self.CONFIG.memory.dram).node_capacity_bytes(4)

    @pytest.mark.parametrize("sharers", [1, 4])
    def test_auto_budget_is_capacity_minus_sharded_weights(self, sharers):
        weights = workload_graph_by_name(VARIANT, Precision.FP32).weight_bytes
        kv = derive_kv_budget(self.CONFIG, [(VARIANT, Precision.FP32)],
                              sharers=sharers, num_nodes=4)
        assert kv.source == "auto"
        assert kv.sharers == sharers
        assert kv.budget_bytes == self.node_capacity() - (-(-weights // sharers))
        assert "auto-derived" in kv.describe()

    @pytest.mark.parametrize("parallel,degree", [
        (None, 1), ("tp:4", 4), ("tp2d:2x2", 4),
    ])
    def test_simulator_resolves_auto_budget_per_parallelism(self, parallel, degree):
        trace = overload_trace(requests=8)
        simulator = ServeSimulator(config=self.CONFIG, batching="step",
                                   kv_budget_bytes="auto", parallelism=parallel)
        weights = workload_graph_by_name(VARIANT, Precision.FP32).weight_bytes
        kv = simulator.resolved_kv_budget(trace)
        assert kv.sharers == degree
        assert kv.budget_bytes == self.node_capacity() - (-(-weights // degree))

    def test_co_resident_workloads_subtract_the_largest_share(self):
        small = "llama-7b@layers=1,prompt=64,decode=16,block=8"
        pairs = [(VARIANT, Precision.FP32), (small, Precision.FP32)]
        kv = derive_kv_budget(self.CONFIG, pairs, sharers=1, num_nodes=4)
        assert kv.workload == VARIANT  # the two-layer stack dominates
        weights = workload_graph_by_name(VARIANT, Precision.FP32).weight_bytes
        assert kv.budget_bytes == self.node_capacity() - weights

    def test_weights_exceeding_capacity_raise_with_provenance(self):
        # llama-13b keeps ~10.2 GB resident; a 16-node fleet owns ~4.3 GB of
        # DRAM per node, so the weights alone cannot fit.
        with pytest.raises(ValueError, match="exceed the node DRAM capacity"):
            derive_kv_budget(maco_default_config(num_nodes=16),
                             [("llama-13b", Precision.FP32)],
                             sharers=1, num_nodes=16)
        # Sharding the weights four ways makes the same model fit.
        kv = derive_kv_budget(maco_default_config(num_nodes=16),
                              [("llama-13b", Precision.FP32)],
                              sharers=4, num_nodes=16)
        assert kv.budget_bytes > 0

    def test_explicit_and_default_budgets_pass_through(self):
        trace = overload_trace(requests=8)
        explicit = ServeSimulator(config=self.CONFIG, batching="step",
                                  kv_budget_bytes=123.0e6)
        kv = explicit.resolved_kv_budget(trace)
        assert (kv.budget_bytes, kv.source) == (123.0e6, "explicit")
        default = ServeSimulator(config=self.CONFIG, batching="step")
        assert default.resolved_kv_budget(trace).source == "default"
        with pytest.raises(ValueError, match="auto"):
            ServeSimulator(batching="step", kv_budget_bytes="automatic")

    def test_describe_states_the_provenance(self):
        assert "(explicit)" in KVBudget(8e6, "explicit").describe()
        auto = derive_kv_budget(self.CONFIG, [(VARIANT, Precision.FP32)],
                                sharers=2, num_nodes=4)
        text = auto.describe()
        assert "auto-derived" in text and "sharded 2x" in text


class TestFeasibilityProvenance:
    def test_explicit_budget_error_names_the_knob(self):
        trace = overload_trace(requests=8)
        simulator = ServeSimulator(config=maco_default_config(num_nodes=4),
                                   batching="step", kv_budget_bytes=1.0e6)
        with pytest.raises(ValueError, match="kv_budget_bytes"):
            simulator.run(trace)

    def test_auto_budget_error_reports_the_derivation(self):
        # Capacity one MB above the resident weights: the budget is positive
        # but no request fits, and the error must explain where the budget
        # came from, not just its byte count.
        weights = workload_graph_by_name(VARIANT, Precision.FP32).weight_bytes
        config = shrunk_capacity_config(weights + 1_000_000)
        simulator = ServeSimulator(config=config, batching="step",
                                   kv_budget_bytes="auto")
        trace = overload_trace(requests=8)
        with pytest.raises(ValueError, match="auto-derived"):
            simulator.run(trace)


# -------------------------------------------------------------- elastic runs
class TestElasticServing:
    def test_bursty_overload_matches_attainment_on_fewer_node_seconds(self):
        trace = overload_trace(seed=7, utilization=1.1)
        elastic = elastic_simulator(min_groups=1, max_groups=4).run(trace)
        pinned = elastic_simulator(min_groups=4, max_groups=4).run(trace)
        assert elastic.slo_attainment >= pinned.slo_attainment
        assert elastic.autoscale.node_seconds < pinned.autoscale.node_seconds
        assert (elastic.autoscale.goodput_per_node_second
                > pinned.autoscale.goodput_per_node_second)
        assert any(event.direction == "out" for event in elastic.autoscale.events)

    def test_steady_low_utilization_never_scales(self):
        trace = overload_trace(seed=11, utilization=0.15, bursty=False)
        report = elastic_simulator(min_groups=1, max_groups=4).run(trace)
        assert report.autoscale.events == ()
        assert all(groups == 1 for _, groups in report.autoscale.timeline)

    def test_timeline_stays_in_bounds_and_reconstructs_from_events(self):
        trace = overload_trace(seed=7, utilization=1.1)
        auto = elastic_simulator(min_groups=1, max_groups=4).run(trace).autoscale
        assert auto.events  # the overload must actually exercise the fleet
        for _, groups in auto.timeline:
            assert 1 <= groups <= 4
        changes = []
        for event in auto.events:
            assert event.groups_after == event.groups_before + (
                1 if event.direction == "out" else -1)
            if event.direction == "out":
                assert event.serving_from_s == pytest.approx(
                    event.time_s + auto.provision_delay_s)
                changes.append((event.time_s, 1))
            else:
                assert event.stopped_s >= event.time_s
                changes.append((event.stopped_s, -1))
        fleet = auto.min_groups
        rebuilt = [auto.timeline[0]]
        for time_s, delta in sorted(changes):
            fleet += delta
            rebuilt.append((time_s, fleet))
        assert tuple(rebuilt) == auto.timeline

    def test_reports_do_not_depend_on_the_timing_cache(self):
        from repro.core.perf import TimingCache

        trace = overload_trace(seed=7, utilization=1.1)
        warm = TimingCache()
        elastic_simulator(cache=warm).run(trace)
        rerun = elastic_simulator(cache=warm).run(trace).to_json()
        assert rerun == elastic_simulator(cache=TimingCache()).run(trace).to_json()

    def test_pinned_fleet_matches_fixed_fleet_byte_for_byte(self):
        trace = overload_trace(seed=7, utilization=1.1)
        pinned = elastic_simulator(min_groups=4, max_groups=4).run(trace)
        fixed = ServeSimulator(config=maco_default_config(num_nodes=4),
                               scheduler="fcfs", batching="step",
                               max_batch=4).run(trace)
        assert pinned.autoscale is not None and fixed.autoscale is None
        stripped = dataclasses.replace(pinned, autoscale=None)
        assert stripped.to_json() == fixed.to_json()

    def test_stopped_groups_never_admit(self):
        # Every admission falls inside one of its group's commitments: from
        # the start (or a scale-out's serving_from_s) up to the scale-in stop.
        # A group drained by a window evaluated on its own turn must not
        # keep that turn and admit while stopped.
        specs = [spec.with_rate(1.74).with_slo(ttft_slo_s=0.4 + 0.2 * index, tpot_slo_s=0.05,
                                               priority=index % 2)
                 for index, spec in enumerate(default_tenants(3))]
        trace = poisson_trace(specs, 2.5, seed=2189)
        policy = AutoscalePolicy(min_groups=1, max_groups=2, window_s=0.2, sustain_windows=2,
                                 cooldown_s=0.5, provision_delay_s=0.25)
        simulator = ServeSimulator(config=maco_default_config(num_nodes=4), scheduler="slo",
                                   batching="step", max_batch=2, autoscale=policy)
        events = simulator.run(trace).autoscale.events
        assert any(event.direction == "in" for event in events)
        spans = {group: [[-float("inf"), float("inf")]] for group in range(policy.min_groups)}
        for event in events:
            if event.direction == "out":
                spans.setdefault(event.group_id, []).append([event.serving_from_s, float("inf")])
            else:
                spans[event.group_id][-1][1] = event.stopped_s
        for admit_s, group in simulator.last_admissions:
            assert any(lo <= admit_s < hi for lo, hi in spans[group]), (admit_s, group)

    def test_report_dict_equals_asdict_with_tuples_kept(self):
        # to_dict skips asdict's per-leaf deepcopy; the autoscale section's
        # events and timeline are tuples, which must stay tuples.
        report = elastic_simulator().run(overload_trace(seed=7, utilization=1.1))
        assert report.autoscale.events
        plain = report.to_dict()
        assert plain == dataclasses.asdict(report)
        assert isinstance(plain["autoscale"]["events"], tuple)
        assert isinstance(plain["autoscale"]["timeline"][0], tuple)
        assert isinstance(plain["tenants"], list)

    def test_autoscale_section_renders(self):
        trace = overload_trace(seed=7, utilization=1.1, requests=20)
        report = elastic_simulator().run(trace)
        text = report.render()
        assert "autoscale: 1..4 groups" in text
        assert "node-seconds" in text
