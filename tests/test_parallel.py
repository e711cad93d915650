"""Multi-node parallel execution: partitioner, collectives, and their consumers.

The two contracts the model stakes out (docs/PARALLELISM.md):

* **conservation** — tensor-parallel sharding neither creates nor destroys
  compute: with communication zeroed, per-node compute seconds sum to the
  unsharded phase, for every catalog workload;
* **degree-1 identity** — a ``tp:1`` plan, an explorer evaluation under
  ``tp:1`` and a ``serve --parallel tp:1`` simulation are all bit-identical
  to their unsharded counterparts.

Plus the collective cost model's invariants, pipeline staging, and the
determinism of every parallel consumer on a cold and a warm timing cache.
"""

import json

import pytest

from repro.core import DesignSpaceExplorer, SweepRunner, maco_default_config
from repro.core.explorer import DesignPoint
from repro.core.perf import TimingCache, memory_environment
from repro.gemm.precision import Precision
from repro.parallel import (
    DEFAULT_GATHER_ASYMMETRY,
    OVERHEAD_COMPONENT_SHARES,
    PARALLELISM_STRATEGIES,
    CollectiveCostModel,
    ParallelismSpec,
    calibrate_overhead_factor,
    node_groups,
    plan_parallel,
    summa_grid,
    summa_pipeline_seconds,
    summa_steps,
)
from repro.workloads import workload_catalog, workload_graph_by_name

#: Small graphs that still exercise every phase kind (fast to time).
SMALL_LLM = "llama-7b@decode,layers=2,decode=16,block=8"
SMALL_MIXED = "llama-7b@batch=2,layers=2,decode=8,block=8"


# ``default_config``/``timing_cache`` come from conftest.py (session-scoped,
# shared with every other parallel-plan consumer); alias them to the short
# names this module's tests use throughout.
@pytest.fixture(scope="module")
def config(default_config):
    return default_config


@pytest.fixture(scope="module")
def cache(timing_cache):
    return timing_cache


class TestParallelismSpec:
    def test_parse_and_str_round_trip(self):
        spec = ParallelismSpec.parse("tp:4")
        assert (spec.strategy, spec.degree) == ("tp", 4)
        assert str(spec) == "tp:4"
        assert ParallelismSpec.parse(spec) is spec

    @pytest.mark.parametrize("text", ["tp", "tp:", ":4", "tp:four", "dp:2", "tp:0"])
    def test_malformed_specs_fail_loudly(self, text):
        with pytest.raises(ValueError):
            ParallelismSpec.parse(text)

    def test_strategies_are_the_documented_quartet(self):
        assert sorted(PARALLELISM_STRATEGIES) == ["auto", "pp", "tp", "tp2d"]

    def test_registry_examples_parse_back_to_their_strategy(self):
        for name, info in PARALLELISM_STRATEGIES.items():
            assert info.name == name
            assert info.summary
            spec = ParallelismSpec.parse(info.spec_example)
            assert spec.strategy == name

    def test_tp2d_grid_round_trips(self):
        spec = ParallelismSpec.parse("tp2d:2x4")
        assert (spec.strategy, spec.degree, spec.grid) == ("tp2d", 8, (2, 4))
        assert str(spec) == "tp2d:2x4"
        assert ParallelismSpec.parse(str(spec)) == spec

    def test_grid_constructor_derives_the_degree(self):
        assert ParallelismSpec("tp2d", grid=(3, 2)).degree == 6
        assert ParallelismSpec("tp2d", degree=6, grid=(3, 2)).grid == (3, 2)
        with pytest.raises(ValueError, match="contradicts"):
            ParallelismSpec("tp2d", degree=5, grid=(3, 2))
        with pytest.raises(ValueError, match="plain degree"):
            ParallelismSpec("tp", degree=4, grid=(2, 2))

    @pytest.mark.parametrize(
        "text", ["tp2d:4", "tp2d:", "tp2d:0x4", "tp2d:2x", "tp2d:axb", "tp:2x2"])
    def test_malformed_grid_specs_fail_loudly(self, text):
        with pytest.raises(ValueError):
            ParallelismSpec.parse(text)

    def test_grid_errors_name_the_expected_shape(self):
        with pytest.raises(ValueError, match="RxC grid"):
            ParallelismSpec.parse("tp2d:4")
        with pytest.raises(ValueError, match=">= 1"):
            ParallelismSpec.parse("tp2d:0x4")
        with pytest.raises(ValueError, match="not an RxC grid"):
            ParallelismSpec.parse("tp:2x2")


class TestNodeGroups:
    def test_contiguous_even_partition(self):
        assert node_groups(8, 4) == [(0, 1, 2, 3), (4, 5, 6, 7)]
        assert node_groups(4, 1) == [(0,), (1,), (2,), (3,)]

    def test_uneven_fleet_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            node_groups(6, 4)
        with pytest.raises(ValueError):
            node_groups(2, 4)


class TestCollectiveCostModel:
    def test_single_node_group_communicates_nothing(self):
        model = CollectiveCostModel()
        assert model.ring_allreduce_seconds([0], 1 << 20) == 0.0
        assert model.all_gather_seconds([3], 1 << 20) == 0.0
        assert model.point_to_point_seconds(2, 2, 1 << 20) == 0.0

    def test_allreduce_is_exactly_twice_allgather(self):
        model = CollectiveCostModel()
        group = [0, 1, 2, 3]
        payload = 64 << 20
        assert model.ring_allreduce_seconds(group, payload) == pytest.approx(
            2 * model.all_gather_seconds(group, payload), rel=1e-12)

    def test_cost_scales_with_payload(self):
        model = CollectiveCostModel()
        group = [0, 1, 4, 5]
        small = model.ring_allreduce_seconds(group, 1 << 20)
        large = model.ring_allreduce_seconds(group, 64 << 20)
        assert large > small > 0.0

    def test_background_groups_slow_shared_links(self):
        model = CollectiveCostModel()
        # Row 0 and row 1 rings share no mesh links, but the full-row group
        # 0..7 wraps through both rows and contends with itself regardless.
        quiet = model.ring_allreduce_seconds([0, 1, 2, 3], 16 << 20)
        contended = model.ring_allreduce_seconds(
            [0, 1, 2, 3], 16 << 20, background=[[8, 9, 12, 13]])
        assert contended >= quiet
        # A background ring using our row's horizontal links must cost more
        # (its 1 -> 2 edge rides the same (1, 2) link as ours).
        overlapping = model.ring_allreduce_seconds(
            [0, 1, 2, 3], 16 << 20, background=[[1, 2, 6, 5]])
        assert overlapping > quiet

    def test_point_to_point_grows_with_distance(self):
        model = CollectiveCostModel()
        near = model.point_to_point_seconds(0, 1, 8 << 20)
        far = model.point_to_point_seconds(0, 15, 8 << 20)
        assert far > near > 0.0

    def test_invalid_groups_rejected(self):
        model = CollectiveCostModel()
        with pytest.raises(ValueError):
            model.ring_allreduce_seconds([], 1024)
        with pytest.raises(ValueError):
            model.ring_allreduce_seconds([0, 0, 1], 1024)
        with pytest.raises(ValueError):
            model.ring_allreduce_seconds([0, 99], 1024)

    def test_chain_drops_the_ring_wraparound_edge(self):
        model = CollectiveCostModel()
        assert model.chain_edges([0, 1, 2, 3]) == [(0, 1), (1, 2), (2, 3)]
        assert model.chain_edges([5]) == []
        assert model.ring_edges([0, 1, 2, 3]) == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_multicast_prices_concurrent_chains(self):
        model = CollectiveCostModel()
        payload = 16 << 20
        quiet = model.multicast_seconds([[0, 1, 2, 3]], payload)
        assert quiet > 0.0
        # Singleton chains and empty payloads move nothing.
        assert model.multicast_seconds([[5]], payload) == 0.0
        assert model.multicast_seconds([[0, 1, 2, 3]], 0) == 0.0
        # A background ring on the same row links slows the chain down.
        contended = model.multicast_seconds([[0, 1, 2, 3]], payload,
                                            background=[[0, 1, 2, 3]])
        assert contended > quiet

    def test_gather_asymmetry_defaults_to_the_measured_ratio(self):
        assert CollectiveCostModel().gather_asymmetry == DEFAULT_GATHER_ASYMMETRY == 2.9
        with pytest.raises(ValueError, match="gather_asymmetry"):
            CollectiveCostModel(gather_asymmetry=0.0)

    def test_each_ring_and_background_is_routed_once(self, monkeypatch):
        import repro.parallel.collective as collective

        group, background, payload = [0, 1, 5, 4], [[2, 3, 7, 6]], 8 << 20
        expected = [
            CollectiveCostModel().ring_allreduce_seconds(group, payload, background),
            CollectiveCostModel().all_gather_seconds(group, payload),
        ]
        routed = []
        real_route_links = collective.route_links

        def counting_route_links(topology, src, dst):
            routed.append((src, dst))
            return real_route_links(topology, src, dst)

        monkeypatch.setattr(collective, "route_links", counting_route_links)
        model = CollectiveCostModel()
        for _ in range(3):
            assert model.ring_allreduce_seconds(group, payload, background) == expected[0]
            assert model.all_gather_seconds(group, payload) == expected[1]
        # One routing pass per (ring, background): the overlay map routes the
        # foreground and background edges, the bottleneck scan the foreground.
        assert len(routed) == (4 + 4 + 4) + (4 + 4)

    def test_symmetric_gather_degenerates_to_all_gather(self):
        model = CollectiveCostModel(gather_asymmetry=1.0)
        group = [0, 1, 2, 3]
        payload = 32 << 20
        assert model.gather_seconds(group, payload) == \
            model.all_gather_seconds(group, payload)
        assert model.gather_seconds([3], payload) == 0.0

    def test_gather_asymmetry_scales_only_the_serialization_term(self):
        group = [0, 1, 2, 3]
        payload = 32 << 20
        seconds = {
            asymmetry: CollectiveCostModel(gather_asymmetry=asymmetry)
            .gather_seconds(group, payload)
            for asymmetry in (1.0, 2.0, 3.0)
        }
        assert seconds[3.0] > seconds[2.0] > seconds[1.0] > 0.0
        # Cost is affine in the asymmetry (the router-latency intercept is
        # direction-agnostic), so equal knob steps add equal serialization.
        assert seconds[3.0] - seconds[2.0] == pytest.approx(
            seconds[2.0] - seconds[1.0], rel=1e-12)


class TestSummaPrimitives:
    def test_grid_rows_and_columns_partition_the_group(self):
        grid_rows, grid_cols = summa_grid(range(8), 2, 4)
        assert grid_rows == [(0, 1, 2, 3), (4, 5, 6, 7)]
        assert grid_cols == [(0, 4), (1, 5), (2, 6), (3, 7)]

    def test_grid_shape_must_match_the_group(self):
        with pytest.raises(ValueError):
            summa_grid(range(8), 2, 3)
        with pytest.raises(ValueError):
            summa_grid(range(4), 0, 4)

    def test_steps_walk_the_lcm_of_the_grid(self):
        assert summa_steps(1, 1) == 1
        assert summa_steps(2, 4) == 4
        assert summa_steps(2, 3) == 6
        assert summa_steps(3, 3) == 3
        with pytest.raises(ValueError):
            summa_steps(0, 4)

    def test_pipeline_hides_the_shorter_side(self):
        # Compute-dominated: only one step's broadcast stays exposed.
        assert summa_pipeline_seconds(8.0, 2.0, 4) == pytest.approx(8.0 + 2.0 / 4)
        # Comm-dominated: the roles flip and a compute tail is exposed.
        assert summa_pipeline_seconds(2.0, 8.0, 4) == pytest.approx(8.0 + 2.0 / 4)

    def test_pipeline_bounded_by_both_sides_and_the_serial_sum(self):
        for compute, broadcast, steps in [(1.0, 1.0, 1), (0.3, 5.0, 6), (5.0, 0.3, 6)]:
            pipelined = summa_pipeline_seconds(compute, broadcast, steps)
            assert pipelined >= max(compute, broadcast)
            assert pipelined <= compute + broadcast

    def test_zero_broadcast_is_exactly_the_compute(self):
        assert summa_pipeline_seconds(3.0, 0.0, 4) == 3.0
        # A single step cannot overlap anything: the sum is serial.
        assert summa_pipeline_seconds(2.0, 3.0, 1) == pytest.approx(5.0)


class TestOverheadCalibration:
    def test_component_shares_cover_the_whole_overhead(self):
        names = [name for name, _ in OVERHEAD_COMPONENT_SHARES]
        assert names == ["loop_control", "memory_ops", "pipeline_stalls"]
        assert sum(share for _, share in OVERHEAD_COMPONENT_SHARES) == pytest.approx(1.0)

    def test_factor_comes_from_the_functional_path(self):
        breakdown = calibrate_overhead_factor(4, 4)
        assert breakdown.factor > 1.0
        components = breakdown.component_factors()
        assert set(components) == {"loop_control", "memory_ops", "pipeline_stalls"}
        assert sum(components.values()) == pytest.approx(breakdown.factor - 1.0)
        payload = breakdown.to_dict()
        assert payload["factor"] == breakdown.factor

    def test_calibration_is_memoized(self):
        assert calibrate_overhead_factor(4, 4) is calibrate_overhead_factor(4, 4)


class TestTensorParallelConservation:
    """The satellite property test: sharding conserves compute exactly."""

    @pytest.mark.parametrize("name", workload_catalog())
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_sharded_cycles_sum_to_unsharded_phase(self, name, degree, config, cache):
        graph = workload_graph_by_name(name, Precision.FP32)
        plan = plan_parallel(graph, config, ParallelismSpec("tp", degree),
                             cache=cache, include_communication=False)
        assert len(plan.phases) == len(graph.phases)
        for phase_plan in plan.phases:
            assert phase_plan.comm_seconds == 0.0
            assert phase_plan.collective == "none"
            total = sum(phase_plan.node_compute_seconds)
            assert total == pytest.approx(phase_plan.unsharded_seconds, rel=1e-9)

    @pytest.mark.parametrize("name", workload_catalog())
    def test_unsharded_reference_is_independent(self, name, config, cache):
        """The plan's unsharded seconds match a from-scratch estimate, added left to right."""
        from repro.core.perf import estimate_node_gemm_cached

        graph = workload_graph_by_name(name, Precision.FP32)
        degree = 4
        env = memory_environment(config, degree)
        plan = plan_parallel(graph, config, ParallelismSpec("tp", degree),
                             cache=cache, include_communication=False)
        for phase, phase_plan in zip(graph.phases, plan.phases):
            expected = 0.0
            for shape in phase.shapes:
                expected += estimate_node_gemm_cached(config, shape, env=env, cache=cache).seconds
            assert phase_plan.unsharded_seconds == expected * phase.repeat


class TestTensorParallelPlan:
    def test_degree_one_is_bit_identical_to_single_node(self, config, cache):
        graph = workload_graph_by_name(SMALL_LLM)
        plan = plan_parallel(graph, config, "tp:1", cache=cache)
        assert plan.comm_seconds == 0.0
        assert plan.total_seconds == plan.unsharded_seconds
        assert plan.speedup == 1.0
        for phase_plan in plan.phases:
            assert phase_plan.node_compute_seconds == (phase_plan.unsharded_seconds,)

    def test_communication_uses_the_expected_collectives(self, config, cache):
        graph = workload_graph_by_name(SMALL_LLM)
        plan = plan_parallel(graph, config, "tp:4", cache=cache)
        # Decode phases mix N-split projections (all-gather) with K-split
        # attention GEMMs (all-reduce of partials).
        for phase_plan in plan.phases:
            assert phase_plan.comm_seconds > 0.0
            assert "all-gather" in phase_plan.collective
            assert "ring-all-reduce" in phase_plan.collective
            assert phase_plan.comm_bytes > 0

    def test_speedup_grows_with_degree_but_stays_sublinear(self, config, cache):
        graph = workload_graph_by_name(SMALL_LLM)
        seconds = [
            plan_parallel(graph, config, f"tp:{degree}", cache=cache).total_seconds
            for degree in (1, 2, 4)
        ]
        assert seconds[0] > seconds[1] > seconds[2]
        speedup = plan_parallel(graph, config, "tp:4", cache=cache).speedup
        assert 1.0 < speedup <= 4.0

    def test_degree_beyond_config_nodes_rejected(self, cache):
        graph = workload_graph_by_name(SMALL_LLM)
        small = maco_default_config(num_nodes=2)
        with pytest.raises(ValueError, match="exceeds"):
            plan_parallel(graph, small, "tp:4", cache=cache)

    def test_group_size_must_match_degree(self, config, cache):
        graph = workload_graph_by_name(SMALL_LLM)
        with pytest.raises(ValueError, match="degree"):
            plan_parallel(graph, config, "tp:4", group=(0, 1), cache=cache)


class TestSumma2DPlan:
    """SUMMA sharding: conservation, 1x1 identity, and the overlap model."""

    @pytest.mark.parametrize("grid", [(2, 2), (2, 4), (4, 2)])
    def test_sharded_compute_sums_to_unsharded(self, grid, config, cache):
        rows, cols = grid
        graph = workload_graph_by_name(SMALL_MIXED)
        plan = plan_parallel(graph, config, f"tp2d:{rows}x{cols}", cache=cache,
                             include_communication=False)
        assert plan.grid == grid
        assert plan.degree == rows * cols
        for phase_plan in plan.phases:
            assert phase_plan.comm_seconds == 0.0
            total = sum(phase_plan.node_compute_seconds)
            assert total == pytest.approx(phase_plan.unsharded_seconds, rel=1e-9)

    def test_1x1_grid_is_bit_identical_to_unsharded(self, config, cache):
        graph = workload_graph_by_name(SMALL_LLM)
        tp2d = plan_parallel(graph, config, "tp2d:1x1", cache=cache)
        tp = plan_parallel(graph, config, "tp:1", cache=cache)
        assert tp2d.total_seconds == tp.total_seconds == tp2d.unsharded_seconds
        assert tp2d.comm_seconds == 0.0
        for phase_plan in tp2d.phases:
            assert phase_plan.node_compute_seconds == (phase_plan.unsharded_seconds,)
            assert phase_plan.comm_overlapped_seconds == 0.0
            assert phase_plan.collective == "none"

    def test_never_slower_than_the_serial_compute_plus_comm(self, config, cache):
        for name in (SMALL_LLM, SMALL_MIXED):
            graph = workload_graph_by_name(name)
            for spec in ("tp2d:2x2", "tp2d:2x4"):
                plan = plan_parallel(graph, config, spec, cache=cache)
                for phase_plan in plan.phases:
                    serial = phase_plan.compute_seconds + phase_plan.comm_seconds
                    assert phase_plan.seconds <= serial * (1 + 1e-12)

    def test_overlap_split_reconstructs_the_serial_comm(self, config, cache):
        graph = workload_graph_by_name(SMALL_MIXED)
        plan = plan_parallel(graph, config, "tp2d:2x4", cache=cache)
        assert plan.comm_seconds > 0.0
        assert sum(phase.comm_bytes for phase in plan.phases) > 0
        for phase_plan in plan.phases:
            assert phase_plan.comm_overlapped_seconds >= 0.0
            assert phase_plan.comm_overlapped_seconds <= \
                phase_plan.comm_seconds * (1 + 1e-12)
            assert phase_plan.comm_exposed_seconds + phase_plan.comm_overlapped_seconds \
                == pytest.approx(phase_plan.comm_seconds, rel=1e-12)
            assert phase_plan.seconds == pytest.approx(
                phase_plan.compute_seconds + phase_plan.comm_exposed_seconds, rel=1e-12)
            assert "summa-bcast" in phase_plan.collective
            assert "gather" in phase_plan.collective
        # Some broadcast time actually hides under compute somewhere.
        assert plan.comm_overlapped_seconds > 0.0

    def test_degenerate_grids_match_1d_tensor_parallel_compute(self, config, cache):
        # bert's M and N extents both divide by 4, so a 1x4 grid (N split)
        # and a 4x1 grid (M split) each balance like 1-D tp does.
        graph = workload_graph_by_name("bert")
        tp = plan_parallel(graph, config, "tp:4", cache=cache,
                           include_communication=False)
        for spec in ("tp2d:1x4", "tp2d:4x1"):
            plan = plan_parallel(graph, config, spec, cache=cache,
                                 include_communication=False)
            assert plan.total_seconds == pytest.approx(tp.total_seconds, rel=0.05)

    def test_plan_carries_the_calibrated_overhead(self, config, cache):
        graph = workload_graph_by_name(SMALL_LLM)
        plan = plan_parallel(graph, config, "tp2d:2x2", cache=cache)
        assert plan.overhead is not None
        assert plan.overhead.factor > 1.0
        assert plan.spec == ParallelismSpec("tp2d", grid=(2, 2))
        assert plan_parallel(graph, config, "tp:2", cache=cache).overhead is None

    def test_grid_must_fit_the_fleet(self, cache):
        graph = workload_graph_by_name(SMALL_LLM)
        small = maco_default_config(num_nodes=2)
        with pytest.raises(ValueError, match="exceeds"):
            plan_parallel(graph, small, "tp2d:2x2", cache=cache)


class TestPipelineParallelPlan:
    def test_stages_are_contiguous_and_cover_every_phase(self, config, cache):
        graph = workload_graph_by_name(SMALL_MIXED)
        plan = plan_parallel(graph, config, "pp:2", cache=cache)
        stages = [phase_plan.stage for phase_plan in plan.phases]
        assert stages == sorted(stages)
        assert set(stages) == {0, 1}
        # Each phase runs whole on exactly one node of the group.
        for phase_plan in plan.phases:
            assert len(phase_plan.nodes) == 1
            busy = [s for s in phase_plan.node_compute_seconds if s > 0.0]
            assert busy == [phase_plan.unsharded_seconds]

    def test_stage_boundaries_pay_p2p_transfers(self, config, cache):
        graph = workload_graph_by_name(SMALL_MIXED)
        plan = plan_parallel(graph, config, "pp:2", cache=cache)
        boundary = [p for p in plan.phases if p.collective == "p2p"]
        assert len(boundary) == 1  # two stages, one hand-off
        assert boundary[0].comm_seconds > 0.0
        # Latency counts every stage; the interval only the busiest.
        assert plan.pipeline_interval_seconds < plan.total_seconds

    def test_degree_beyond_phase_count_leaves_nodes_idle(self, config, cache):
        graph = workload_graph_by_name("bert")  # single-phase graph
        plan = plan_parallel(graph, config, "pp:4", cache=cache)
        assert [phase.stage for phase in plan.phases] == [0]
        assert plan.total_seconds == plan.unsharded_seconds

    def test_auto_picks_the_lower_latency_plan(self, config, cache):
        graph = workload_graph_by_name(SMALL_LLM)
        auto = plan_parallel(graph, config, "auto:4", cache=cache)
        tp = plan_parallel(graph, config, "tp:4", cache=cache)
        pp = plan_parallel(graph, config, "pp:4", cache=cache)
        assert auto.strategy in ("tp", "pp")
        assert auto.total_seconds == min(tp.total_seconds, pp.total_seconds)


class TestExplorerParallelism:
    def test_degree_one_matches_unsharded_totals(self, cache):
        explorer = DesignSpaceExplorer()
        point = DesignPoint(name="p", num_nodes=4)
        graph = workload_graph_by_name(SMALL_LLM)
        sharded = explorer.evaluate_graph(point, graph, cache=cache, parallelism="tp:1")
        assert sharded.parallelism == "tp:1"
        assert sharded.aggregate.seconds == sum(p.seconds for p in sharded.phases)
        for phase in sharded.phases:
            assert phase.comm_seconds == 0.0
            assert phase.seconds == phase.compute_seconds

    def test_parallel_results_carry_the_comm_split(self, cache):
        explorer = DesignSpaceExplorer()
        point = DesignPoint(name="p", num_nodes=8)
        graph = workload_graph_by_name(SMALL_LLM)
        result = explorer.evaluate_graph(point, graph, cache=cache, parallelism="tp:4")
        for phase in result.phases:
            assert phase.comm_seconds > 0.0
            assert phase.seconds == pytest.approx(
                phase.compute_seconds + phase.comm_seconds, rel=1e-12)
        # Four-way sharding beats a degree-1 group despite the collectives.
        single = explorer.evaluate_graph(point, graph, cache=cache, parallelism="tp:1")
        assert result.aggregate.seconds < single.aggregate.seconds

    def test_explore_graph_parallel_is_bit_identical_cold_and_warm(self):
        explorer = DesignSpaceExplorer()
        points = [DesignPoint(name=f"n{nodes}", num_nodes=nodes) for nodes in (4, 8, 16)]
        graph = workload_graph_by_name(SMALL_LLM)
        runner = SweepRunner(cache=TimingCache())
        cold = explorer.explore_graph(points, graph, runner=runner, parallelism="tp:4")
        misses = runner.cache.misses
        warm = explorer.explore_graph(points, graph, runner=runner, parallelism="tp:4")
        assert runner.cache.misses == misses and runner.cache.hits > 0
        assert [repr(result) for result in cold] == [repr(result) for result in warm]

    def test_sweep_parallelism_orders_cells_row_major(self, config, cache):
        graph = workload_graph_by_name(SMALL_LLM)
        runner = SweepRunner(cache=cache)
        plans = runner.sweep_parallelism(config, graph,
                                         strategies=("tp", "pp"), degrees=(1, 2))
        assert [(plan.strategy, plan.degree) for plan in plans] == [
            ("tp", 1), ("tp", 2), ("pp", 1), ("pp", 2)]

    def test_sweep_parallelism_accepts_explicit_specs(self, config, cache):
        graph = workload_graph_by_name(SMALL_LLM)
        runner = SweepRunner(cache=cache)
        plans = runner.sweep_parallelism(config, graph, specs=("tp:2", "tp2d:2x2"))
        assert [str(plan.spec) for plan in plans] == ["tp:2", "tp2d:2x2"]
        assert plans[1].grid == (2, 2)

    def test_tp2d_results_split_exposed_from_overlapped_comm(self, cache):
        explorer = DesignSpaceExplorer()
        point = DesignPoint(name="p", num_nodes=4)
        graph = workload_graph_by_name(SMALL_MIXED)
        result = explorer.evaluate_graph(point, graph, cache=cache,
                                         parallelism="tp2d:2x2")
        assert result.parallelism == "tp2d:2x2"
        for phase in result.phases:
            assert phase.comm_overlapped_seconds >= 0.0
            assert phase.comm_exposed_seconds == pytest.approx(
                phase.comm_seconds - phase.comm_overlapped_seconds, rel=1e-12)
            assert phase.seconds == pytest.approx(
                phase.compute_seconds + phase.comm_exposed_seconds, rel=1e-12)


class TestServeParallelism:
    def _report_json(self, parallelism, cache=None):
        from repro.serve import ServeSimulator, default_tenants, poisson_trace

        config = maco_default_config(num_nodes=4)
        simulator = ServeSimulator(config=config, parallelism=parallelism,
                                   cache=cache if cache is not None else TimingCache())
        specs = [spec.with_rate(0.5) for spec in default_tenants(2)]
        trace = poisson_trace(specs, duration_s=20.0, seed=11)
        return simulator.run(trace).to_json()

    def test_tp1_is_byte_identical_to_unsharded(self):
        assert self._report_json(None) == self._report_json("tp:1")

    def test_parallel_serving_is_deterministic_on_a_warm_cache(self):
        warm = TimingCache()
        first = self._report_json("tp:2", cache=warm)
        assert self._report_json("tp:2", cache=warm) == first == self._report_json("tp:2")

    def test_groups_shrink_the_server_count(self):
        report = json.loads(self._report_json("tp:2"))
        assert len(report["nodes"]) == 2  # 4 nodes / degree 2

    def test_uneven_fleet_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            self._report_json("tp:3")

    def test_tp2d_1x1_is_byte_identical_to_unsharded(self):
        assert self._report_json(None) == self._report_json("tp2d:1x1")

    def test_tp2d_serving_is_deterministic_on_a_warm_cache(self):
        warm = TimingCache()
        first = self._report_json("tp2d:2x2", cache=warm)
        assert self._report_json("tp2d:2x2", cache=warm) == first == \
            self._report_json("tp2d:2x2")

    def test_tp2d_groups_shrink_the_server_count(self):
        report = json.loads(self._report_json("tp2d:2x2"))
        assert len(report["nodes"]) == 1  # 4 nodes / (2x2 grid)

    def _pp_simulator(self):
        from repro.serve import ServeSimulator

        config = maco_default_config(num_nodes=2)
        # resnet50 is multi-phase, so a pp:2 group has two real stages.
        return ServeSimulator(config=config, parallelism="pp:2",
                              cache=TimingCache())

    def test_pp_group_pipelines_same_tenant_requests(self):
        from repro.serve import TenantSpec, poisson_trace

        simulator = self._pp_simulator()
        profile = simulator.service_profile("resnet50", Precision.FP32)
        latency, interval = profile.latency_s, profile.interval_s
        assert interval < latency
        specs = [TenantSpec(name="t0", rate_rps=5.0, mix=(("resnet50", 1.0),))]
        trace = poisson_trace(specs, duration_s=8.0, seed=5)
        report = simulator.run(trace)
        # A saturated single-tenant group admits one request per interval,
        # so the makespan sits well below the no-overlap (latency-serial)
        # bound while every request still observes >= the full latency.
        assert report.makespan_s < 0.9 * len(trace) * latency
        assert report.latency_p50_s >= latency

    def test_pp_tenant_change_waits_for_the_pipeline_to_drain(self):
        from repro.serve.trace import Request, RequestTrace

        simulator = self._pp_simulator()
        latency = simulator.service_profile("resnet50", Precision.FP32).latency_s
        requests = [
            Request(request_id=index, tenant=f"t{index}", workload="resnet50",
                    arrival_s=0.0)
            for index in range(3)
        ]
        report = simulator.run(RequestTrace(name="drain", requests=requests))
        # Distinct tenants on one group serialise: each waits for the drain
        # plus an ASID switch, so the makespan is at least three latencies.
        assert report.makespan_s >= 3 * latency


class TestParallelCLI:
    def _run(self, capsys, *argv):
        from repro.cli import main

        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_parallel_reports_compute_vs_comm_cycles(self, capsys):
        out = self._run(capsys, "parallel", "--workload", SMALL_LLM,
                        "--parallel", "tp:4", "--format", "json")
        payload = json.loads(out)
        assert payload["phases"], "no phase rows"
        for row in payload["phases"]:
            assert row["strategy"] == "tp" and row["degree"] == 4
            assert row["compute_cycles"] > 0
            assert row["comm_cycles"] > 0
        [summary] = payload["summary"]
        assert summary["speedup"] > 1.0

    def test_parallel_rerun_is_byte_identical(self, capsys):
        # The second run's plans come from the process-wide timing cache.
        from repro.core.perf import DEFAULT_TIMING_CACHE

        argv = ("parallel", "--workload", SMALL_LLM, "--parallel", "auto:1,auto:2,auto:4",
                "--format", "json")
        DEFAULT_TIMING_CACHE.clear()
        cold = self._run(capsys, *argv)
        misses = DEFAULT_TIMING_CACHE.misses
        assert self._run(capsys, *argv) == cold
        assert DEFAULT_TIMING_CACHE.misses == misses

    def test_parallel_degree_one_matches_single_node_numbers(self, capsys):
        out = self._run(capsys, "parallel", "--workload", SMALL_LLM,
                        "--parallel", "tp:1", "--format", "json")
        payload = json.loads(out)
        [summary] = payload["summary"]
        assert summary["speedup"] == 1.0
        assert summary["comm_s"] == 0.0
        # The reported total equals an independent single-node estimate.
        graph = workload_graph_by_name(SMALL_LLM)
        expected = plan_parallel(graph, maco_default_config(), "tp:1").total_seconds
        assert summary["total_s"] == expected

    def test_bad_spec_list_is_a_cli_error(self, capsys):
        from repro.cli import main

        assert main(["parallel", "--parallel", "tp:4,tp:nope"]) == 2
        assert "tp:nope" in capsys.readouterr().err

    def test_explore_parallel_filters_small_points(self, capsys):
        from repro.cli import main

        assert main(["explore", "--sample", "random", "--points", "4", "--seed", "1",
                     "--workload", SMALL_LLM, "--parallel", "tp:4",
                     "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert "design point" in captured.out

    def test_explore_parallel_shards_the_hpl_ladder(self, capsys):
        from repro.cli import main

        assert main(["explore", "--workload", "hpl", "--size", "1024", "--parallel", "tp:2",
                     "--sample", "lhs", "--points", "4", "--seed", "1",
                     "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records and all(record["nodes"] >= 2 for record in records)

    def test_explore_parallel_efficiency_is_over_the_group_not_the_fleet(self, capsys):
        """An 8-node point sharded tp:2 runs near its 2-node group's peak, and
        both its aggregate and its phase rows report that fraction (the fleet
        denominator reported about 1/8 of it)."""
        from repro.cli import main

        args = ["explore", "--workload", "hpl", "--parallel", "tp:2", "--sample", "lhs",
                "--points", "6", "--seed", "1", "--format", "json"]
        assert main(args) == 0
        [aggregate] = [record for record in json.loads(capsys.readouterr().out)
                       if record["design point"] == "lhs0000-sa4x4-buf64k-n8"]
        assert main(args + ["--per-phase"]) == 0
        phases = [record for record in json.loads(capsys.readouterr().out)
                  if record["design point"] == "lhs0000-sa4x4-buf64k-n8"]
        assert phases
        for efficiency in [aggregate["efficiency"]] + [row["efficiency"] for row in phases]:
            assert 0.9 <= efficiency <= 1.0

    def test_parallel_spec_flag_plans_mixed_strategies(self, capsys):
        out = self._run(capsys, "parallel", "--workload", SMALL_LLM,
                        "--nodes", "4", "--parallel", "tp:4,tp2d:2x2",
                        "--format", "json")
        payload = json.loads(out)
        assert [row["spec"] for row in payload["summary"]] == ["tp:4", "tp2d:2x2"]
        # Only the SUMMA plan carries a calibrated overhead decomposition.
        [overhead] = payload["overhead"]
        assert overhead["spec"] == "tp2d:2x2"
        assert overhead["factor"] > 1.0
        assert overhead["loop_control"] > 0.0
        tp2d_rows = [row for row in payload["phases"] if row["spec"] == "tp2d:2x2"]
        assert tp2d_rows
        for row in tp2d_rows:
            assert row["overlapped_cycles"] >= 0.0
            assert "summa-bcast" in row["collective"]

    def test_parallel_without_specs_sweeps_tensor_degrees(self, capsys):
        out = self._run(capsys, "parallel", "--workload", SMALL_LLM, "--format", "json")
        specs = [row["spec"] for row in json.loads(out)["summary"]]
        assert specs == ["tp:1", "tp:2", "tp:4", "tp:8"]

    @pytest.mark.parametrize("flag", ["--strategy", "--degree"])
    def test_removed_aliases_are_rejected(self, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["parallel", "--workload", SMALL_LLM, flag, "tp"])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_bad_grid_spec_is_a_cli_error(self, capsys):
        from repro.cli import main

        assert main(["parallel", "--workload", SMALL_LLM,
                     "--parallel", "tp2d:0x4"]) == 2
        assert ">= 1" in capsys.readouterr().err

    def test_serve_accepts_a_grid_spec(self, capsys):
        out = self._run(capsys, "serve", "--tenants", "2", "--requests", "20",
                        "--nodes", "4", "--parallel", "tp2d:2x2",
                        "--format", "json")
        payload = json.loads(out)
        assert len(payload["nodes"]) == 1  # 4 nodes / one 2x2 grid group


class TestPublicExports:
    def test_parallel_package_all_is_importable(self):
        import repro.parallel as parallel

        for name in ("ParallelismSpec", "summa_pipeline_seconds",
                     "calibrate_overhead_factor", "DEFAULT_GATHER_ASYMMETRY"):
            assert name in parallel.__all__

    def test_top_level_exports_resolve_lazily(self):
        import repro

        assert repro.ParallelismSpec is ParallelismSpec
        assert repro.PARALLELISM_STRATEGIES is PARALLELISM_STRATEGIES
        assert "plan_parallel" in dir(repro)
        with pytest.raises(AttributeError):
            repro.not_an_export
