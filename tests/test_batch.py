"""Tests for the cached sweep subsystem (repro.core.batch)."""

from dataclasses import dataclass

import pytest

from repro.baselines import CPUOnlyBaseline, RASALikeBaseline, compare_systems
from repro.core import (
    DesignPoint,
    DesignSpaceExplorer,
    SweepRunner,
    TimingCache,
    estimate_node_gemm,
    estimate_node_gemm_cached,
    maco_default_config,
    pareto_front,
)
from repro.gemm import GEMMShape, Precision
from repro.workloads import WorkloadGraph

SIZES = [256, 512, 1024]


class TestTimingCache:
    def test_cached_result_is_bit_identical(self, small_config):
        shape = GEMMShape(1024, 1024, 1024)
        cache = TimingCache()
        direct = estimate_node_gemm(small_config, shape, active_nodes=2)
        cached = estimate_node_gemm_cached(small_config, shape, active_nodes=2, cache=cache)
        assert cached == direct

    def test_hit_and_miss_counting(self, small_config):
        cache = TimingCache()
        shape = GEMMShape(512, 512, 512)
        for _ in range(3):
            estimate_node_gemm_cached(small_config, shape, cache=cache)
        assert cache.misses == 1
        assert cache.hits == 2
        assert cache.hit_rate == pytest.approx(2 / 3)
        assert len(cache) == 1

    def test_distinct_keys_not_conflated(self, small_config):
        cache = TimingCache()
        shape = GEMMShape(512, 512, 512)
        estimate_node_gemm_cached(small_config, shape, active_nodes=1, cache=cache)
        estimate_node_gemm_cached(small_config, shape, active_nodes=2, cache=cache)
        estimate_node_gemm_cached(small_config, shape, active_nodes=2,
                                  prediction_enabled=False, cache=cache)
        other_config = maco_default_config(num_nodes=8)
        estimate_node_gemm_cached(other_config, shape, active_nodes=2, cache=cache)
        assert cache.misses == 4
        assert cache.hits == 0

    def test_equal_configs_share_one_entry(self):
        # The key holds the frozen config itself, so two configurations built
        # separately but equal field for field hit the same entry.
        cache = TimingCache()
        shape = GEMMShape(512, 512, 512)
        first, second = maco_default_config(num_nodes=4), maco_default_config(num_nodes=4)
        assert first is not second
        estimate_node_gemm_cached(first, shape, active_nodes=2, cache=cache)
        assert (cache.misses, cache.hits) == (1, 0)
        estimate_node_gemm_cached(second, shape, active_nodes=2, cache=cache)
        assert (cache.misses, cache.hits, len(cache)) == (1, 1, 1)

    def test_eviction_bounds_entries(self, small_config):
        cache = TimingCache(max_entries=2)
        for size in (128, 256, 384):
            estimate_node_gemm_cached(small_config, GEMMShape(size, size, size), cache=cache)
        assert len(cache) == 2

    def test_clear_resets_counters(self, small_config):
        cache = TimingCache()
        estimate_node_gemm_cached(small_config, GEMMShape(256, 256, 256), cache=cache)
        cache.clear()
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    def test_invalid_max_entries_rejected(self):
        with pytest.raises(ValueError):
            TimingCache(max_entries=0)


class TestSweepRunner:
    @pytest.mark.parametrize("jobs", [0, 2])
    def test_invalid_jobs_rejected(self, jobs):
        # Every sweep runs in the calling process; only jobs=1 is accepted.
        with pytest.raises(ValueError, match="jobs must be 1"):
            SweepRunner(jobs=jobs)

    def test_serial_sweep_counts_cache_hits(self):
        config = maco_default_config()
        cache = TimingCache()
        runner = SweepRunner(cache=cache)
        runner.sweep_prediction(config, SIZES)
        cold_misses = cache.misses
        assert cold_misses == 2 * len(SIZES)
        assert cache.hits == 0
        runner.sweep_prediction(config, SIZES)  # warm rerun: all hits
        assert cache.misses == cold_misses
        assert cache.hits == cold_misses

    def test_fig6_sweep_matches_direct_estimates(self):
        # Prediction outer, size inner; each cell is the uncached estimate.
        config = maco_default_config()
        points = SweepRunner(cache=TimingCache()).sweep_prediction(config, SIZES)
        cells = [(prediction, size) for prediction in (False, True) for size in SIZES]
        assert [(p.prediction_enabled, p.matrix_size, p.active_nodes) for p in points] == \
               [(prediction, size, 1) for prediction, size in cells]
        for point, (prediction, size) in zip(points, cells):
            timing = estimate_node_gemm(config, GEMMShape(size, size, size, Precision.FP64),
                                        prediction_enabled=prediction)
            assert (point.seconds, point.efficiency, point.gflops) == \
                   (timing.seconds, timing.efficiency, timing.achieved_gflops)

    def test_fig7_sweep_matches_direct_estimates(self):
        # Node count outer, size inner; throughput scales the per-node rate.
        config = maco_default_config()
        node_counts = [1, 2, 4]
        points = SweepRunner(cache=TimingCache()).sweep_scalability(config, SIZES, node_counts)
        cells = [(nodes, size) for nodes in node_counts for size in SIZES]
        assert [(p.active_nodes, p.matrix_size) for p in points] == cells
        for point, (nodes, size) in zip(points, cells):
            timing = estimate_node_gemm(config, GEMMShape(size, size, size, Precision.FP64),
                                        active_nodes=nodes)
            assert point.prediction_enabled == config.prediction_enabled
            assert (point.seconds, point.efficiency, point.gflops) == \
                   (timing.seconds, timing.efficiency, timing.achieved_gflops * nodes)

    def test_warm_rerun_is_bit_identical(self):
        # A rerun served from the cache reports exactly the cold values.
        config = maco_default_config()
        runner = SweepRunner(cache=TimingCache())
        cold = runner.sweep_scalability(config, SIZES, [1, 2, 4])
        misses = runner.cache.misses
        warm = runner.sweep_scalability(config, SIZES, [1, 2, 4])
        assert runner.cache.misses == misses and runner.cache.hits == misses
        assert warm == cold  # EfficiencyPoint dataclass equality is exact

    def test_design_grid_explore_matches_per_point_evaluation(self):
        explorer = DesignSpaceExplorer()
        points = DesignSpaceExplorer.grid(
            sa_dims=(2, 4), buffer_kbs=(32, 64), node_counts=(4, 8))
        square = WorkloadGraph.from_shapes("square", [GEMMShape(1024, 1024, 1024)])
        ranked = explorer.explore(points, square, runner=SweepRunner(cache=TimingCache()))
        assert sorted(result.point.name for result in ranked) == \
               sorted(point.name for point in points)
        assert [result.gflops for result in ranked] == \
               sorted((result.gflops for result in ranked), reverse=True)
        direct = {point.name: explorer.evaluate(point, square, cache=TimingCache())
                  for point in points}
        for result in ranked:
            expected = direct[result.point.name]
            assert (result.seconds, result.gflops, result.efficiency) == \
                   (expected.seconds, expected.gflops, expected.efficiency)

    def test_repeated_layer_shapes_are_looked_up_once(self):
        # A workload repeating one layer shape looks up each distinct
        # partition sub-shape once, not once per layer: the layer stream
        # times each distinct layer shape once, so repeats never reach the
        # cache.  1024 rows split evenly over 4 nodes: one sub-shape.
        cache = TimingCache()
        runner = SweepRunner(cache=cache)
        workload = WorkloadGraph.from_shapes("repeat", [GEMMShape(1024, 1024, 1024)] * 6)
        runner_results = DesignSpaceExplorer().explore(
            [DesignPoint(name="p", num_nodes=4)], workload, runner=runner)
        assert runner_results[0].seconds > 0
        assert cache.misses == 1
        assert cache.hits == 0

    def test_compare_systems_matches_direct_calls(self, small_config):
        workloads = [
            WorkloadGraph.from_shapes("w1", [GEMMShape(512, 512, 512, Precision.FP32)]),
            WorkloadGraph.from_shapes("w2", [GEMMShape(256, 1024, 256, Precision.FP32)]),
        ]
        systems = [CPUOnlyBaseline(small_config), RASALikeBaseline(small_config)]
        comparison = compare_systems(systems, workloads, num_nodes=2)
        direct = [
            model.run_workload(workload, num_nodes=2)
            for model in (CPUOnlyBaseline(small_config), RASALikeBaseline(small_config))
            for workload in workloads
        ]
        assert [(r.system, r.name, r.seconds, r.gflops)
                for by_name in comparison.results.values() for r in by_name.values()] == \
               [(r.system, r.name, r.seconds, r.gflops) for r in direct]


class TestSampling:
    def test_random_sample_deterministic_and_sized(self):
        a = DesignSpaceExplorer.random_sample(16, seed=42)
        b = DesignSpaceExplorer.random_sample(16, seed=42)
        assert a == b
        assert len(a) == 16
        assert len({point.name for point in a}) == 16

    def test_random_sample_respects_knob_domains(self):
        points = DesignSpaceExplorer.random_sample(
            32, sa_dims=(2, 4), buffer_kbs=(32,), node_counts=(4, 8), seed=0)
        assert all(point.sa_rows in (2, 4) for point in points)
        assert all(point.buffer_kb == 32 for point in points)
        assert all(point.num_nodes in (4, 8) for point in points)

    def test_latin_hypercube_covers_every_choice_once(self):
        # With count == len(choices) each stratum maps to exactly one choice,
        # so every value appears exactly once per knob.
        choices = (16, 32, 64, 128)
        points = DesignSpaceExplorer.latin_hypercube(
            4, sa_dims=(2, 4, 8, 16), buffer_kbs=choices,
            node_counts=(1, 2, 4, 8), seed=5)
        assert sorted(point.buffer_kb for point in points) == sorted(choices)
        assert sorted(point.sa_rows for point in points) == [2, 4, 8, 16]
        assert sorted(point.num_nodes for point in points) == [1, 2, 4, 8]

    def test_latin_hypercube_deterministic(self):
        assert DesignSpaceExplorer.latin_hypercube(8, seed=9) == \
               DesignSpaceExplorer.latin_hypercube(8, seed=9)

    def test_sample_dispatcher(self):
        assert len(DesignSpaceExplorer.sample("random", 5, seed=1)) == 5
        assert len(DesignSpaceExplorer.sample("lhs", 5, seed=1)) == 5
        assert len(DesignSpaceExplorer.sample("grid")) == 27
        with pytest.raises(ValueError):
            DesignSpaceExplorer.sample("sobol", 5)

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            DesignSpaceExplorer.random_sample(0)
        with pytest.raises(ValueError):
            DesignSpaceExplorer.latin_hypercube(-1)


@dataclass
class _FakeResult:
    gflops: float
    gflops_per_watt: float


def _brute_force_front(results, metrics):
    """Reference implementation: the seed's O(n^2) pairwise dominance check."""
    front = []
    for index, candidate in enumerate(results):
        candidate_scores = [metric(candidate) for metric in metrics]
        dominated = False
        for other_index, other in enumerate(results):
            if other_index == index:
                continue
            other_scores = [metric(other) for metric in metrics]
            if all(o >= c for o, c in zip(other_scores, candidate_scores)) and any(
                o > c for o, c in zip(other_scores, candidate_scores)
            ):
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    return front


class TestParetoFront:
    METRICS = (lambda r: r.gflops, lambda r: r.gflops_per_watt)

    def test_matches_brute_force_on_random_sets(self):
        import random

        rng = random.Random(1234)
        for trial in range(20):
            results = [
                _FakeResult(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(60)
            ]
            fast = pareto_front(results, self.METRICS)
            reference = _brute_force_front(results, self.METRICS)
            assert [(r.gflops, r.gflops_per_watt) for r in fast] == \
                   [(r.gflops, r.gflops_per_watt) for r in reference], f"trial {trial}"

    def test_duplicates_all_kept(self):
        results = [_FakeResult(3.0, 1.0), _FakeResult(3.0, 1.0), _FakeResult(1.0, 5.0)]
        front = pareto_front(results, self.METRICS)
        assert len(front) == 3

    def test_preserves_input_order(self):
        results = [_FakeResult(1.0, 5.0), _FakeResult(5.0, 1.0), _FakeResult(3.0, 3.0)]
        front = pareto_front(results, self.METRICS)
        assert [r.gflops for r in front] == [1.0, 5.0, 3.0]

    def test_three_metric_fallback(self):
        results = [_FakeResult(2.0, 2.0), _FakeResult(1.0, 1.0), _FakeResult(3.0, 1.0)]
        metrics = (lambda r: r.gflops, lambda r: r.gflops_per_watt, lambda r: -r.gflops)
        front = pareto_front(results, metrics)
        reference = _brute_force_front(results, metrics)
        assert front == reference
