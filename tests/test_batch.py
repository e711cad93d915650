"""Tests for the parallel/cached sweep subsystem (repro.core.batch)."""

from dataclasses import dataclass

import pytest

from repro.baselines import CPUOnlyBaseline, RASALikeBaseline, compare_systems
from repro.core import (
    DesignPoint,
    DesignSpaceExplorer,
    SweepRunner,
    TimingCache,
    config_fingerprint,
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

    def test_fingerprint_tracks_config_changes(self, small_config):
        assert config_fingerprint(small_config) == config_fingerprint(small_config)
        assert config_fingerprint(small_config) != config_fingerprint(small_config.with_nodes(2))

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
    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_parallel_fig6_bit_identical_to_serial(self):
        config = maco_default_config()
        serial = SweepRunner(jobs=1).sweep_prediction(config, SIZES)
        parallel = SweepRunner(jobs=4).sweep_prediction(config, SIZES)
        assert parallel == serial  # EfficiencyPoint dataclass equality is exact

    def test_parallel_fig7_bit_identical_to_serial(self):
        config = maco_default_config()
        serial = SweepRunner(jobs=1).sweep_scalability(config, SIZES, [1, 2, 4])
        parallel = SweepRunner(jobs=4).sweep_scalability(config, SIZES, [1, 2, 4])
        assert parallel == serial

    def test_parallel_design_grid_bit_identical_to_serial(self):
        explorer = DesignSpaceExplorer()
        points = DesignSpaceExplorer.grid(
            sa_dims=(2, 4), buffer_kbs=(32, 64), node_counts=(4, 8))
        square = WorkloadGraph.from_shapes("square", [GEMMShape(1024, 1024, 1024)])
        serial = explorer.explore(points, square)
        parallel = explorer.explore(points, square, jobs=4)
        assert [(r.point, r.seconds, r.gflops, r.efficiency) for r in serial] == \
               [(r.point, r.seconds, r.gflops, r.efficiency) for r in parallel]

    def test_serial_sweep_counts_cache_hits(self):
        config = maco_default_config()
        cache = TimingCache()
        runner = SweepRunner(jobs=1, cache=cache)
        runner.sweep_prediction(config, SIZES)
        cold_misses = cache.misses
        assert cold_misses == 2 * len(SIZES)
        assert cache.hits == 0
        runner.sweep_prediction(config, SIZES)  # warm rerun: all hits
        assert cache.misses == cold_misses
        assert cache.hits == cold_misses

    def test_repeated_layer_shapes_hit_cache(self):
        # A workload repeating one layer shape should walk the tile schedule
        # once per distinct partition sub-shape, not once per layer.
        cache = TimingCache()
        runner = SweepRunner(jobs=1, cache=cache)
        workload = WorkloadGraph.from_shapes("repeat", [GEMMShape(1024, 1024, 1024)] * 6)
        runner_results = DesignSpaceExplorer().explore(
            [DesignPoint(name="p", num_nodes=4)], workload, runner=runner)
        assert runner_results[0].seconds > 0
        assert cache.misses <= 2  # at most two distinct sub-shapes per plan
        assert cache.hits >= 4

    def test_run_workloads_matches_direct_calls(self, small_config):
        workloads = [
            WorkloadGraph.from_shapes("w1", [GEMMShape(512, 512, 512, Precision.FP32)]),
            WorkloadGraph.from_shapes("w2", [GEMMShape(256, 1024, 256, Precision.FP32)]),
        ]
        runner = SweepRunner(jobs=2)
        results = runner.run_workloads(
            [(CPUOnlyBaseline, small_config), (RASALikeBaseline, small_config)],
            workloads, num_nodes=2)
        direct = [
            model.run_workload(workload, num_nodes=2)
            for model in (CPUOnlyBaseline(small_config), RASALikeBaseline(small_config))
            for workload in workloads
        ]
        assert [(r.system, r.name, r.seconds, r.gflops) for r in results] == \
               [(r.system, r.name, r.seconds, r.gflops) for r in direct]

    def test_pool_initializer_installs_cache_snapshot(self):
        # The parallel path seeds each worker with the runner's cache via the
        # pool initializer; the payload cache (serial path) takes precedence.
        from repro.core import batch

        cache = TimingCache()
        batch._seed_worker_cache(cache)
        try:
            assert batch._task_cache(None) is cache
            explicit = TimingCache()
            assert batch._task_cache(explicit) is explicit
        finally:
            batch._seed_worker_cache(None)

    def test_parallel_with_warmed_cache_still_identical(self):
        config = maco_default_config()
        cache = TimingCache()
        runner_serial = SweepRunner(jobs=1, cache=cache)
        serial = runner_serial.sweep_prediction(config, SIZES)
        runner_parallel = SweepRunner(jobs=2, cache=cache)
        assert runner_parallel.sweep_prediction(config, SIZES) == serial

    def test_compare_systems_parallel_matches_serial(self, small_config):
        workloads = [WorkloadGraph.from_shapes("w", [GEMMShape(512, 512, 512, Precision.FP32)])]
        systems = [CPUOnlyBaseline(small_config), RASALikeBaseline(small_config)]
        serial = compare_systems(systems, workloads, num_nodes=2)
        parallel = compare_systems(systems, workloads, num_nodes=2, jobs=2)
        assert serial.systems() == parallel.systems()
        for system in serial.systems():
            assert serial.throughput(system, "w") == parallel.throughput(system, "w")


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
