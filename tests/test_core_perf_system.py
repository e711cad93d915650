"""Tests for the system performance model, the MACO system object and result metrics.

These tests pin the *shape* of the paper's evaluation results (Figs. 6 and 7):
who wins, in which direction efficiency moves, and the approximate magnitudes
of the headline claims.  Exact values are recorded in EXPERIMENTS.md.
"""

import tracemalloc

import pytest

from repro.core import (
    MACOSystem,
    SweepRunner,
    average_efficiency,
    estimate_node_gemm,
    geometric_mean,
    maco_default_config,
    memory_environment,
    speedup,
)
from repro.core.metrics import WorkloadResult
from repro.gemm import GEMMShape, Precision
from repro.gemm.workloads import FIG6_MATRIX_SIZES
from repro.mem.tlb import TLB


class TestMemoryEnvironment:
    def test_l3_share_shrinks_with_active_nodes(self):
        config = maco_default_config()
        assert memory_environment(config, 16).l3_share_bytes == pytest.approx(
            memory_environment(config, 1).l3_share_bytes / 16
        )

    def test_dram_share_shrinks_with_active_nodes(self):
        config = maco_default_config()
        assert (
            memory_environment(config, 16).dram_bandwidth_share_bytes_per_s
            < memory_environment(config, 2).dram_bandwidth_share_bytes_per_s
        )

    def test_latency_grows_with_active_nodes(self):
        config = maco_default_config()
        assert (
            memory_environment(config, 16).l3_round_trip_ns
            > memory_environment(config, 1).l3_round_trip_ns
        )

    def test_invalid_active_count(self):
        config = maco_default_config(num_nodes=4)
        with pytest.raises(ValueError):
            memory_environment(config, 5)


class TestNodeGEMMTiming:
    def test_peak_lookup(self):
        config = maco_default_config()
        assert config.mmae.peak_gflops(Precision.FP64) == pytest.approx(80.0)
        assert config.mmae.peak_gflops(Precision.FP16) == pytest.approx(320.0)

    def test_single_node_large_gemm_efficiency_matches_paper_band(self):
        config = maco_default_config()
        timing = estimate_node_gemm(config, GEMMShape(4096, 4096, 4096), active_nodes=1)
        assert timing.efficiency > 0.93

    def test_contended_node_is_slower(self):
        config = maco_default_config()
        shape = GEMMShape(2048, 2048, 2048)
        alone = estimate_node_gemm(config, shape, active_nodes=1)
        crowded = estimate_node_gemm(config, shape, active_nodes=16)
        assert crowded.seconds > alone.seconds


class TestFig6Shape:
    def test_prediction_always_helps_or_ties(self):
        config = maco_default_config()
        points = SweepRunner().sweep_prediction(config, list(FIG6_MATRIX_SIZES))
        by_size = {}
        for point in points:
            by_size.setdefault(point.matrix_size, {})[point.prediction_enabled] = point.efficiency
        for size, values in by_size.items():
            assert values[True] >= values[False]

    def test_gap_small_below_512_and_peaks_at_1024(self):
        config = maco_default_config()
        points = SweepRunner().sweep_prediction(config, [256, 512, 1024])
        by = {(p.matrix_size, p.prediction_enabled): p.efficiency for p in points}
        gap_256 = by[(256, True)] - by[(256, False)]
        gap_1024 = by[(1024, True)] - by[(1024, False)]
        assert gap_256 < 0.02          # paper: below 2% for sizes under 512
        assert 0.04 < gap_1024 < 0.09  # paper: maximum ~6.5% at 1024
        assert gap_1024 > gap_256


class TestFig7Shape:
    def test_sixteen_node_efficiency_near_90_percent(self):
        config = maco_default_config()
        points = SweepRunner().sweep_scalability(config, [1024, 4096, 9216], [16])
        for point in points:
            assert 0.85 <= point.efficiency <= 1.0

    def test_efficiency_monotonically_non_increasing_with_nodes(self):
        config = maco_default_config()
        shape_sizes = [2048]
        points = SweepRunner().sweep_scalability(config, shape_sizes, [1, 2, 4, 8, 16])
        efficiencies = [p.efficiency for p in sorted(points, key=lambda p: p.active_nodes)]
        assert all(later <= earlier + 1e-9 for earlier, later in zip(efficiencies, efficiencies[1:]))

    def test_average_loss_under_15_percent(self):
        """Paper: ~10% average loss going from one node to sixteen."""
        config = maco_default_config()
        sizes = [1024, 2048, 4096]
        single = SweepRunner().sweep_scalability(config, sizes, [1])
        sixteen = SweepRunner().sweep_scalability(config, sizes, [16])
        loss = (sum(p.efficiency for p in single) - sum(p.efficiency for p in sixteen)) / len(sizes)
        assert 0.03 < loss < 0.15


class TestMACOSystem:
    def test_run_gemm_partitions_and_reports(self, small_system):
        result = small_system.run_gemm(GEMMShape(2048, 2048, 2048))
        assert result.num_nodes == 4
        assert result.seconds > 0
        assert 0 < result.efficiency <= 1.0
        assert len(result.node_results) == 4

    def test_multi_node_beats_single_node_on_large_gemm(self, small_system):
        shape = GEMMShape(4096, 4096, 4096)
        single = small_system.run_gemm(shape, num_nodes=1)
        quad = small_system.run_gemm(shape, num_nodes=4)
        assert quad.seconds < single.seconds
        assert quad.gflops > 2.5 * single.gflops

    def test_independent_gemms_flops_scale_with_nodes(self, small_config):
        shape = GEMMShape(1024, 1024, 1024)
        (point,) = SweepRunner().sweep_scalability(small_config, [1024], [4])
        assert point.gflops == pytest.approx(4 * shape.flops / point.seconds / 1e9)
        assert point.efficiency > 0.9

    def test_prediction_flag_passthrough(self, small_system):
        shape = GEMMShape(2048, 2048, 2048)
        with_pred = small_system.run_gemm(shape, num_nodes=1, prediction_enabled=True)
        without = small_system.run_gemm(shape, num_nodes=1, prediction_enabled=False)
        assert without.seconds > with_pred.seconds

    def test_node_count_validation(self, small_system):
        with pytest.raises(ValueError):
            small_system.run_gemm(GEMMShape(64, 64, 64), num_nodes=9)

    def test_peak_gflops_scales_with_requested_nodes(self, small_system):
        assert small_system.peak_gflops(Precision.FP64, 2) == pytest.approx(160.0)

    def test_building_the_default_system_allocates_under_a_megabyte(self):
        """A system the analytic models build and never access (Fig. 8, the
        baselines) holds no functional cache state, so it stays small."""
        config = maco_default_config()
        MACOSystem(config)  # warm imports and memos off the measurement
        systems = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            systems.append(MACOSystem(config))
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert systems[0].num_nodes == 16
        assert allocated < 1024 * 1024

    def test_default_system_builds_no_cache_directory_or_instruction_tlb(self):
        """The L3, the CPU caches and MA_STASH are timed analytically: a system's
        memory state is paging, host memory, DRAM parameters and each node's
        two data-TLB levels."""
        system = MACOSystem(maco_default_config())
        reachable, stack = {}, [system]
        while stack:
            obj = stack.pop()
            if id(obj) in reachable:
                continue
            reachable[id(obj)] = obj
            if isinstance(obj, dict):
                stack.extend(obj.values())
            elif isinstance(obj, (list, tuple, set, frozenset)):
                stack.extend(obj)
            elif type(obj).__module__.startswith("repro."):
                stack.extend(vars(obj).values() if hasattr(obj, "__dict__") else ())
        assert {type(obj).__name__ for obj in reachable.values()
                if type(obj).__module__.startswith("repro.mem.")} == {
            "AddressSpace", "DRAMConfig", "DRAMModel", "FrameAllocator", "HostMemory",
            "PageTable", "PageTableWalker", "TLB", "TLBHierarchy", "TLBStats",
        }
        tlbs = {id(obj) for obj in reachable.values() if isinstance(obj, TLB)}
        dtlbs = {id(level) for node in system.nodes
                 for level in (node.cpu.mmu.dtlb.l1, node.cpu.mmu.dtlb.l2)}
        assert tlbs == dtlbs and len(dtlbs) == 2 * system.num_nodes


class TestWorkloadRun:
    def test_run_workload_reports_throughput(self, small_system):
        from repro.workloads import resnet50_graph

        workload = resnet50_graph(batch=2)
        result = small_system.run_workload(workload, num_nodes=4)
        assert result.gflops > 0
        assert result.efficiency <= 1.0
        assert result.gemm_seconds > 0

    def test_mapping_scheme_improves_throughput(self, small_system):
        from repro.workloads import resnet50_graph

        workload = resnet50_graph(batch=2)
        mapped = small_system.run_workload(workload, num_nodes=4, mapping_enabled=True)
        unmapped = small_system.run_workload(workload, num_nodes=4, mapping_enabled=False)
        assert mapped.gflops > unmapped.gflops


class TestMetrics:
    def _result(self, name, gflops_seconds):
        seconds, flops = gflops_seconds
        return WorkloadResult(
            name=name, system=name, num_nodes=1, seconds=seconds,
            gemm_flops=flops, total_flops=flops, peak_gflops=100.0,
        )

    def test_speedup(self):
        fast = self._result("fast", (1.0, 100e9))
        slow = self._result("slow", (2.0, 100e9))
        assert speedup(fast, slow) == pytest.approx(2.0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])

    def test_average_efficiency_requires_results(self):
        with pytest.raises(ValueError):
            average_efficiency([])

    def test_workload_result_properties(self):
        result = self._result("x", (0.5, 50e9))
        assert result.gflops == pytest.approx(100.0)
        assert result.tflops == pytest.approx(0.1)
        assert result.efficiency == pytest.approx(1.0)
