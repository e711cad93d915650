"""Tests for the Fig. 8 baseline models and the comparison harness."""

import pytest

from repro.baselines import (
    BaselineComparison,
    CPUOnlyBaseline,
    GemminiLikeBaseline,
    NoMappingBaseline,
    RASALikeBaseline,
    compare_systems,
)
from repro.core import MACOSystem, maco_default_config
from repro.gemm import GEMMShape, Precision
from repro.workloads import WorkloadGraph, dl_benchmark_suite, resnet50_graph

NODES = 8

#: ``repr`` of every Fig. 8 ``WorkloadResult.seconds`` at 8 nodes.  Each
#: system sums its layer times in :meth:`WorkloadGraph.layers` order, so a
#: reordered layer walk or a changed non-GEMM tail moves a bit here.
FIG8_SECONDS = {
    "baseline-1": {"resnet50-b8": "0.22033220054545444",
                   "bert-large-b8-s384": "5.322939458493516",
                   "gpt3-2.7b-b4-s1024-l8": "14.516908297974032"},
    "baseline-2": {"resnet50-b8": "0.0959700480076428",
                   "bert-large-b8-s384": "1.9973196777572428",
                   "gpt3-2.7b-b4-s1024-l8": "5.095125048070769"},
    "rasa-like": {"resnet50-b8": "0.07617766611019287",
                  "bert-large-b8-s384": "2.2381204776198307",
                  "gpt3-2.7b-b4-s1024-l8": "6.21171319137558"},
    "gemmini-like": {"resnet50-b8": "0.07135710206955351",
                     "bert-large-b8-s384": "2.0568110080765525",
                     "gpt3-2.7b-b4-s1024-l8": "5.757893539848463"},
    "maco": {"resnet50-b8": "0.0568581879814231",
             "bert-large-b8-s384": "1.6068763130928203",
             "gpt3-2.7b-b4-s1024-l8": "4.409403338382339"},
}


@pytest.fixture(scope="module")
def config():
    return maco_default_config(num_nodes=NODES)


@pytest.fixture(scope="module")
def small_workload():
    """A small GEMM+ workload (keeps baseline tests fast)."""
    return WorkloadGraph.from_shapes(
        "mini-dl",
        [
            GEMMShape(2048, 1024, 1024, Precision.FP32),
            GEMMShape(4096, 512, 2048, Precision.FP32),
            GEMMShape(1024, 4096, 1024, Precision.FP32),
        ],
        non_gemm_flops=40_000_000,
        non_gemm_bytes=160_000_000,
    )


@pytest.fixture(scope="module")
def maco_result(config, small_workload):
    return MACOSystem(config).run_workload(small_workload, num_nodes=NODES)


class TestCPUOnlyBaseline:
    def test_throughput_below_cpu_peak(self, config, small_workload):
        result = CPUOnlyBaseline(config).run_workload(small_workload, num_nodes=NODES)
        assert 0 < result.gflops < config.cpu.peak_gflops_fp32 * NODES

    def test_much_slower_than_maco(self, config, small_workload, maco_result):
        """Paper: MACO gains ~3.3x over the CPU-only baseline."""
        result = CPUOnlyBaseline(config).run_workload(small_workload, num_nodes=NODES)
        ratio = maco_result.gflops / result.gflops
        assert 2.0 < ratio < 6.5

    def test_no_overlap_flag(self, config, small_workload):
        result = CPUOnlyBaseline(config).run_workload(small_workload, num_nodes=NODES)
        assert not result.overlap_enabled
        assert result.system == "baseline-1"


class TestNoMappingBaseline:
    def test_slower_than_maco(self, config, small_workload, maco_result):
        """Paper: the mapping scheme is worth ~1.45x; ours must show a clear gain."""
        result = NoMappingBaseline(config).run_workload(small_workload, num_nodes=NODES)
        ratio = maco_result.gflops / result.gflops
        assert 1.05 < ratio < 2.2

    def test_faster_than_cpu_only(self, config, small_workload):
        no_map = NoMappingBaseline(config).run_workload(small_workload, num_nodes=NODES)
        cpu = CPUOnlyBaseline(config).run_workload(small_workload, num_nodes=NODES)
        assert no_map.gflops > cpu.gflops


class TestRASALikeBaseline:
    def test_slower_than_maco(self, config, small_workload, maco_result):
        """Paper: MACO gains ~1.35x over the RASA-like TCA."""
        result = RASALikeBaseline(config).run_workload(small_workload, num_nodes=NODES)
        ratio = maco_result.gflops / result.gflops
        assert 1.1 < ratio < 1.8

    def test_engine_peak_uses_cpu_clock(self, config):
        baseline = RASALikeBaseline(config)
        # 16 PEs x 2 FP32 lanes x 2 ops at 2.2 GHz = 140.8 GFLOPS per core.
        assert baseline._engine_peak_gflops(Precision.FP32) == pytest.approx(140.8, rel=0.01)

    def test_faster_than_cpu_only(self, config, small_workload):
        rasa = RASALikeBaseline(config).run_workload(small_workload, num_nodes=NODES)
        cpu = CPUOnlyBaseline(config).run_workload(small_workload, num_nodes=NODES)
        assert rasa.gflops > cpu.gflops


class TestGemminiLikeBaseline:
    def test_slower_than_maco(self, config, small_workload, maco_result):
        """Paper: MACO gains ~1.30x over the Gemmini-like LCA."""
        result = GemminiLikeBaseline(config).run_workload(small_workload, num_nodes=NODES)
        ratio = maco_result.gflops / result.gflops
        assert 1.05 < ratio < 1.8

    def test_faster_than_cpu_only(self, config, small_workload):
        gemmini = GemminiLikeBaseline(config).run_workload(small_workload, num_nodes=NODES)
        cpu = CPUOnlyBaseline(config).run_workload(small_workload, num_nodes=NODES)
        assert gemmini.gflops > cpu.gflops

    def test_per_task_sync_overhead_counted(self, config):
        baseline = GemminiLikeBaseline(config)
        many_small = WorkloadGraph.from_shapes("many", [GEMMShape(256, 256, 256, Precision.FP32)] * 64)
        few_large = WorkloadGraph.from_shapes("few", [GEMMShape(1024, 1024, 1024, Precision.FP32)])
        # Same total FLOPs; the many-task workload pays 64 host round trips.
        assert many_small.gemm_flops == few_large.gemm_flops
        slow = baseline.run_workload(many_small, num_nodes=NODES)
        fast = baseline.run_workload(few_large, num_nodes=NODES)
        assert slow.seconds > fast.seconds


class TestComparisonHarness:
    def test_compare_systems_collects_all(self, config, small_workload):
        comparison = compare_systems(
            [CPUOnlyBaseline(config), RASALikeBaseline(config)], [small_workload], num_nodes=NODES
        )
        assert set(comparison.systems()) == {"baseline-1", "rasa-like"}
        assert comparison.workloads() == [small_workload.name]
        assert comparison.throughput("baseline-1", small_workload.name) > 0

    def test_average_speedup_geomean(self):
        from repro.core.metrics import WorkloadResult

        comparison = BaselineComparison()
        for system, gflops in (("a", 100.0), ("b", 50.0)):
            comparison.add(WorkloadResult(
                name="w", system=system, num_nodes=1, seconds=1.0,
                gemm_flops=int(gflops * 1e9), total_flops=int(gflops * 1e9), peak_gflops=200.0,
            ))
        assert comparison.average_speedup("a", "b") == pytest.approx(2.0)

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_fig8_seconds_are_pinned(self, config, jobs):
        systems = [CPUOnlyBaseline(config), NoMappingBaseline(config), RASALikeBaseline(config),
                   GemminiLikeBaseline(config), MACOSystem(config)]
        comparison = compare_systems(systems, dl_benchmark_suite(), num_nodes=NODES, jobs=jobs)
        seconds = {system: {name: repr(result.seconds) for name, result in by_name.items()}
                   for system, by_name in comparison.results.items()}
        assert seconds == FIG8_SECONDS

    def test_paper_ordering_on_resnet(self, config):
        """On a real DL workload the throughput ordering of Fig. 8 must hold:
        Baseline-1 slowest, MACO fastest, accelerated baselines in between."""
        workload = resnet50_graph(batch=4)
        maco = MACOSystem(config).run_workload(workload, num_nodes=NODES)
        cpu = CPUOnlyBaseline(config).run_workload(workload, num_nodes=NODES)
        rasa = RASALikeBaseline(config).run_workload(workload, num_nodes=NODES)
        gemmini = GemminiLikeBaseline(config).run_workload(workload, num_nodes=NODES)
        nomap = NoMappingBaseline(config).run_workload(workload, num_nodes=NODES)
        assert cpu.gflops < min(rasa.gflops, gemmini.gflops, nomap.gflops)
        assert maco.gflops > max(rasa.gflops, gemmini.gflops, nomap.gflops)
