"""Tests for design-space exploration, roofline analysis and the energy model."""

import pytest

from repro.analysis import (
    EnergyModel,
    PowerParameters,
    Roofline,
    node_roofline,
    place_gemm,
)
from repro.core import DesignPoint, DesignSpaceExplorer, maco_default_config, pareto_front
from repro.core.metrics import WorkloadResult
from repro.gemm import GEMMShape, Precision
from repro.workloads import WorkloadGraph, hpl_graph


def one_gemm(size, precision=Precision.FP64):
    """A one-GEMM workload graph: one square ``size``-cubed GEMM."""
    return WorkloadGraph.from_shapes(f"square-{size}", [GEMMShape(size, size, size, precision)])


class TestDesignPoint:
    def test_default_point_matches_paper_config(self):
        config = DesignPoint(name="paper").to_config()
        assert config.mmae.sa_rows == 4
        assert config.mmae.total_buffer_bytes == 192 * 1024
        assert config.mmae.area_mm2 == pytest.approx(1.58, rel=0.02)

    def test_bigger_array_costs_area_and_power(self):
        small = DesignPoint(name="s", sa_rows=4, sa_cols=4).to_config()
        big = DesignPoint(name="b", sa_rows=8, sa_cols=8).to_config()
        assert big.mmae.area_mm2 > small.mmae.area_mm2
        assert big.mmae.power_w > small.mmae.power_w
        assert big.mmae.peak_gflops_fp64 == pytest.approx(4 * small.mmae.peak_gflops_fp64)

    def test_invalid_point_rejected(self):
        with pytest.raises(ValueError):
            DesignPoint(name="bad", sa_rows=0)

    def test_grid_size(self):
        points = DesignSpaceExplorer.grid(sa_dims=(4, 8), buffer_kbs=(64,), node_counts=(4, 16))
        assert len(points) == 4
        assert len({point.name for point in points}) == 4


class TestExploration:
    @pytest.fixture(scope="class")
    def explorer(self):
        return DesignSpaceExplorer()

    def test_evaluate_reports_positive_metrics(self, explorer):
        result = explorer.evaluate(DesignPoint(name="paper", num_nodes=4), one_gemm(2048))
        assert result.gflops > 0
        assert 0 < result.efficiency <= 1.0
        assert result.gflops_per_mm2 > 0
        assert result.gflops_per_watt > 0

    def test_explore_sorts_best_first(self, explorer):
        points = DesignSpaceExplorer.grid(sa_dims=(2, 4), buffer_kbs=(64,), node_counts=(4,))
        ranked = explorer.explore(points, one_gemm(1024))
        assert ranked[0].gflops >= ranked[-1].gflops

    def test_bigger_array_needs_bigger_buffers_to_stay_efficient(self, explorer):
        """The co-design insight the explorer must expose: scaling the array
        without scaling the scratchpads sacrifices efficiency."""
        shape = one_gemm(2048)
        small_buf = explorer.evaluate(DesignPoint(name="8x8-small", sa_rows=8, sa_cols=8, buffer_kb=64, num_nodes=8), shape)
        big_buf = explorer.evaluate(DesignPoint(name="8x8-big", sa_rows=8, sa_cols=8, buffer_kb=256, num_nodes=8), shape)
        assert big_buf.efficiency > small_buf.efficiency

    def test_objective_selection(self, explorer):
        points = [
            DesignPoint(name="fast", sa_rows=8, sa_cols=8, num_nodes=8),
            DesignPoint(name="lean", sa_rows=4, sa_cols=4, num_nodes=8),
        ]
        shape = one_gemm(1024)
        by_throughput = explorer.explore(points, shape, objective="gflops")[0]
        by_efficiency = explorer.explore(points, shape, objective="efficiency")[0]
        assert by_throughput.point.name == "fast"
        assert by_efficiency.point.name == "lean"

    def test_unknown_objective_rejected(self, explorer):
        with pytest.raises(ValueError):
            explorer.explore([DesignPoint(name="x")], one_gemm(64), objective="speed")

    def test_workload_evaluation(self, explorer):
        workload = WorkloadGraph.from_shapes("w", [GEMMShape(1024, 1024, 1024), GEMMShape(512, 2048, 256)])
        result = explorer.evaluate(DesignPoint(name="paper", num_nodes=4), workload)
        assert result.seconds > 0

    def test_hpl_ladder_aggregate_is_pinned(self, explorer):
        """The paper's design point on the HPL ladder of
        ``examples/design_space_exploration.py``, bit for bit."""
        point = DesignPoint(name="paper-4x4-64k-16n", sa_rows=4, sa_cols=4, buffer_kb=64,
                            num_nodes=16)
        result = explorer.evaluate(point, hpl_graph(max_size=4096, step=1024))
        assert (repr(result.seconds), repr(result.gflops), repr(result.efficiency)) == (
            "0.17266196701540612", "1243.7502509214355", "0.9716798835323714")

    def test_pareto_front_excludes_dominated_points(self, explorer):
        points = DesignSpaceExplorer.grid(sa_dims=(2, 4, 8), buffer_kbs=(64,), node_counts=(8,))
        results = explorer.explore(points, one_gemm(2048))
        front = pareto_front(results)
        assert 0 < len(front) <= len(results)
        best_gflops = max(results, key=lambda r: r.gflops)
        assert best_gflops in front


class TestExplorerRegressions:
    """Regression tests for the sweep-path correctness fixes."""

    def test_mixed_precision_efficiency_order_invariant(self):
        """Efficiency must not depend on which precision happens to come first."""
        explorer = DesignSpaceExplorer()
        point = DesignPoint(name="paper", num_nodes=4)
        shapes = [
            GEMMShape(2048, 2048, 2048, Precision.FP64),
            GEMMShape(2048, 2048, 2048, Precision.FP16),
        ]
        forward = explorer.evaluate(point, WorkloadGraph.from_shapes("mixed", shapes))
        reverse = explorer.evaluate(point, WorkloadGraph.from_shapes("mixed-rev", list(reversed(shapes))))
        assert forward.efficiency == pytest.approx(reverse.efficiency)

    def test_mixed_precision_efficiency_uses_per_shape_peaks(self):
        explorer = DesignSpaceExplorer()
        point = DesignPoint(name="paper", num_nodes=4)
        shapes = [
            GEMMShape(2048, 2048, 2048, Precision.FP64),
            GEMMShape(2048, 2048, 2048, Precision.FP16),
        ]
        result = explorer.evaluate(point, WorkloadGraph.from_shapes("mixed", shapes))
        config = result.config
        ideal_seconds = sum(
            shape.flops / (config.peak_gflops(shape.precision) * 1e9) for shape in shapes
        )
        assert result.efficiency == pytest.approx(ideal_seconds / result.seconds)
        assert 0 < result.efficiency <= 1.0

    def test_uniform_precision_efficiency_unchanged(self):
        """The uniform-precision path keeps the seed's gflops/peak definition."""
        explorer = DesignSpaceExplorer()
        point = DesignPoint(name="paper", num_nodes=4)
        result = explorer.evaluate(point, one_gemm(2048, Precision.FP64))
        assert result.efficiency == pytest.approx(
            result.gflops / result.config.peak_gflops(Precision.FP64))

    def test_tiny_buffer_tile_shrinks_to_what_fits(self):
        """A sub-1KB scratchpad cannot hold the 8x8 floor tile; the derived
        tile must shrink to the largest fitting dimension instead of silently
        modelling an impossible schedule."""
        from repro.mmae.buffers import BufferSet

        config = DesignPoint(name="tiny", buffer_kb=0.5).to_config()
        tile = config.level2_tile
        assert tile.rows < 8
        buffers = BufferSet(
            a_capacity=config.mmae.a_buffer_bytes,
            b_capacity=config.mmae.b_buffer_bytes,
            c_capacity=config.mmae.c_buffer_bytes,
        )
        # Must not raise: the tile genuinely fits the scratchpads.
        buffers.check_tile_fits(tile.rows, tile.cols, tile.rows,
                                Precision.FP64, double_buffered=True)

    def test_impossible_buffer_raises_clear_error(self):
        with pytest.raises(ValueError, match="cannot hold"):
            DesignPoint(name="impossible", buffer_kb=0.01).to_config()

    def test_default_tile_derivation_unchanged(self):
        config = DesignPoint(name="paper").to_config()
        assert config.level2_tile.rows == 64  # 64 KB FP64 double-buffered tile


class TestRoofline:
    def test_ridge_point(self):
        roofline = Roofline(peak_gflops=80.0, bandwidth_gbytes_per_s=20.0)
        assert roofline.ridge_intensity == pytest.approx(4.0)
        assert roofline.attainable_gflops(2.0) == pytest.approx(40.0)
        assert roofline.attainable_gflops(100.0) == pytest.approx(80.0)
        assert roofline.is_compute_bound(5.0)

    def test_node_roofline_peak_matches_config(self):
        roofline = node_roofline(precision=Precision.FP32)
        assert roofline.peak_gflops == pytest.approx(160.0)

    def test_contention_lowers_dram_roofline(self):
        alone = node_roofline(active_nodes=1, level="dram")
        crowded = node_roofline(active_nodes=16, level="dram")
        assert crowded.bandwidth_gbytes_per_s < alone.bandwidth_gbytes_per_s

    def test_large_gemm_compute_bound_when_alone(self):
        point = place_gemm(GEMMShape(4096, 4096, 4096), active_nodes=1)
        assert point.compute_bound

    def test_crowded_system_becomes_memory_bound(self):
        """The roofline view of the Fig. 7 result: at 16 active nodes the DRAM
        share drops below what the tiled GEMM needs."""
        point = place_gemm(GEMMShape(4096, 4096, 4096), active_nodes=16)
        assert not point.compute_bound
        assert point.attainable_gflops < 80.0

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            node_roofline(level="l1")


class TestEnergyModel:
    def test_energy_positive_and_split(self):
        model = EnergyModel(num_nodes=4)
        breakdown = model.estimate(total_seconds=1.0, mmae_busy_seconds=0.8,
                                   cpu_busy_seconds=0.2, flops=10**12, active_nodes=4)
        assert breakdown.total_joules > 0
        assert breakdown.mmae_joules > 0 and breakdown.cpu_joules > 0 and breakdown.uncore_joules > 0
        assert breakdown.gflops_per_watt > 0

    def test_busier_mmae_consumes_more_energy(self):
        model = EnergyModel(num_nodes=1)
        light = model.estimate(1.0, 0.1, 0.0, 10**11, active_nodes=1)
        heavy = model.estimate(1.0, 0.9, 0.0, 10**11, active_nodes=1)
        assert heavy.mmae_joules > light.mmae_joules

    def test_idle_components_still_draw_some_power(self):
        model = EnergyModel(PowerParameters(), num_nodes=1)
        breakdown = model.estimate(1.0, 0.0, 0.0, 1, active_nodes=1)
        assert breakdown.cpu_joules > 0
        assert breakdown.mmae_joules > 0

    def test_parameters_from_config_match_table4(self):
        config, params = maco_default_config(), PowerParameters()
        assert config.cpu.power_w == params.cpu_active_w == pytest.approx(2.0)
        assert config.mmae.power_w == params.mmae_active_w == pytest.approx(1.5)

    def test_for_workload_adapter(self):
        result = WorkloadResult(
            name="w", system="maco", num_nodes=4, seconds=2.0,
            gemm_flops=10**12, total_flops=10**12, peak_gflops=640.0,
            gemm_seconds=1.8, non_gemm_seconds=0.3,
        )
        breakdown = EnergyModel(num_nodes=4).for_workload(result)
        assert breakdown.seconds == 2.0
        assert breakdown.total_joules > 0

    def test_invalid_inputs_rejected(self):
        model = EnergyModel(num_nodes=2)
        with pytest.raises(ValueError):
            model.estimate(0.0, 0.0, 0.0, 1)
        with pytest.raises(ValueError):
            model.estimate(1.0, 0.0, 0.0, 1, active_nodes=3)
        with pytest.raises(ValueError):
            PowerParameters(cpu_idle_fraction=1.5)
