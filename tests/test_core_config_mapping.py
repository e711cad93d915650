"""Tests for the MACO configuration dataclasses and the multi-core mapping scheme."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    layer_stream_seconds,
    maco_default_config,
    partition_gemm,
    partition_workload,
    schedule_gemm_plus,
)
from repro.conformance.analytic_oracle import covers_output, total_assigned_flops
from repro.core.config import CPUConfig, MemoryConfig, MMAEConfig
from repro.gemm import GEMMShape, Precision
from repro.mem.address import DEFAULT_LINE_SIZE
from repro.workloads import WorkloadGraph


class TestCPUConfig:
    def test_table1_defaults(self):
        cpu = CPUConfig()
        assert cpu.frequency_ghz == pytest.approx(2.2)
        assert cpu.issue_width == 4
        assert cpu.l1d_size_bytes == 48 * 1024
        assert cpu.l2_size_bytes == 512 * 1024
        assert cpu.itlb_entries == 48 and cpu.dtlb_entries == 48
        assert cpu.l2_tlb_entries == 1024
        assert cpu.pipeline_stages >= 12
        assert cpu.out_of_order

    @pytest.mark.parametrize("level, sets", [("l1i", 192), ("l1d", 192), ("l2", 1024)])
    def test_table1_caches_divide_into_whole_sets(self, level, sets):
        """Each Table I cache is a whole number of sets of 64-byte lines."""
        cpu = CPUConfig()
        size = getattr(cpu, f"{level}_size_bytes")
        set_bytes = getattr(cpu, f"{level}_associativity") * DEFAULT_LINE_SIZE
        assert size % set_bytes == 0
        assert size // set_bytes == sets

    def test_table4_peaks(self):
        cpu = CPUConfig()
        assert cpu.peak_gflops_fp64 == pytest.approx(35.2)
        assert cpu.peak_gflops_fp32 == pytest.approx(70.4, rel=0.01)
        assert cpu.area_mm2 == pytest.approx(6.25)
        assert cpu.power_w == pytest.approx(2.0)


class TestMMAEConfig:
    def test_table4_values(self):
        mmae = MMAEConfig()
        assert mmae.frequency_ghz == pytest.approx(2.5)
        assert mmae.fmac_lanes == 16
        assert mmae.peak_gflops_fp64 == pytest.approx(80.0)
        assert mmae.peak_gflops_fp32 == pytest.approx(160.0)
        assert mmae.peak_gflops_fp16 == pytest.approx(320.0)
        assert mmae.area_mm2 == pytest.approx(1.58)
        assert mmae.power_w == pytest.approx(1.5)

    def test_buffers_total_192kb(self):
        assert MMAEConfig().total_buffer_bytes == 192 * 1024

    def test_area_breakdown_sums_to_one(self):
        assert sum(fraction for _, fraction in MMAEConfig().area_breakdown) == pytest.approx(1.0, abs=0.01)

    def test_timing_parameters_inherit_geometry(self):
        params = MMAEConfig().timing_parameters()
        assert params.sa_rows == 4 and params.sa_cols == 4
        assert params.frequency_hz == pytest.approx(2.5e9)


class TestMACOConfig:
    def test_default_is_16_nodes(self):
        assert maco_default_config().num_nodes == 16

    def test_node_count_bounded_by_mesh(self):
        with pytest.raises(ValueError):
            maco_default_config(num_nodes=17)
        with pytest.raises(ValueError):
            maco_default_config(num_nodes=0)

    def test_aggregate_peak(self):
        config = maco_default_config(num_nodes=16)
        assert config.peak_gflops(Precision.FP64) == pytest.approx(1280.0)
        assert config.peak_gflops(Precision.FP32) == pytest.approx(2560.0)

    def test_with_nodes_and_flags_are_copies(self):
        config = maco_default_config()
        other = config.with_nodes(4).with_mapping(False)
        assert other.num_nodes == 4
        assert not other.mapping_scheme_enabled
        assert config.num_nodes == 16 and config.mapping_scheme_enabled

    def test_paper_tiling_defaults(self):
        config = maco_default_config()
        assert (config.level1_tile.rows, config.level1_tile.cols) == (1024, 1024)
        assert (config.level2_tile.rows, config.level2_tile.cols) == (64, 64)
        assert config.memory.page_size == 4096

    def test_memory_config_l3_total(self):
        memory = MemoryConfig()
        assert memory.l3_total_bytes == memory.l3_slices * memory.l3_slice_bytes


class TestPartitionGEMM:
    def test_square_gemm_splits_rows(self):
        plan = partition_gemm(GEMMShape(1024, 1024, 1024), 4)
        assert plan.num_nodes == 4
        assert plan.dimension == "rows"
        assert covers_output(plan)

    def test_wide_gemm_splits_columns(self):
        plan = partition_gemm(GEMMShape(64, 4096, 512), 8)
        assert plan.dimension == "cols"
        assert covers_output(plan)

    def test_work_is_conserved(self):
        shape = GEMMShape(1000, 777, 333)
        plan = partition_gemm(shape, 6)
        assert total_assigned_flops(plan) == shape.flops

    def test_balanced_within_one_unit(self):
        plan = partition_gemm(GEMMShape(1027, 64, 64), 8)
        extents = [a.extent for a in plan.assignments]
        assert max(extents) - min(extents) <= 1

    def test_more_nodes_than_extent(self):
        plan = partition_gemm(GEMMShape(4, 3, 64), 8)
        assert plan.num_nodes == 4  # only four output rows to hand out

    def test_stash_bytes_positive_and_sensible(self):
        shape = GEMMShape(1024, 1024, 1024, Precision.FP32)
        plan = partition_gemm(shape, 4)
        assert plan.stash_bytes >= shape.bytes_b  # shared operand at minimum
        assert plan.stash_bytes <= 3 * shape.total_bytes

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            partition_gemm(GEMMShape(8, 8, 8), 0)

    @pytest.mark.parametrize("shape, nodes, expected", [
        # Fewer rows than nodes: one row each, the surplus nodes get nothing.
        (GEMMShape(3, 2, 5), 4, [(0, 0, 1, (1, 2, 5)), (1, 1, 2, (1, 2, 5)), (2, 2, 3, (1, 2, 5))]),
        # As many columns as nodes.
        (GEMMShape(2, 4, 5), 4, [(0, 0, 1, (2, 1, 5)), (1, 1, 2, (2, 1, 5)),
                                 (2, 2, 3, (2, 1, 5)), (3, 3, 4, (2, 1, 5))]),
        # More rows than nodes, uneven: the first ``7 % 3`` nodes take one more.
        (GEMMShape(7, 5, 3), 3, [(0, 0, 3, (3, 5, 3)), (1, 3, 5, (2, 5, 3)), (2, 5, 7, (2, 5, 3))]),
        # More columns than nodes, uneven.
        (GEMMShape(4, 11, 6), 4, [(0, 0, 3, (4, 3, 6)), (1, 3, 6, (4, 3, 6)),
                                  (2, 6, 9, (4, 3, 6)), (3, 9, 11, (4, 2, 6))]),
        # More rows than nodes, even.
        (GEMMShape(8, 8, 2), 4, [(0, 0, 2, (2, 8, 2)), (1, 2, 4, (2, 8, 2)),
                                 (2, 4, 6, (2, 8, 2)), (3, 6, 8, (2, 8, 2))]),
    ])
    def test_assignments_are_the_expected_slices(self, shape, nodes, expected):
        plan = partition_gemm(shape, nodes)
        dimension = "rows" if shape.m >= shape.n else "cols"
        assert [(a.node_id, a.start, a.end, (a.shape.m, a.shape.n, a.shape.k))
                for a in plan.assignments] == expected
        assert all(a.dimension == dimension and a.shape.precision is shape.precision
                   for a in plan.assignments)
        distinct = list(dict.fromkeys(a.shape for a in plan.assignments))
        assert list(plan.sub_shapes) == distinct

    def test_layer_stream_times_each_distinct_sub_shape_once(self, monkeypatch):
        import repro.core.mapping as mapping

        partitioned = []

        def counting_partition(shape, num_nodes):
            partitioned.append(shape)
            return partition_gemm(shape, num_nodes)

        monkeypatch.setattr(mapping, "partition_gemm", counting_partition)
        calls = []

        def node_seconds(shape):
            calls.append(shape)
            return shape.flops * 1e-9

        distinct = [GEMMShape(1027, 64, 64), GEMMShape(64, 4096, 512), GEMMShape(3, 2, 8)]
        layers = [distinct[0], distinct[1], distinct[0], distinct[2], distinct[1], distinct[0]]
        seconds = layer_stream_seconds(layers, 8, node_seconds, layer_overhead_s=1e-6)
        assert partitioned == distinct
        assert calls == [GEMMShape(129, 64, 64), GEMMShape(128, 64, 64),
                         GEMMShape(64, 512, 512), GEMMShape(1, 2, 8)]
        expected = 0.0
        for shape in layers:
            plan = partition_gemm(shape, 8)
            expected += max(a.shape.flops * 1e-9 for a in plan.assignments) + 1e-6
        assert repr(seconds) == repr(expected)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 3000), n=st.integers(1, 3000), k=st.integers(1, 512),
        nodes=st.integers(1, 16),
    )
    def test_partition_properties(self, m, n, k, nodes):
        shape = GEMMShape(m, n, k)
        plan = partition_gemm(shape, nodes)
        assert covers_output(plan)
        assert total_assigned_flops(plan) == shape.flops
        assert plan.num_nodes <= nodes


class TestGemmPlusSchedule:
    def test_mapping_overlaps_cpu_work(self):
        mapped = schedule_gemm_plus(1.0, 0.5, 0.01, mapping_enabled=True)
        unmapped = schedule_gemm_plus(1.0, 0.5, 0.01, mapping_enabled=False)
        assert mapped.total_seconds < unmapped.total_seconds
        assert mapped.total_seconds >= 1.0  # cannot be faster than the MMAE time

    def test_unmapped_serialises_and_slows_tail(self):
        schedule = schedule_gemm_plus(1.0, 0.5, 0.0, mapping_enabled=False)
        assert schedule.total_seconds == pytest.approx(1.0 + 0.5 * schedule.unmapped_cpu_slowdown)

    def test_stash_exposure_is_bounded(self):
        schedule = schedule_gemm_plus(1.0, 0.0, 100.0, mapping_enabled=True)
        assert schedule.total_seconds <= 1.0 + 0.1 * 1.0 + 1e-6

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            schedule_gemm_plus(-1.0, 0.0, 0.0)


class TestPartitionWorkload:
    def test_every_node_gets_a_list(self):
        workload = WorkloadGraph.from_shapes("w", [GEMMShape(512, 512, 512), GEMMShape(256, 1024, 64)])
        per_node = partition_workload(workload, 4)
        assert len(per_node) == 4
        assert all(len(shapes) == 2 for shapes in per_node)

    def test_total_flops_conserved(self):
        workload = WorkloadGraph.from_shapes("w", [GEMMShape(300, 200, 100), GEMMShape(128, 128, 128)])
        per_node = partition_workload(workload, 3)
        total = sum(shape.flops for shapes in per_node for shape in shapes)
        assert total == workload.gemm_flops
