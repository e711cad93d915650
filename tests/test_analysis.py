"""Tests for the area/power model (Table IV), efficiency summaries and reporting."""

import pytest

from repro.analysis import (
    compare_cpu_mmae,
    cpu_budget,
    efficiency_by_size,
    efficiency_gap,
    format_gflops,
    format_percent,
    mmae_area_breakdown,
    mmae_budget,
    render_series,
    render_table,
    summarize_scalability,
)
from repro.core import SweepRunner, maco_default_config


class TestTable4Model:
    def test_cpu_row_matches_table4(self):
        cpu = cpu_budget()
        assert cpu.frequency_ghz == pytest.approx(2.2)
        assert cpu.area_mm2 == pytest.approx(6.25)
        assert cpu.power_w == pytest.approx(2.0)
        assert cpu.fmacs == 8
        assert cpu.peak_gflops_fp64 == pytest.approx(35.2)

    def test_mmae_row_matches_table4(self):
        mmae = mmae_budget()
        assert mmae.frequency_ghz == pytest.approx(2.5)
        assert mmae.area_mm2 == pytest.approx(1.58)
        assert mmae.power_w == pytest.approx(1.5)
        assert mmae.fmacs == 16
        assert mmae.peak_gflops_fp64 == pytest.approx(80.0)
        assert mmae.peak_gflops_fp16 == pytest.approx(320.0)

    def test_mmae_area_is_about_quarter_of_cpu(self):
        comparison = compare_cpu_mmae()
        assert comparison.area_ratio == pytest.approx(0.25, abs=0.03)

    def test_mmae_power_is_25_percent_lower(self):
        comparison = compare_cpu_mmae()
        assert comparison.power_ratio == pytest.approx(0.75, abs=0.01)

    def test_peak_ratio_over_2x(self):
        assert compare_cpu_mmae().peak_ratio_fp64 > 2.0

    def test_area_efficiency_gain_about_9x(self):
        """Paper: the MMAE has ~9x the GFLOPS/mm^2 of the CPU core."""
        gain = compare_cpu_mmae().area_efficiency_gain
        assert 8.0 < gain < 10.0

    def test_power_efficiency_gain_at_least_2x(self):
        """Paper: at least 2x the GFLOPS/W of the CPU core (Table IV gives ~3x)."""
        gain = compare_cpu_mmae().power_efficiency_gain
        assert 2.0 < gain < 3.5

    def test_area_breakdown_sums_to_total(self):
        parts = mmae_area_breakdown()
        assert sum(area for _, area in parts) == pytest.approx(1.58, rel=0.02)
        assert dict(parts)["buffers"] > dict(parts)["data_engine"]

    def test_as_row_formats_all_columns(self):
        row = mmae_budget().as_row()
        assert row[0] == "MMAE"
        assert len(row) == 6
        assert "FP16" in row[-1]

    def test_summary_keys(self):
        summary = compare_cpu_mmae().summary()
        assert {"area_ratio", "area_efficiency_gain", "power_efficiency_gain"} <= set(summary)


class TestEfficiencySummaries:
    @pytest.fixture(scope="class")
    def fig6_points(self):
        return SweepRunner().sweep_prediction(maco_default_config(), [256, 1024])

    def test_efficiency_by_size_filters(self, fig6_points):
        values = efficiency_by_size(fig6_points, prediction_enabled=True)
        assert set(values) == {256, 1024}
        assert all(0 < value <= 1 for value in values.values())

    def test_efficiency_gap_positive(self, fig6_points):
        gaps = efficiency_gap(fig6_points)
        assert all(gap >= 0 for gap in gaps.values())
        assert gaps[1024] > gaps[256]

    def test_summarize_scalability_structure(self):
        points = SweepRunner().sweep_scalability(maco_default_config(), [1024], [1, 16])
        summary = summarize_scalability(points)
        assert set(summary) == {1, 16}
        for stats in summary.values():
            assert stats["min"] <= stats["mean"] <= stats["max"]


class TestReporting:
    def test_format_percent(self):
        assert format_percent(0.915) == "91.5%"

    def test_format_gflops_switches_to_tflops(self):
        assert format_gflops(123.4) == "123.4 GFLOPS"
        assert format_gflops(1234.0) == "1.23 TFLOPS"

    def test_render_table_alignment_and_content(self):
        text = render_table(["name", "value"], [["a", "1"], ["longer", "22"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only one"]])

    def test_render_series(self):
        text = render_series("size", [1, 2], {"eff": [0.5, 0.6]}, value_formatter=format_percent)
        assert "50.0%" in text and "60.0%" in text

    def test_render_series_length_check(self):
        with pytest.raises(ValueError):
            render_series("x", [1, 2, 3], {"s": [1.0]})
