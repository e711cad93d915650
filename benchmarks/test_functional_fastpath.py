"""Benchmark harness for the vectorized functional fast path.

Runs the same benchmarks as ``python -m repro.cli bench`` (in quick mode) and
asserts two things: the vectorized kernels are bit-identical to the scalar
references on the timed workloads, and they are actually faster.  The strict
regression gate (speedup must stay within 2x of the committed baseline) lives
in CI via ``repro.cli bench --baseline benchmarks/BENCH_baseline.json``; the
thresholds here are deliberately loose so the tier-1 suite stays robust on
slow or noisy machines.
"""

from __future__ import annotations

import pytest

from repro import bench


@pytest.fixture(scope="module")
def report():
    return bench.run_benchmarks(quick=True, repeat=1)


class TestFunctionalFastPath:
    def test_page_enumeration_parity_and_speedup(self, report):
        result = report["results"]["page_enumeration"]
        assert result["parity"]
        assert result["speedup"] > 2.0

    def test_tile_translation_parity_and_speedup(self, report):
        result = report["results"]["tile_translation"]
        assert result["parity"]
        assert result["prediction"] is True
        assert result["speedup"] > 2.0

    def test_tile_translation_without_prediction_parity(self, report):
        result = report["results"]["tile_translation_nopred"]
        assert result["parity"]
        assert result["speedup"] > 1.0

    def test_tile_translation_steady_parity_and_speedup(self, report):
        result = report["results"]["tile_translation_steady"]
        assert result["parity"]
        assert result["calls"] == 1024
        assert result["speedup"] > 2.0

    def test_emulator_parity_and_speedup(self, report):
        result = report["results"]["emulator"]
        assert result["parity"]
        assert result["speedup"] > 2.0

    def test_tile_schedule_parity_and_speedup(self, report):
        result = report["results"]["tile_schedule"]
        assert result["parity"]
        assert result["calls"] == 66
        assert result["speedup"] > 2.0

    def test_layer_stream_parity_and_speedup(self, report):
        result = report["results"]["layer_stream"]
        assert result["parity"]
        assert result["layers"] == 4918
        assert result["speedup"] > 2.0

    def test_serve_dispatch_parity_at_scale(self, report):
        result = report["results"]["serve_dispatch"]
        assert result["parity"]
        assert result["requests"] > 90_000
        assert result["speedup"] > 1.0
        assert result["requests_per_s"] > 0

    def test_functional_gemm_reports_throughput(self, report):
        result = report["results"]["functional_gemm"]
        assert result["seconds"] > 0
        assert result["gflops"] > 0

    def test_report_round_trips_through_json(self, report, tmp_path):
        path = tmp_path / "bench.json"
        bench.write_report(report, str(path))
        loaded = bench.load_report(str(path))
        assert loaded["results"].keys() == report["results"].keys()

    def test_regression_gate_passes_against_self(self, report):
        assert bench.check_regression(report, report) == []

    def test_regression_gate_catches_slowdown(self, report):
        import copy

        inflated = copy.deepcopy(report)
        for result in inflated["results"].values():
            if "speedup" in result:
                result["speedup"] *= 10.0
        failures = bench.check_regression(report, inflated)
        assert failures and all("fell below" in failure for failure in failures)
