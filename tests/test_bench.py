"""``repro.bench.run_benchmarks`` times its suite with the cyclic GC off."""

import gc

import pytest

from repro import bench

CASES = [
    "bench_page_enumeration", "bench_tile_translation", "bench_tile_translation_steady",
    "bench_emulator", "bench_tile_schedule", "bench_layer_stream", "bench_functional_gemm",
    "bench_serve_throughput", "bench_serve_scale", "bench_serve_dispatch",
    "bench_serve_autoscale",
]


@pytest.mark.parametrize("enabled_before", [True, False])
def test_suite_runs_with_the_collector_off_and_restores_it(monkeypatch, enabled_before):
    seen = []

    def case_stub(*args, **kwargs):
        seen.append(gc.isenabled())
        return {}

    for case in CASES:
        monkeypatch.setattr(bench, case, case_stub)
    was_enabled = gc.isenabled()
    try:
        if not enabled_before:
            gc.disable()
        report = bench.run_benchmarks(quick=True)
        assert gc.isenabled() is enabled_before
    finally:
        if was_enabled:
            gc.enable()
    assert len(seen) == len(report["results"]) == 12
    assert not any(seen)
