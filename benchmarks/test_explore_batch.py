"""Exploration at scale — the parallel, cached SweepRunner on a 120-point space.

The paper's exploration story needs sweep volume (hundreds of design points
per campaign); this harness evaluates a 120-point Latin-hypercube sample of
the architectural knobs through ``SweepRunner`` with ``jobs=4`` and checks the
acceptance property: the parallel pool produces bit-identical
``EvaluationResult`` values to the serial path, while the timing cache removes
the redundant tile-schedule walks a rerun would otherwise pay.
"""

import time

from repro.analysis import format_gflops, format_percent, render_table
from repro.core import (
    DesignSpaceExplorer,
    SweepRunner,
    TimingCache,
    maco_default_config,
    pareto_front,
)
from repro.gemm import GEMMShape
from repro.gemm.workloads import FIG7_MATRIX_SIZES
from repro.workloads import WorkloadGraph


def test_parallel_explore_bit_identical_on_120_points(benchmark):
    explorer = DesignSpaceExplorer()
    points = DesignSpaceExplorer.latin_hypercube(120, seed=2024)
    square = WorkloadGraph.from_shapes("square-2048", [GEMMShape(2048, 2048, 2048)])

    start = time.perf_counter()
    serial = explorer.explore(points, square, jobs=1)
    serial_seconds = time.perf_counter() - start

    def parallel():
        return explorer.explore(points, square, jobs=4)

    results = benchmark.pedantic(parallel, rounds=1, iterations=1, warmup_rounds=0)

    # Acceptance: --jobs 4 is bit-identical to the serial path.
    assert [(r.point, r.seconds, r.gflops, r.efficiency) for r in results] == \
           [(r.point, r.seconds, r.gflops, r.efficiency) for r in serial]

    front = pareto_front(results)
    rows = [
        [r.point.name, format_gflops(r.gflops), format_percent(r.efficiency),
         f"{r.gflops_per_watt:.1f}"]
        for r in results[:5]
    ]
    print("\n" + render_table(
        ["design point", "throughput", "efficiency", "GFLOPS/W"], rows,
        title=f"Top-5 of 120 sampled design points ({len(front)} Pareto-optimal), "
              f"serial reference {serial_seconds * 1e3:.0f} ms",
    ))


def test_fig7_rerun_hits_timing_cache(benchmark):
    """Figure regenerations repeat whole sweeps; the cache makes reruns free."""
    config = maco_default_config()
    sizes = list(FIG7_MATRIX_SIZES)
    node_counts = [1, 2, 4, 8, 16]
    cache = TimingCache()
    runner = SweepRunner(jobs=1, cache=cache)

    start = time.perf_counter()
    cold = runner.sweep_scalability(config, sizes, node_counts)
    cold_seconds = time.perf_counter() - start

    warm = benchmark.pedantic(
        lambda: runner.sweep_scalability(config, sizes, node_counts),
        rounds=1, iterations=1, warmup_rounds=0)

    assert warm == cold  # cache returns bit-identical sweep points
    assert cache.hits >= len(sizes) * len(node_counts)
    print(f"\nFig. 7 sweep: cold {cold_seconds * 1e3:.0f} ms, "
          f"warm rerun served from cache ({cache.hits} hits, "
          f"{cache.hit_rate:.0%} hit rate)")
