"""Exploration at scale — the cached explorer on a 120-point space.

The paper's exploration story needs sweep volume (hundreds of design points
per campaign); this harness evaluates a 120-point Latin-hypercube sample of
the architectural knobs and checks two properties: an explore is a pure
function of its points (two runs on fresh timing caches give bit-identical
``EvaluationResult`` values), and the timing cache removes the redundant
tile-schedule walks a figure rerun would otherwise pay.
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


def test_explore_is_deterministic_on_120_points(benchmark):
    explorer = DesignSpaceExplorer()
    points = DesignSpaceExplorer.latin_hypercube(120, seed=2024)
    square = WorkloadGraph.from_shapes("square-2048", [GEMMShape(2048, 2048, 2048)])

    def explore():
        return explorer.explore(points, square, runner=SweepRunner(cache=TimingCache()))

    start = time.perf_counter()
    first = explore()
    first_seconds = time.perf_counter() - start

    results = benchmark.pedantic(explore, rounds=1, iterations=1, warmup_rounds=0)

    # Acceptance: a second explore on a fresh cache is bit-identical.
    assert [(r.point, r.seconds, r.gflops, r.efficiency) for r in results] == \
           [(r.point, r.seconds, r.gflops, r.efficiency) for r in first]

    front = pareto_front(results)
    rows = [
        [r.point.name, format_gflops(r.gflops), format_percent(r.efficiency),
         f"{r.gflops_per_watt:.1f}"]
        for r in results[:5]
    ]
    print("\n" + render_table(
        ["design point", "throughput", "efficiency", "GFLOPS/W"], rows,
        title=f"Top-5 of 120 sampled design points ({len(front)} Pareto-optimal), "
              f"first explore {first_seconds * 1e3:.0f} ms",
    ))


def test_fig7_rerun_hits_timing_cache(benchmark):
    """Figure regenerations repeat whole sweeps; the cache makes reruns free."""
    config = maco_default_config()
    sizes = list(FIG7_MATRIX_SIZES)
    node_counts = [1, 2, 4, 8, 16]
    cache = TimingCache()
    runner = SweepRunner(cache=cache)

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
