"""Ablation — design-space exploration around the published MACO design point.

The paper motivates its 4x4 array + 192 KB buffer + 16-node design but does
not publish a sensitivity study; this harness sweeps the systolic-array size
and scratchpad capacity (with the software tiling following the hardware) on
an HPL-style GEMM ladder and checks the qualitative trade-offs the design
implies: a larger array raises throughput but needs proportionally larger
buffers to stay efficient, and the paper's point sits near the perf/W front.
"""

from repro.analysis import format_gflops, format_percent, render_table
from repro.core import DesignSpaceExplorer, pareto_front
from repro.workloads import hpl_graph


def test_ablation_design_space(benchmark):
    explorer = DesignSpaceExplorer()
    workload = hpl_graph(max_size=4096, step=1024)
    points = DesignSpaceExplorer.grid(sa_dims=(2, 4, 8), buffer_kbs=(32, 64, 128), node_counts=(16,))

    def regenerate():
        return explorer.explore(points, workload, objective="gflops")

    results = benchmark.pedantic(regenerate, rounds=1, iterations=1, warmup_rounds=0)

    rows = [
        [r.point.name, format_gflops(r.gflops), format_percent(r.efficiency), f"{r.gflops_per_watt:.1f}"]
        for r in results
    ]
    print("\n" + render_table(
        ["design point", "throughput", "efficiency", "GFLOPS/W"],
        rows, title="Ablation - systolic-array size vs scratchpad capacity (16 nodes, FP64 HPL ladder)",
    ))

    by_name = {result.point.name: result for result in results}
    paper = by_name["sa4x4-buf64k-n16"]

    # The paper's design point sustains high efficiency.
    assert paper.efficiency > 0.9
    # A 2x2 array is strictly worse in throughput.
    assert by_name["sa2x2-buf64k-n16"].gflops < paper.gflops
    # An 8x8 array with the same 64 KB buffers gains peak but loses efficiency.
    big_small_buf = by_name["sa8x8-buf64k-n16"]
    assert big_small_buf.gflops >= paper.gflops * 0.95  # same memory wall, 4x the idle peak
    assert big_small_buf.efficiency < paper.efficiency
    # Giving the 8x8 array 128 KB buffers recovers efficiency.
    assert by_name["sa8x8-buf128k-n16"].efficiency > big_small_buf.efficiency
    # The paper's point is on (or very near) the throughput-vs-perf/W Pareto front.
    front_names = {result.point.name for result in pareto_front(results)}
    assert any(name.startswith("sa4x4-buf64k") or name.startswith("sa4x4-buf32k") for name in front_names)
