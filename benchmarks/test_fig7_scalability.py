"""Fig. 7 — scalability: per-node efficiency for 1/2/4/8/16 compute nodes.

Each active node runs an independent square FP64 GEMM (no inter-node
interaction), exactly as in the paper.  The harness prints one series per node
count over the eleven matrix sizes and asserts the headline claims: the
average per-node efficiency stays around 90% (>= 85% everywhere), efficiency
never increases when nodes are added, and the loss from one to sixteen nodes
is on the order of 10%.
"""

from repro.analysis import (
    efficiency_by_size,
    format_percent,
    render_series,
    summarize_scalability,
)
from repro.core import SweepRunner
from repro.gemm.workloads import FIG7_MATRIX_SIZES

NODE_COUNTS = [1, 2, 4, 8, 16]


def test_fig7_scalability(benchmark, paper_config):
    sizes = list(FIG7_MATRIX_SIZES)

    def regenerate():
        return SweepRunner().sweep_scalability(paper_config, sizes, NODE_COUNTS)

    points = benchmark(regenerate)

    series = {}
    for nodes in NODE_COUNTS:
        by_size = efficiency_by_size(points, active_nodes=nodes)
        label = {1: "Single-core", 2: "Dual-core", 4: "Quad-core", 8: "Octa-core", 16: "Hexadeca-core"}[nodes]
        series[label] = [by_size[s] for s in sizes]
    print("\n" + render_series(
        "matrix size", sizes, series, value_formatter=format_percent,
        title="Fig. 7 - per-node computational efficiency vs active compute nodes (FP64)",
    ))

    summary = summarize_scalability(points)
    for nodes, stats in summary.items():
        print(f"  {nodes:2d} nodes: min {format_percent(stats['min'])} "
              f"mean {format_percent(stats['mean'])} max {format_percent(stats['max'])}")

    # Every configuration sustains ~90% efficiency (the paper's headline claim).
    assert all(stats["min"] >= 0.85 for stats in summary.values())
    # Efficiency never improves with more active nodes (per size).
    for size in sizes:
        per_nodes = [efficiency_by_size(points, active_nodes=n)[size] for n in NODE_COUNTS]
        assert all(b <= a + 1e-9 for a, b in zip(per_nodes, per_nodes[1:]))
    # Loss from single to hexadeca core is in the paper's ~10% ballpark.
    loss = summary[1]["mean"] - summary[16]["mean"]
    assert 0.02 < loss < 0.15
