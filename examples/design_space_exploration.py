#!/usr/bin/env python
"""Design-space exploration: what-if studies around the published MACO design.

Sweeps the systolic-array size, scratchpad capacity and node count around the
paper's configuration, evaluates every candidate on an HPL-style GEMM ladder
with the same cycle-approximate model used for the paper's figures, and
reports the throughput/efficiency/perf-per-watt ranking together with the
Pareto front and the roofline placement of the chosen workload.
"""

from repro.analysis import EnergyModel, format_gflops, format_percent, place_gemm, render_table
from repro.core import DesignPoint, DesignSpaceExplorer, MACOSystem, maco_default_config, pareto_front
from repro.gemm import GEMMShape, Precision
from repro.workloads import hpl_graph


def main() -> None:
    explorer = DesignSpaceExplorer()
    workload = hpl_graph(max_size=4096, step=1024)
    points = DesignSpaceExplorer.grid(
        sa_dims=(2, 4, 8),
        buffer_kbs=(32, 64, 128),
        node_counts=(8, 16),
    )
    print(f"Evaluating {len(points)} design points on {workload.name} "
          f"({workload.gemm_flops / 1e9:.0f} GFLOP of GEMMs)...")
    results = explorer.explore(points, workload, objective="gflops")

    rows = []
    for result in results[:10]:
        rows.append([
            result.point.name,
            format_gflops(result.gflops),
            format_percent(result.efficiency),
            f"{result.gflops_per_mm2:.1f}",
            f"{result.gflops_per_watt:.1f}",
        ])
    print(render_table(
        ["design point", "throughput", "efficiency", "GFLOPS/mm2", "GFLOPS/W"],
        rows, title="Top-10 design points by throughput",
    ))

    front = pareto_front(results)
    print("\nPareto-optimal points (throughput vs GFLOPS/W):")
    for result in sorted(front, key=lambda r: -r.gflops):
        print(f"  {result.point.name:24s} {format_gflops(result.gflops):>14s}  "
              f"{result.gflops_per_watt:.1f} GFLOPS/W")

    paper_point = DesignPoint(name="paper-4x4-64k-16n", sa_rows=4, sa_cols=4, buffer_kb=64, num_nodes=16)
    paper_result = explorer.evaluate(paper_point, workload)
    print(f"\nThe paper's design point: {format_gflops(paper_result.gflops)} at "
          f"{format_percent(paper_result.efficiency)} efficiency, "
          f"{paper_result.gflops_per_watt:.1f} GFLOPS/W")

    # Roofline placement of the workload's largest GEMM at full node count.
    shape = GEMMShape(4096, 4096, 4096, Precision.FP64)
    for nodes in (1, 16):
        point = place_gemm(shape, active_nodes=nodes)
        bound = "compute-bound" if point.compute_bound else "memory-bound"
        print(f"Roofline @ {nodes:2d} active nodes: intensity {point.intensity:.1f} FLOP/B, "
              f"attainable {format_gflops(point.attainable_gflops)} per node ({bound})")

    # Energy to solution for the paper's configuration on the same workload.
    system = MACOSystem(maco_default_config(num_nodes=16))
    run = system.run_workload(workload, num_nodes=16)
    energy = EnergyModel(num_nodes=16).for_workload(run)
    print(f"\nEnergy to solution (16 nodes): {energy.total_joules:.1f} J, "
          f"average power {energy.average_power_w:.1f} W, "
          f"{energy.gflops_per_watt:.1f} GFLOPS/W")


if __name__ == "__main__":
    main()
