#!/usr/bin/env python
"""Shard an LLM workload across mesh node groups and serve it under load.

Plans tensor- and pipeline-parallel executions of a decode-heavy LLaMA
workload at several degrees (the `repro.cli parallel` sweep as a library
call), then serves the same workload on node groups to show the
latency/throughput trade the sharding buys.  Command-line equivalents::

    python -m repro.cli parallel --workload llama-7b@decode --parallel auto:1,auto:2,auto:4,auto:8
    python -m repro.cli serve --nodes 8 --tenant-mix llm --parallel tp:4
"""

from repro.analysis import render_table
from repro.core import maco_default_config
from repro.parallel import plan_parallel
from repro.serve import ServeSimulator, llm_tenants, poisson_trace
from repro.workloads import workload_graph_by_name


def main() -> None:
    config = maco_default_config()
    graph = workload_graph_by_name("llama-7b@decode,layers=4,decode=32")

    rows = []
    for strategy in ("tp", "pp"):
        for degree in (1, 2, 4, 8):
            plan = plan_parallel(graph, config, f"{strategy}:{degree}")
            rows.append([
                strategy, degree,
                f"{plan.compute_seconds * 1e3:.1f}",
                f"{plan.comm_seconds * 1e3:.3f}",
                f"{plan.total_seconds * 1e3:.1f}",
                f"{plan.speedup:.2f}x",
                f"{plan.pipeline_interval_seconds * 1e3:.1f}",
            ])
    print(render_table(
        ["strategy", "degree", "compute (ms)", "comm (ms)", "latency (ms)",
         "speedup", "interval (ms)"],
        [[str(cell) for cell in row] for row in rows],
        title=f"Sharding plans - {graph.name}"))
    print()

    # Serve the same tenants unsharded vs on 4-node groups: groups shorten
    # each request but the fleet has fewer servers and pays NoC contention
    # between co-scheduled collectives.
    for parallelism in (None, "tp:4"):
        simulator = ServeSimulator(config=maco_default_config(num_nodes=8),
                                   parallelism=parallelism)
        specs = simulator.suggest_rates(llm_tenants(2), utilization=0.7)
        trace = poisson_trace(specs, duration_s=60.0, seed=7)
        report = simulator.run(trace)
        label = parallelism if parallelism else "unsharded"
        print(f"{label:10s} servers={len(report.nodes)} "
              f"p50={report.latency_p50_s * 1e3:.0f} ms "
              f"p99={report.latency_p99_s * 1e3:.0f} ms "
              f"throughput={report.throughput_rps:.2f} req/s")


if __name__ == "__main__":
    main()
