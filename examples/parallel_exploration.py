#!/usr/bin/env python
"""Exploration at scale with the parallel, cached SweepRunner.

Samples a large design space with Latin-hypercube sampling, fans the
evaluations out over a worker pool, and shows what the timing cache buys when
sweeps repeat shapes (reruns, DL workloads with repeated layers).  The same
campaign is available from the command line::

    python -m repro.cli explore --sample lhs --points 200 --jobs 4 --format csv
"""

import os
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


def main() -> None:
    explorer = DesignSpaceExplorer()
    points = DesignSpaceExplorer.latin_hypercube(200, seed=7)
    square = WorkloadGraph.from_shapes("square-4096", [GEMMShape(4096, 4096, 4096)])

    start = time.perf_counter()
    serial = explorer.explore(points, square, jobs=1)
    serial_s = time.perf_counter() - start

    jobs = os.cpu_count() or 1
    start = time.perf_counter()
    parallel = explorer.explore(points, square, jobs=jobs)
    parallel_s = time.perf_counter() - start

    identical = [(r.point, r.seconds, r.gflops) for r in serial] == \
                [(r.point, r.seconds, r.gflops) for r in parallel]
    print(f"Explored {len(points)} design points: serial {serial_s * 1e3:.0f} ms, "
          f"--jobs {jobs} {parallel_s * 1e3:.0f} ms "
          f"(bit-identical: {identical})")

    rows = [
        [r.point.name, format_gflops(r.gflops), format_percent(r.efficiency),
         f"{r.gflops_per_watt:.1f}"]
        for r in serial[:8]
    ]
    print(render_table(
        ["design point", "throughput", "efficiency", "GFLOPS/W"], rows,
        title="Top-8 design points by throughput",
    ))
    front = pareto_front(serial)
    print(f"{len(front)} of {len(serial)} points are Pareto-optimal "
          "(throughput vs GFLOPS/W)")

    # What the timing cache buys: rerunning a whole figure sweep is ~free.
    config = maco_default_config()
    cache = TimingCache()
    runner = SweepRunner(jobs=1, cache=cache)
    start = time.perf_counter()
    runner.sweep_scalability(config, list(FIG7_MATRIX_SIZES), [1, 2, 4, 8, 16])
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    runner.sweep_scalability(config, list(FIG7_MATRIX_SIZES), [1, 2, 4, 8, 16])
    warm_s = time.perf_counter() - start
    print(f"Fig. 7 sweep: cold {cold_s * 1e3:.0f} ms, warm rerun "
          f"{warm_s * 1e3:.1f} ms ({cold_s / warm_s:.0f}x, "
          f"{cache.hits} cache hits at {cache.hit_rate:.0%})")


if __name__ == "__main__":
    main()
