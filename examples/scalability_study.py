#!/usr/bin/env python
"""Architecture-exploration example: the paper's Fig. 6 and Fig. 7 sweeps.

Sweeps matrix sizes with and without predictive address translation on a
single compute node (Fig. 6), then sweeps the number of compute nodes running
independent GEMM workloads (Fig. 7), printing the per-node computational
efficiency the paper plots.
"""

from repro.analysis import (
    efficiency_by_size,
    efficiency_gap,
    format_percent,
    render_series,
    summarize_scalability,
)
from repro.core import SweepRunner, maco_default_config
from repro.gemm.workloads import FIG6_MATRIX_SIZES, FIG7_MATRIX_SIZES


def main() -> None:
    config = maco_default_config()
    runner = SweepRunner()

    # -------------------------------------------------------------------- Fig. 6
    points = runner.sweep_prediction(config, list(FIG6_MATRIX_SIZES))
    with_prediction = efficiency_by_size(points, prediction_enabled=True)
    without_prediction = efficiency_by_size(points, prediction_enabled=False)
    gaps = efficiency_gap(points)
    print(
        render_series(
            "matrix size",
            list(FIG6_MATRIX_SIZES),
            {
                "with prediction": [with_prediction[s] for s in FIG6_MATRIX_SIZES],
                "without prediction": [without_prediction[s] for s in FIG6_MATRIX_SIZES],
                "gap": [gaps[s] for s in FIG6_MATRIX_SIZES],
            },
            value_formatter=format_percent,
            title="Fig. 6 - computational efficiency with/without predictive address translation",
        )
    )
    print(f"maximum gap: {format_percent(max(gaps.values()))} at size "
          f"{max(gaps, key=gaps.get)}\n")

    # -------------------------------------------------------------------- Fig. 7
    node_counts = [1, 2, 4, 8, 16]
    points = runner.sweep_scalability(config, list(FIG7_MATRIX_SIZES), node_counts)
    series = {}
    for nodes in node_counts:
        by_size = efficiency_by_size(points, active_nodes=nodes)
        series[f"{nodes}-core"] = [by_size[s] for s in FIG7_MATRIX_SIZES]
    print(
        render_series(
            "matrix size",
            list(FIG7_MATRIX_SIZES),
            series,
            value_formatter=format_percent,
            title="Fig. 7 - per-node computational efficiency vs number of compute nodes",
        )
    )
    summary = summarize_scalability(points)
    single = summary[1]["mean"]
    sixteen = summary[16]["mean"]
    print(f"\naverage per-node efficiency: single-core {format_percent(single)}, "
          f"hexadeca-core {format_percent(sixteen)} "
          f"(loss {format_percent(single - sixteen)})")


if __name__ == "__main__":
    main()
