"""Command-line interface for the MACO reproduction.

Usage (after ``pip install -e .``)::

    python -m repro.cli fig6                 # predictive-translation sweep
    python -m repro.cli fig7                 # scalability sweep
    python -m repro.cli fig8                 # DL workload comparison
    python -m repro.cli table4               # CPU vs MMAE area/power table
    python -m repro.cli gemm --size 4096 --nodes 8 --precision fp64
    python -m repro.cli explore --sample lhs --points 200 --format csv
    python -m repro.cli workloads describe llama-7b@decode
    python -m repro.cli parallel --parallel tp:4,tp2d:2x2
    python -m repro.cli serve --trace poisson --tenants 3 --seed 7 --tenant-mix llm
    python -m repro.cli serve --tenant-mix llm --batching step --max-batch 8 \
        --scheduler slo --slo 0.5:0.1
    python -m repro.cli conformance run        # golden corpus vs tests/golden/
    python -m repro.cli conformance fuzz --cases 200 --seed 0

The CLI is a thin wrapper over the same APIs the benchmarks use, so its output
matches the rows recorded in EXPERIMENTS.md.  Every command runs in one
process: the sweeps evaluate their cells in order through one timing cache.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from repro.analysis import (
    compare_cpu_mmae,
    efficiency_by_size,
    efficiency_gap,
    format_gflops,
    format_percent,
    render_csv,
    render_series,
    render_table,
)
from repro.baselines import (
    CPUOnlyBaseline,
    GemminiLikeBaseline,
    NoMappingBaseline,
    RASALikeBaseline,
    compare_systems,
)
from repro.core import (
    DesignSpaceExplorer,
    MACOSystem,
    SweepRunner,
    maco_default_config,
    pareto_front,
)
from repro.core.mapping import in_order_sum
from repro.gemm import GEMMShape, Precision
from repro.gemm.workloads import FIG6_MATRIX_SIZES, FIG7_MATRIX_SIZES
from repro.serve.scheduler import SCHEDULER_NAMES
from repro.workloads import (
    WorkloadGraph,
    catalog_entry,
    describe_workload,
    dl_benchmark_suite,
    hpl_graph,
    workload_catalog,
    workload_graph_by_name,
)


def _cmd_gemm(args: argparse.Namespace) -> int:
    config = maco_default_config(num_nodes=args.nodes, prediction_enabled=not args.no_prediction)
    system = MACOSystem(config)
    shape = GEMMShape(args.size, args.size, args.size, Precision.from_string(args.precision))
    result = system.run_gemm(shape)
    print(f"GEMM {shape}: {result.seconds * 1e3:.2f} ms, "
          f"{format_gflops(result.gflops)} ({format_percent(result.efficiency)} of peak) "
          f"on {result.num_nodes} nodes")
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    config = maco_default_config()
    sizes = list(FIG6_MATRIX_SIZES)
    points = SweepRunner().sweep_prediction(config, sizes)
    with_prediction = efficiency_by_size(points, prediction_enabled=True)
    without = efficiency_by_size(points, prediction_enabled=False)
    gaps = efficiency_gap(points)
    print(render_series(
        "matrix size", sizes,
        {
            "with prediction": [with_prediction[s] for s in sizes],
            "without prediction": [without[s] for s in sizes],
            "gap": [gaps[s] for s in sizes],
        },
        value_formatter=format_percent,
        title="Fig. 6 - efficiency with/without predictive address translation",
    ))
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    config = maco_default_config()
    sizes = list(FIG7_MATRIX_SIZES)
    node_counts = [1, 2, 4, 8, 16]
    points = SweepRunner().sweep_scalability(config, sizes, node_counts)
    # One efficiency_by_size pass per node count (not per matrix size).
    by_nodes = {nodes: efficiency_by_size(points, active_nodes=nodes) for nodes in node_counts}
    series = {
        f"{nodes}-core": [by_nodes[nodes][s] for s in sizes]
        for nodes in node_counts
    }
    print(render_series("matrix size", sizes, series, value_formatter=format_percent,
                        title="Fig. 7 - per-node efficiency vs active compute nodes"))
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    config = maco_default_config(num_nodes=args.nodes)
    suite = dl_benchmark_suite()
    systems = [CPUOnlyBaseline(config), NoMappingBaseline(config),
               RASALikeBaseline(config), GemminiLikeBaseline(config),
               MACOSystem(config)]
    comparison = compare_systems(systems, suite, num_nodes=args.nodes)
    rows = [
        [system] + [format_gflops(comparison.throughput(system, w.name)) for w in suite]
        for system in comparison.systems()
    ]
    print(render_table(["system"] + [w.name for w in suite], rows,
                       title=f"Fig. 8 - DL inference throughput ({args.nodes} nodes, FP32)"))
    return 0


def _explore_workload(args: argparse.Namespace) -> WorkloadGraph:
    precision = Precision.from_string(args.precision)
    if args.workload == "hpl":
        return hpl_graph(max_size=args.size, step=max(args.size // 4, 256), precision=precision)
    if args.workload == "square":
        shape = GEMMShape(args.size, args.size, args.size, precision)
        return WorkloadGraph.from_shapes(f"square-{args.size}", [shape])
    # Anything else must be a workload-catalog name (base[@spec]).
    return workload_graph_by_name(args.workload, precision)


def _cmd_explore(args: argparse.Namespace) -> int:
    explorer = DesignSpaceExplorer()
    points = DesignSpaceExplorer.sample(args.sample, args.points, seed=args.seed)
    if args.sample == "grid" and args.points != 64:
        print(f"note: --sample grid is the full {len(points)}-point factorial grid; "
              "--points/--seed apply to random and lhs sampling only", file=sys.stderr)
    workload = _explore_workload(args)
    if args.parallel:
        from repro.parallel import ParallelismSpec

        degree = ParallelismSpec.parse(args.parallel).degree
        hosts = [point for point in points if point.num_nodes >= degree]
        if len(hosts) != len(points):
            print(f"note: --parallel {args.parallel} dropped "
                  f"{len(points) - len(hosts)} design point(s) with fewer than "
                  f"{degree} nodes", file=sys.stderr)
        points = hosts
        if not points:
            raise ValueError(f"--parallel {args.parallel}: no sampled design point "
                             f"has at least {degree} nodes")
    graph_results = explorer.explore_graph(points, workload, objective=args.objective,
                                           parallelism=args.parallel)
    results = [entry.aggregate for entry in graph_results]

    if args.per_phase:
        headers = ["design point", "phase", "kind", "step", "repeat",
                   "seconds", "gflops", "efficiency"]
        raw_rows = [
            [entry.aggregate.point.name, phase.name, phase.kind, phase.step, phase.repeat,
             phase.seconds, phase.gflops, phase.efficiency]
            for entry in graph_results
            for phase in entry.phases
        ]
        if args.parallel:
            headers += ["compute_seconds", "comm_seconds", "comm_overlapped_seconds"]
            for row, phase in zip(raw_rows, (phase for entry in graph_results
                                             for phase in entry.phases)):
                row += [phase.compute_seconds, phase.comm_seconds,
                        phase.comm_overlapped_seconds]
        title = (f"Design-space exploration - {len(results)} points by {args.objective}, "
                 "per phase")
    else:
        front = {id(result) for result in pareto_front(results)}
        headers = ["design point", "sa", "buffer_kb", "nodes", "gflops", "efficiency",
                   "gflops_per_mm2", "gflops_per_watt", "seconds", "pareto"]
        raw_rows = [
            [result.point.name, f"{result.point.sa_rows}x{result.point.sa_cols}",
             result.point.buffer_kb, result.point.num_nodes,
             result.gflops, result.efficiency, result.gflops_per_mm2,
             result.gflops_per_watt, result.seconds, id(result) in front]
            for result in results
        ]
        title = f"Design-space exploration - {len(results)} points by {args.objective}"

    if args.format == "json":
        records = [dict(zip(headers, row)) for row in raw_rows]
        text = json.dumps(records, indent=2)
    elif args.format == "csv":
        text = render_csv(headers, _format_cells(raw_rows, stringify=False))
    else:
        shown = raw_rows if args.top <= 0 else raw_rows[:args.top]
        text = render_table(headers, _format_cells(shown), title=title)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(results)} results to {args.output}")
    else:
        print(text)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro import bench

    report = bench.run_benchmarks(quick=args.quick, repeat=args.repeat)
    print(bench.format_report(report))
    bench.write_report(report, args.output)
    print(f"wrote {args.output}")
    if args.baseline:
        failures = bench.check_regression(
            report, bench.load_report(args.baseline), factor=args.regression_factor
        )
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}", file=sys.stderr)
            return 1
        print(f"no regression vs {args.baseline} "
              f"(threshold: baseline speedup / {args.regression_factor:g})")
    return 0


def _format_cells(rows, stringify: bool = True) -> List[List]:
    """Format float cells as ``%.6g`` (and optionally stringify the rest)."""
    return [[f"{cell:.6g}" if isinstance(cell, float) else (str(cell) if stringify else cell)
             for cell in row] for row in rows]


def _cmd_parallel(args: argparse.Namespace) -> int:
    from repro.parallel import ParallelismSpec

    config = maco_default_config(num_nodes=args.nodes)
    precision = Precision.from_string(args.precision)
    graph = workload_graph_by_name(args.workload, precision)
    # Without --parallel the command sweeps the tensor-parallel degrees.
    texts = (args.parallel or "tp:1,tp:2,tp:4,tp:8").split(",")
    specs = [ParallelismSpec.parse(text.strip()) for text in texts if text.strip()]
    if not specs:
        raise ValueError(f"--parallel {args.parallel!r} lists no specs")
    plans = SweepRunner().sweep_parallelism(config, graph, specs=specs)

    frequency = config.mmae.frequency_hz
    phase_headers = ["spec", "strategy", "degree", "phase", "kind", "repeat",
                     "compute_cycles", "comm_cycles", "overlapped_cycles",
                     "seconds", "collective"]
    phase_rows = [
        [str(plan.spec), plan.strategy, plan.degree, phase.name, phase.kind,
         phase.repeat, phase.compute_seconds * frequency,
         phase.comm_seconds * frequency,
         phase.comm_overlapped_seconds * frequency,
         phase.seconds, phase.collective]
        for plan in plans
        for phase in plan.phases
    ]
    summary_headers = ["spec", "strategy", "degree", "compute_s", "comm_s",
                       "overlapped_s", "total_s", "single_node_s", "speedup",
                       "comm_share", "interval_s"]
    summary_rows = [
        [str(plan.spec), plan.strategy, plan.degree, plan.compute_seconds,
         plan.comm_seconds, plan.comm_overlapped_seconds, plan.total_seconds,
         plan.unsharded_seconds, plan.speedup, plan.comm_fraction,
         plan.pipeline_interval_seconds]
        for plan in plans
    ]
    # The calibrated overhead-factor decomposition (SUMMA plans carry one).
    overhead_headers = ["spec", "factor", "loop_control", "memory_ops", "pipeline_stalls"]
    overhead_rows = []
    for plan in plans:
        if plan.overhead is not None:
            components = plan.overhead.component_factors()
            overhead_rows.append([str(plan.spec), plan.overhead.factor,
                                  components["loop_control"], components["memory_ops"],
                                  components["pipeline_stalls"]])

    if args.format == "json":
        payload = {
            "workload": graph.name,
            "phases": [dict(zip(phase_headers, row)) for row in phase_rows],
            "summary": [dict(zip(summary_headers, row)) for row in summary_rows],
        }
        if overhead_rows:
            payload["overhead"] = [dict(zip(overhead_headers, row))
                                   for row in overhead_rows]
        text = json.dumps(payload, indent=2)
    elif args.format == "csv":
        text = render_csv(phase_headers, _format_cells(phase_rows))
    else:
        sections = [
            render_table(phase_headers, _format_cells(phase_rows),
                         title=f"Parallel plan - {graph.name} "
                               f"(cycles at the {frequency / 1e9:g} GHz MMAE clock)"),
            render_table(summary_headers, _format_cells(summary_rows),
                         title="Plan summary - latency vs single-node execution"),
        ]
        if overhead_rows:
            sections.append(render_table(
                overhead_headers, _format_cells(overhead_rows),
                title="Compute overhead factor - calibrated on the functional path"))
        text = "\n\n".join(sections)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(plans)} plan(s) to {args.output}")
    else:
        print(text)
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    precision = Precision.from_string(args.precision)

    if args.action == "list":
        entries = []
        for name in workload_catalog():
            variant = catalog_entry(name)
            graph = workload_graph_by_name(name, precision)
            entries.append({
                "name": name,
                "parameters": {key: default for key, default in variant.defaults},
                "phases": len(graph),
                "gemms": sum(len(phase.shapes) * phase.repeat for phase in graph),
                "gflop": graph.total_flops / 1e9,
                "summary": variant.summary,
            })
        if args.format == "json":
            text = json.dumps(entries, indent=2, sort_keys=True)
        else:
            rows = [
                [entry["name"],
                 ",".join(f"{key}={value}" for key, value in entry["parameters"].items()
                          if key != "phases"),
                 entry["phases"], entry["gemms"], f"{entry['gflop']:.1f}", entry["summary"]]
                for entry in entries
            ]
            text = render_table(
                ["name", "parameters (defaults)", "phases", "gemms", "gflop", "description"],
                [[str(cell) for cell in row] for row in rows],
                title=f"Workload catalog - {len(entries)} variants "
                      "(parameterize as name@key=value,...)",
            )
    elif args.action == "describe":
        if not args.name:
            raise ValueError("workloads describe needs a catalog name (base[@spec])")
        graph = workload_graph_by_name(args.name, precision)
        description = describe_workload(args.name, precision, graph=graph)
        if args.format == "json":
            text = json.dumps(description, indent=2, sort_keys=True)
        else:
            rows = [
                [name, kind, str(repeat), str(gemms), f"{gflop:.1f}", f"{footprint:.1f}",
                 f"{state:.1f}", f"{reuse:.1f}"]
                for name, kind, repeat, gemms, gflop, footprint, state, reuse
                in graph.summary_rows()
            ]
            totals = (f"total: {description['gemm_flops'] / 1e9:.1f} GFLOP of GEMMs, "
                      f"{description['total_flops'] / 1e9:.1f} GFLOP overall, "
                      f"footprint {description['footprint_bytes'] / 1e6:.1f} MB, "
                      f"peak resident state {description['peak_state_bytes'] / 1e6:.1f} MB")
            text = "\n\n".join([
                render_table(
                    ["phase", "kind", "repeat", "gemms", "gflop", "stream (MB)",
                     "state (MB)", "flop/byte"],
                    rows, title=f"{description['name']} - {len(graph)} phases"),
                totals,
            ])
    else:  # export
        if not args.name:
            raise ValueError("workloads export needs a catalog name (base[@spec])")
        text = workload_graph_by_name(args.name, precision).to_json()

    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.action} output to {args.output}")
    else:
        print(text)
    return 0


def _parse_slo(text: str) -> tuple:
    """Parse ``--slo TTFT[:TPOT]`` into ``(ttft_slo_s, tpot_slo_s)`` seconds.

    ``"0.5"`` sets only a TTFT target, ``"0.5:0.1"`` both, ``":0.1"`` only a
    TPOT target.  Targets must be finite and positive.
    """
    ttft_text, _, tpot_text = text.partition(":")
    try:
        ttft = float(ttft_text) if ttft_text.strip() else None
        tpot = float(tpot_text) if tpot_text.strip() else None
    except ValueError:
        raise ValueError(
            f"malformed --slo {text!r}: expected TTFT[:TPOT] in seconds, e.g. 0.5:0.1")
    if ttft is None and tpot is None:
        raise ValueError(f"--slo {text!r} sets no target; pass TTFT, :TPOT or TTFT:TPOT")
    for target in (ttft, tpot):
        if target is not None and not (math.isfinite(target) and target > 0):
            raise ValueError(f"--slo targets must be finite positive seconds, got {text!r}")
    return ttft, tpot


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        ServeSimulator,
        bursty_trace,
        default_tenants,
        llm_tenants,
        poisson_trace,
        replay_trace,
    )

    if args.kv_budget is None:
        kv_budget_bytes = None
    elif args.kv_budget == "auto":
        kv_budget_bytes = "auto"
    else:
        try:
            megabytes = float(args.kv_budget)
        except ValueError:
            raise ValueError(
                f"--kv-budget must be a size in MB or 'auto', got {args.kv_budget!r}")
        kv_budget_bytes = float("inf") if megabytes == 0 else megabytes * 1e6
    autoscale = None
    if args.autoscale:
        from repro.serve import AutoscalePolicy

        if args.batching != "step":
            raise ValueError("--autoscale needs --batching step")
        degree = 1
        if args.parallel is not None:
            from repro.parallel import ParallelismSpec

            degree = ParallelismSpec.parse(args.parallel).degree
        min_nodes = args.min_nodes if args.min_nodes is not None else degree
        max_nodes = args.max_nodes if args.max_nodes is not None else args.nodes
        for flag, value in (("--min-nodes", min_nodes), ("--max-nodes", max_nodes)):
            if value % degree:
                raise ValueError(
                    f"{flag} ({value}) must be a multiple of the parallelism "
                    f"group size ({degree})")
        if not 0 < min_nodes <= max_nodes <= args.nodes:
            raise ValueError(
                f"--autoscale needs 0 < --min-nodes <= --max-nodes <= --nodes, "
                f"got {min_nodes}/{max_nodes}/{args.nodes}")
        autoscale = AutoscalePolicy(min_groups=min_nodes // degree,
                                    max_groups=max_nodes // degree)
    elif args.min_nodes is not None or args.max_nodes is not None:
        raise ValueError("--min-nodes/--max-nodes only apply with --autoscale")
    config = maco_default_config(num_nodes=args.nodes)
    simulator = ServeSimulator(config=config, scheduler=args.scheduler,
                               parallelism=args.parallel,
                               batching=args.batching, max_batch=args.max_batch,
                               kv_budget_bytes=kv_budget_bytes,
                               preemption=not args.no_preemption,
                               autoscale=autoscale)
    precision = Precision.from_string(args.precision)
    if args.trace == "replay":
        if not args.trace_file:
            raise ValueError("--trace replay requires --trace-file")
        parser_defaults = {"tenants": 3, "requests": 200, "rate": None,
                           "utilization": 0.7, "burst_factor": 8.0, "precision": "fp32",
                           "tenant_mix": "suite", "slo": None}
        ignored = [f"--{name.replace('_', '-')}" for name, default in parser_defaults.items()
                   if getattr(args, name) != default]
        if ignored:
            print("warning: replayed traces carry their own arrivals and precision; "
                  f"ignoring {', '.join(ignored)}", file=sys.stderr)
        trace = replay_trace(args.trace_file)
    else:
        if args.requests < 1:
            raise ValueError(f"request target must be >= 1, got {args.requests}")
        if args.tenant_mix == "llm":
            specs = llm_tenants(args.tenants)
        else:
            specs = default_tenants(args.tenants)
        if args.rate is not None:
            specs = [spec.with_rate(args.rate) for spec in specs]
        else:
            specs = simulator.suggest_rates(specs, utilization=args.utilization,
                                            precision=precision)
        if args.slo is not None:
            ttft_slo, tpot_slo = _parse_slo(args.slo)
            specs = [spec.with_slo(ttft_slo_s=ttft_slo, tpot_slo_s=tpot_slo)
                     for spec in specs]
        duration = args.requests / in_order_sum(spec.rate_rps for spec in specs)
        if args.trace == "bursty":
            trace = bursty_trace(specs, duration, seed=args.seed, precision=precision,
                                 burst_factor=args.burst_factor)
        else:
            trace = poisson_trace(specs, duration, seed=args.seed, precision=precision)

    report = simulator.run(trace)
    if args.functional_smoke:
        verified = simulator.functional_smoke(trace)
        print(f"functional smoke: {verified} GEMMs verified through the MPAIS async path",
              file=sys.stderr)
    text = report.to_json() if args.format == "json" else report.render()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote serve report for {report.total_requests} requests to {args.output}")
    else:
        print(text)
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.conformance import (
        GoldenCase,
        RegenRefused,
        fuzz as run_fuzz,
        replay as replay_fuzz,
        run_case,
        run_corpus,
    )

    def _write_failures(specs: List[dict]) -> None:
        if args.failures and specs:
            Path(args.failures).write_text(
                json.dumps({"failures": specs}, indent=2) + "\n")
            print(f"wrote {len(specs)} failure spec(s) to {args.failures}",
                  file=sys.stderr)

    if args.action == "run":
        golden_dir = Path(args.golden_dir) if args.golden_dir else None
        try:
            report = run_corpus(golden_dir=golden_dir, regen=args.regen,
                                allow_dirty=args.allow_dirty)
        except RegenRefused as error:
            print(f"{args.command}: error: {error}", file=sys.stderr)
            return 2
        rows = report.rows()
        print(render_table(rows[0], rows[1:], title="golden conformance corpus"))
        if report.regenerated:
            print(f"regenerated {len(report.regenerated)} golden file(s)")
        _write_failures(report.failure_specs())
        if not report.passed:
            for spec in report.failure_specs():
                print(json.dumps(spec), file=sys.stderr)
            print(f"{len(report.failures)} of {len(report.results)} golden "
                  "case(s) failed", file=sys.stderr)
            return 1
        print(f"all {len(report.results)} golden case(s) passed")
        return 0

    if args.action == "fuzz":
        report = run_fuzz(cases=args.cases, seed=args.seed,
                          kinds=args.kind or None)
        counts = ", ".join(f"{kind}={count}"
                           for kind, count in sorted(report.kind_counts().items()))
        print(f"fuzzed {report.cases} scenario(s) with seed {report.seed}: {counts}")
        _write_failures(report.failure_specs())
        if not report.passed:
            for spec in report.failure_specs():
                print(json.dumps(spec), file=sys.stderr)
            print(f"{len(report.failures)} scenario(s) violated an invariant",
                  file=sys.stderr)
            return 1
        print("all scenarios passed")
        return 0

    # replay: re-run the failure spec(s) recorded by `run`/`fuzz --failures`.
    text = Path(args.spec).read_text()
    try:
        record = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"replay spec {args.spec} is not valid JSON: {error}")
    specs = record["failures"] if isinstance(record, dict) and "failures" in record \
        else [record]
    failed = 0
    for spec in specs:
        if not isinstance(spec, dict) or "type" not in spec:
            raise ValueError(
                f"replay spec {args.spec}: each record needs a 'type' of "
                "'golden' or 'fuzz'")
        if spec["type"] == "golden":
            result = run_case(GoldenCase.from_dict(spec["case"]))
            name = result.case.name
            message = None if result.passed else result.message
        elif spec["type"] == "fuzz":
            message = replay_fuzz(spec)
            name = f"{spec.get('kind')}[{spec.get('index', '?')}]"
        else:
            raise ValueError(f"unknown replay spec type {spec['type']!r}")
        if message is None:
            print(f"{name}: PASS")
        else:
            print(f"{name}: FAIL — {message}")
            failed += 1
    return 1 if failed else 0


def _cmd_table4(args: argparse.Namespace) -> int:
    comparison = compare_cpu_mmae()
    print(render_table(
        ["", "Freq (GHz)", "Area (mm2)", "Power (W)", "FMACs", "Peak Perf (GFLOPS)"],
        [comparison.cpu.as_row(), comparison.mmae.as_row()],
        title="Table IV - comparison of the CPU core and MMAE",
    ))
    for key, value in comparison.summary().items():
        print(f"  {key}: {value:.2f}")
    return 0


#: One help string for every command's --parallel flag (satellite of the
#: ParallelismSpec redesign: a single spelling, a single grammar message).
_PARALLEL_SPEC_HELP = (
    "parallelism spec, strategy:degree or strategy:RxC — "
    "e.g. tp:4, tp2d:2x4, pp:2, auto:4"
)


def _add_parallel_spec_argument(parser: argparse.ArgumentParser,
                                help_suffix: str = "") -> None:
    """Add the shared ``--parallel SPEC`` argument with the common help text."""
    parser.add_argument("--parallel", default=None, metavar="SPEC",
                        help=_PARALLEL_SPEC_HELP + help_suffix)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    gemm = subparsers.add_parser("gemm", help="time one square GEMM on MACO")
    gemm.add_argument("--size", type=int, default=4096)
    gemm.add_argument("--nodes", type=int, default=16)
    gemm.add_argument("--precision", default="fp64", choices=["fp64", "fp32", "fp16"])
    gemm.add_argument("--no-prediction", action="store_true",
                      help="disable predictive address translation")
    gemm.set_defaults(handler=_cmd_gemm)

    fig6 = subparsers.add_parser("fig6", help="regenerate the Fig. 6 sweep")
    fig6.set_defaults(handler=_cmd_fig6)

    fig7 = subparsers.add_parser("fig7", help="regenerate the Fig. 7 sweep")
    fig7.set_defaults(handler=_cmd_fig7)

    fig8 = subparsers.add_parser("fig8", help="regenerate the Fig. 8 comparison")
    fig8.add_argument("--nodes", type=int, default=8)
    fig8.set_defaults(handler=_cmd_fig8)

    table4 = subparsers.add_parser("table4", help="regenerate the Table IV comparison")
    table4.set_defaults(handler=_cmd_table4)

    bench = subparsers.add_parser(
        "bench",
        help="time the functional fast path (page prediction, translation, emulator)")
    bench.add_argument("--quick", action="store_true",
                       help="smaller workloads for CI smoke runs")
    bench.add_argument("--repeat", type=int, default=1,
                       help="timing repetitions (best-of)")
    bench.add_argument("--output", default="BENCH_functional.json",
                       help="where to write the JSON report")
    bench.add_argument("--baseline", default=None,
                       help="committed baseline report to compare speedups against")
    bench.add_argument("--regression-factor", type=float, default=2.0,
                       help="fail if a speedup drops below baseline/factor")
    bench.set_defaults(handler=_cmd_bench)

    explore = subparsers.add_parser(
        "explore", help="design-space exploration over architectural knobs")
    explore.add_argument("--sample", default="grid", choices=["grid", "random", "lhs"],
                         help="design-point generator (grid, uniform random, Latin hypercube)")
    explore.add_argument("--points", type=int, default=64,
                         help="sample size for --sample random/lhs")
    explore.add_argument("--seed", type=int, default=0, help="sampling seed")
    explore.add_argument("--objective", default="gflops",
                         choices=["gflops", "efficiency", "gflops_per_mm2", "gflops_per_watt"],
                         help="ranking objective")
    explore.add_argument("--workload", default="square",
                         help="evaluation workload: 'square' (one GEMM), 'hpl' (a size "
                              "ladder), or any workload-catalog name such as "
                              "llama-7b@decode (see 'repro workloads list')")
    explore.add_argument("--size", type=int, default=2048,
                         help="matrix size for --workload square/hpl")
    explore.add_argument("--precision", default="fp64", choices=["fp64", "fp32", "fp16"])
    explore.add_argument("--per-phase", action="store_true",
                         help="emit one row per (design point, phase) instead of aggregates")
    _add_parallel_spec_argument(
        explore, "; shards the workload across a node group at every design point")
    explore.add_argument("--top", type=int, default=10,
                         help="rows shown in table output (<= 0 for all)")
    explore.add_argument("--format", default="table", choices=["table", "csv", "json"])
    explore.add_argument("--output", default=None,
                         help="write the rendered output to this file instead of stdout")
    explore.set_defaults(handler=_cmd_explore)

    parallel = subparsers.add_parser(
        "parallel",
        help="shard a workload across mesh nodes and report compute vs communication")
    parallel.add_argument("--workload", default="llama-7b@decode",
                          help="workload-catalog name, e.g. llama-7b@decode "
                               "(see 'repro workloads list')")
    _add_parallel_spec_argument(
        parallel, " — comma separated to plan several, e.g. tp:1,tp:4,tp2d:2x2 "
                  "(default: tp:1,tp:2,tp:4,tp:8)")
    parallel.add_argument("--nodes", type=int, default=16,
                          help="compute nodes in the configuration (degree must fit)")
    parallel.add_argument("--precision", default="fp32", choices=["fp64", "fp32", "fp16"])
    parallel.add_argument("--format", default="table", choices=["table", "csv", "json"])
    parallel.add_argument("--output", default=None,
                          help="write the rendered output to this file instead of stdout")
    parallel.set_defaults(handler=_cmd_parallel)

    workloads = subparsers.add_parser(
        "workloads", help="list, describe and export the workload scenario catalog")
    workloads.add_argument("action", choices=["list", "describe", "export"],
                           help="list the catalog, describe one variant's phases, "
                                "or export its WorkloadGraph JSON")
    workloads.add_argument("name", nargs="?", default=None,
                           help="catalog name with optional parameters, e.g. "
                                "llama-7b@decode,batch=2 (describe/export)")
    workloads.add_argument("--precision", default="fp32", choices=["fp64", "fp32", "fp16"])
    workloads.add_argument("--format", default="table", choices=["table", "json"],
                           help="output format for list/describe (export is always JSON)")
    workloads.add_argument("--output", default=None,
                           help="write the output to this file instead of stdout")
    workloads.set_defaults(handler=_cmd_workloads)

    serve = subparsers.add_parser(
        "serve", help="trace-driven multi-tenant inference serving simulation")
    serve.add_argument("--trace", default="poisson", choices=["poisson", "bursty", "replay"],
                       help="arrival process, or replay a recorded JSON trace")
    serve.add_argument("--trace-file", default=None,
                       help="JSON arrival records for --trace replay")
    serve.add_argument("--tenants", type=int, default=3,
                       help="tenant count for generated traces")
    serve.add_argument("--tenant-mix", default="suite", choices=["suite", "llm"],
                       help="tenant workload mixes: rotate the Fig. 8 suite, or "
                            "alternate prefill-heavy and decode-heavy LLM tenants")
    serve.add_argument("--requests", type=int, default=200,
                       help="target total request count for generated traces")
    serve.add_argument("--rate", type=float, default=None,
                       help="per-tenant mean arrival rate in req/s "
                            "(default: sized for --utilization)")
    serve.add_argument("--utilization", type=float, default=0.7,
                       help="target fleet utilization used to size the default rate")
    serve.add_argument("--burst-factor", type=float, default=8.0,
                       help="burst rate multiplier for --trace bursty")
    serve.add_argument("--scheduler", default="fcfs", choices=list(SCHEDULER_NAMES),
                       help="admission/batching policy")
    serve.add_argument("--batching", default="request", choices=["request", "step"],
                       help="execution model: whole-request dispatch, or iteration-level "
                            "continuous batching over workload-graph steps")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="resident requests per server under --batching step")
    serve.add_argument("--kv-budget", default=None, metavar="MB|auto",
                       help="per-server budget for resident KV state under --batching "
                            "step, in MB (default 4096; 0 = unlimited), or 'auto' to "
                            "derive it from the DRAM capacity model: the node's "
                            "capacity share minus the resident sharded model weights")
    serve.add_argument("--no-preemption", action="store_true",
                       help="never evict resident requests under --batching step; the "
                            "KV budget then only gates admission")
    serve.add_argument("--autoscale", action="store_true",
                       help="autoscale the fleet between --min-nodes and --max-nodes "
                            "under --batching step: scale out on sustained queue-depth "
                            "or SLO pressure, drain idle groups back in; the report "
                            "gains a fleet timeline and node-second accounting")
    serve.add_argument("--min-nodes", type=int, default=None, metavar="N",
                       help="smallest committed fleet under --autoscale, in nodes "
                            "(default: one parallelism group)")
    serve.add_argument("--max-nodes", type=int, default=None, metavar="N",
                       help="largest committed fleet under --autoscale, in nodes "
                            "(default: --nodes)")
    serve.add_argument("--slo", default=None, metavar="TTFT[:TPOT]",
                       help="TTFT/TPOT targets in seconds applied to every generated "
                            "tenant, e.g. 0.5:0.1 (reported as SLO attainment/goodput; "
                            "the slo scheduler prioritises by TTFT deadline)")
    serve.add_argument("--nodes", type=int, default=8, help="compute nodes in the fleet")
    _add_parallel_spec_argument(
        serve, "; serves each request on a node group instead of one node "
               "(--nodes must divide into groups of the spec's degree)")
    serve.add_argument("--precision", default="fp32", choices=["fp64", "fp32", "fp16"])
    serve.add_argument("--seed", type=int, default=0, help="trace generation seed")
    serve.add_argument("--format", default="table", choices=["table", "json"])
    serve.add_argument("--output", default=None,
                       help="write the report to this file instead of stdout")
    serve.add_argument("--functional-smoke", action="store_true",
                       help="also verify a few small GEMMs through the MPAIS async path")
    serve.set_defaults(handler=_cmd_serve)

    conformance = subparsers.add_parser(
        "conformance",
        help="golden-model conformance corpus and property-based scenario fuzzing")
    conformance_actions = conformance.add_subparsers(dest="action", required=True)

    conf_run = conformance_actions.add_parser(
        "run", help="execute the golden corpus against tests/golden/")
    conf_run.add_argument("--regen", action="store_true",
                          help="rewrite the committed golden files from the current "
                               "golden models (guarded: refuses on a dirty corpus)")
    conf_run.add_argument("--allow-dirty", action="store_true",
                          help="let --regen overwrite uncommitted golden files "
                               "(refused in CI)")
    conf_run.add_argument("--golden-dir", default=None,
                          help="corpus directory (default: the committed tests/golden/)")
    conf_run.add_argument("--failures", default=None, metavar="FILE",
                          help="write failing case specs to FILE as replayable JSON")
    conf_run.set_defaults(handler=_cmd_conformance)

    conf_fuzz = conformance_actions.add_parser(
        "fuzz", help="property-based scenario fuzzing over the exact invariants")
    conf_fuzz.add_argument("--cases", type=int, default=100,
                           help="number of scenarios to sample")
    conf_fuzz.add_argument("--seed", type=int, default=0,
                           help="run seed; (seed, index) fully determines scenario i")
    conf_fuzz.add_argument("--kind", action="append", default=None,
                           help="restrict to a scenario kind (repeatable)")
    conf_fuzz.add_argument("--failures", default=None, metavar="FILE",
                           help="write violated scenario specs to FILE as replayable JSON")
    conf_fuzz.set_defaults(handler=_cmd_conformance)

    conf_replay = conformance_actions.add_parser(
        "replay", help="re-run a recorded failure spec file")
    conf_replay.add_argument("spec", help="JSON spec from --failures (or a single record)")
    conf_replay.set_defaults(handler=_cmd_conformance)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error
        # worth reporting (matches conventional CLI behaviour).
        return 0
    except (ValueError, OSError) as error:
        # Domain validation (node counts, sample sizes, buffer capacities, ...)
        # raises ValueError; --output can hit unwritable paths.  Report both
        # like an argparse error instead of a traceback.
        print(f"{parser.prog} {args.command}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
