"""The layers the traced run measures: entry points and the metrics read off them.

Each :class:`~perfbench.tracing.Target` names a layer's public function at
the attribute its callers resolve (a class for methods, the defining module
for functions; :class:`~perfbench.tracing.Instrumentation` then also patches
every module that imported the function by name).  Time metrics are self
times, so a layer's figure excludes the traced layers it calls and the
figures of one pass add up, with the unattributed rest, to the pass time.
"""

from __future__ import annotations

from typing import List, Tuple

from perfbench.tracing import Target

#: ``(metric, span)``: median self seconds per traced pass.
SPAN_SECONDS: Tuple[Tuple[str, str], ...] = (
    ("serve.trace.gen_s", "serve.trace.gen"),
    ("serve.estimate_s", "serve.estimate"),
    ("serve.engine_s", "serve.engine"),
    ("serve.run.self_s", "serve.run"),
    ("serve.policy_s", "serve.policy"),
    ("serve.autoscale_s", "serve.autoscale"),
    ("serve.report.build_s", "serve.report.build"),
    ("serve.report.json_s", "serve.report.json"),
    ("core.timing_cache.self_s", "core.timing_cache"),
    ("mmae.dataflow_s", "mmae.dataflow"),
    ("mmae.dataflow.schedule_s", "mmae.dataflow.schedule"),
    ("mmae.translation_stalls_s", "mmae.translation_stalls"),
    ("core.mapping_s", "core.mapping"),
    ("core.memory_env_s", "core.memory_env"),
    ("core.explorer.self_s", "core.explorer"),
    ("baselines.run_workload_s", "baselines.run_workload"),
    ("parallel.plan_s", "parallel.plan"),
    ("runtime.alloc_s", "runtime.alloc"),
    ("isa.execute_s", "isa.execute"),
    ("mmae.controller.self_s", "mmae.controller"),
    ("mmae.ade.translate_s", "mmae.ade.translate"),
    ("mmae.ade.load_s", "mmae.ade.load"),
    ("mmae.array.compute_s", "mmae.array.compute"),
)

#: ``(metric, span)``: median calls per traced pass.
SPAN_CALLS: Tuple[Tuple[str, str], ...] = (
    ("serve.estimate.profiles", "serve.estimate"),
    ("serve.policy.calls", "serve.policy"),
    ("serve.autoscale.evaluations", "serve.autoscale"),
    ("core.timing_cache.lookups", "core.timing_cache"),
    ("mmae.dataflow.estimates", "mmae.dataflow"),
    ("parallel.plans", "parallel.plan"),
    ("mmae.ade.translate.calls", "mmae.ade.translate"),
    ("mmae.array.tiles", "mmae.array.compute"),
)

#: Simulated counts summed over one pass of each input variant; they repeat
#: exactly for a seed.
SIM_COUNTS: Tuple[str, ...] = (
    "serve.trace.requests",
    "serve.sim.completed",
    "serve.sim.preemptions",
    "serve.sim.scale_events",
    "serve.sim.tenant_switches",
    "mmae.matlb.prewalks",
    "cpu.mmu.walks",
    "mmae.translation_stall_cycles",
)

#: Metrics derived from several sources, with their units.
DERIVED: Tuple[Tuple[str, str], ...] = (
    ("cli.import_s", "s"),
    ("core.timing_cache.hit_ratio", "ratio"),
    ("mmae.matlb.hit_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_share", "ratio"),
)


def metric_units() -> List[Tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    return ([(metric, "s") for metric, _ in SPAN_SECONDS]
            + [(metric, "count") for metric, _ in SPAN_CALLS]
            + [(metric, "count") for metric in SIM_COUNTS]
            + list(DERIVED))


def targets() -> List[Target]:
    """The traced entry points (imports every layer module it names)."""
    import repro.baselines as baselines
    import repro.core.compute_node as compute_node
    import repro.core.explorer as explorer
    import repro.core.maco as maco
    import repro.core.mapping as mapping
    import repro.core.perf as perf
    import repro.isa.executor as executor
    import repro.mmae.controller as controller
    import repro.mmae.data_engine as data_engine
    import repro.mmae.dataflow as dataflow
    import repro.mmae.matlb as matlb
    import repro.mmae.systolic_array as systolic_array
    import repro.parallel as parallel
    import repro.serve.autoscale as autoscale
    import repro.serve.engine as engine
    import repro.serve.report as report
    import repro.serve.scheduler as scheduler
    import repro.serve.simulator as simulator
    import repro.serve.trace as trace

    found = [
        Target(trace, "poisson_trace", "serve.trace.gen"),
        Target(trace, "bursty_trace", "serve.trace.gen"),
        # The estimator behind ServeSimulator.suggest_rates/service_profile:
        # the public methods are memo lookups the step loop calls per
        # admission, so they would bill the loop's dict probes as estimation.
        Target(simulator, "_service_profile", "serve.estimate"),
        Target(engine, "simulate_segments", "serve.engine"),
        Target(simulator.ServeSimulator, "run", "serve.run"),
        Target(autoscale.Autoscaler, "evaluate", "serve.autoscale"),
        Target(report, "build_report", "serve.report.build"),
        Target(report, "build_report_from_columns", "serve.report.build"),
        Target(report.ServeReport, "to_json", "serve.report.json"),
        Target(perf.TimingCache, "estimate", "core.timing_cache"),
        Target(dataflow, "estimate_gemm_timing", "mmae.dataflow"),
        Target(dataflow, "build_tile_schedule", "mmae.dataflow.schedule"),
        Target(matlb, "estimate_translation_stalls", "mmae.translation_stalls"),
        Target(mapping, "partition_gemm", "core.mapping"),
        Target(mapping, "partition_workload", "core.mapping"),
        Target(mapping, "schedule_gemm_plus", "core.mapping"),
        Target(perf, "memory_environment", "core.memory_env"),
        Target(perf, "unmapped_memory_environment", "core.memory_env"),
        Target(explorer.DesignSpaceExplorer, "explore", "core.explorer"),
        Target(explorer.DesignSpaceExplorer, "explore_graph", "core.explorer"),
        Target(maco.MACOSystem, "run_workload", "baselines.run_workload"),
        Target(parallel, "plan_parallel", "parallel.plan"),
        Target(compute_node.ComputeNode, "allocate_matrix", "runtime.alloc"),
        Target(executor.MPAISExecutor, "execute_program", "isa.execute"),
        Target(controller.AcceleratorController, "execute_pending", "mmae.controller"),
        Target(data_engine.AcceleratorDataEngine, "translate_tile", "mmae.ade.translate"),
        Target(data_engine.AcceleratorDataEngine, "translate_tile_batch", "mmae.ade.translate"),
        Target(data_engine.AcceleratorDataEngine, "load_operands", "mmae.ade.load"),
        Target(systolic_array.SystolicArray, "compute_tile", "mmae.array.compute"),
    ]
    for policy in (scheduler.BatchingPolicy, *_subclasses(scheduler.BatchingPolicy)):
        for method in ("push", "peek", "pop", "victim"):
            if method in vars(policy):
                found.append(Target(policy, method, "serve.policy"))
    for baseline in _subclasses(baselines.BaselineModel):
        if "run_workload" in vars(baseline):
            found.append(Target(baseline, "run_workload", "baselines.run_workload"))
    return found


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found += [sub] + _subclasses(sub)
    return found
