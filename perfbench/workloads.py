"""The benchmark's four workloads.

Every workload turns ``--seed`` into ``VARIANTS`` input variants and runs one
*pass* per call of :meth:`Workload.run_pass`, cycling through the variants.
A pass is cold, the way a command-line user meets the code: it clears the
process-wide timing cache and every ``functools`` memo in the package, takes
a fresh :class:`~repro.core.perf.TimingCache`, rebuilds its systems and
simulators, and generates its trace and service estimates on the clock.

Every program entry point is looked up through its module at call time
(``serve.bursty_trace``, not a name imported into this file), so the tracing
wrappers of :mod:`perfbench.tracing` see the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from perfbench import checks

#: Input variants per seed.  Passes cycle through them, so a run's medians
#: average over several inputs instead of riding on one trace's luck.
VARIANTS = 4

#: Abstract of the paper: average multi-core GEMM efficiency, and the
#: efficiency of the best DNN throughput (1.1 TFLOPS).
PAPER_MULTICORE_EFFICIENCY = 0.90
PAPER_DNN_EFFICIENCY = 0.88


def variant_seed(seed: int, variant: int) -> int:
    """The integer seed of one input variant; distinct for every (seed, variant)."""
    return seed * VARIANTS + variant


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _memoized_functions() -> List[object]:
    """Every ``functools`` cache bound at module level in the ``repro`` package."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


@dataclass
class CheckResult:
    """Outputs checked in one pass, how many failed, and why."""

    attempted: int
    failed: int
    messages: List[str]


class Workload:
    """One named workload: inputs from a seed, cold passes, output checks."""

    name = ""
    why = ""
    #: Unit of :meth:`work`, and the name the result table gives its rate.
    work_unit = ""
    rate_name = ""

    def setup(self, seed: int) -> None:
        """Import the program and build the inputs of every variant."""
        from repro.core import perf

        self.seed = seed
        self._perf = perf
        self._memos = _memoized_functions()

    def cold_reset(self) -> None:
        """Forget every process-wide memo, as a fresh interpreter would."""
        self._perf.DEFAULT_TIMING_CACHE.clear()
        for memo in self._memos:
            memo.cache_clear()

    def run_pass(self, variant: int):
        raise NotImplementedError

    def check(self, output, variant: int) -> CheckResult:
        raise NotImplementedError

    def work(self, output) -> float:
        """Work units the pass completed (requests, sweep cells, GFLOP)."""
        raise NotImplementedError

    def digest(self, output) -> str:
        """Hash of the pass's simulated outputs; identical inputs give identical hashes."""
        raise NotImplementedError

    def counts(self, output) -> Dict[str, float]:
        """Simulated counts of the pass, read from public report and stats objects."""
        return {}

    def summary(self, outputs: List[object]) -> List[Tuple[str, float, str, str]]:
        """Extra ``(name, value, unit, note)`` result rows over one output per variant."""
        return []


# ----------------------------------------------------------------- serving
@dataclass
class ServeOutput:
    tenant_counts: Dict[str, int]
    report: object
    text: str


def _tenant_counts(trace) -> Dict[str, int]:
    columns = trace.columns
    counts = np.bincount(columns.tenant_id, minlength=len(columns.tenants))
    return {name: int(count) for name, count in zip(columns.tenants, counts)}


class _ServeWorkload(Workload):
    work_unit = "req"
    rate_name = "requests_per_s"

    def setup(self, seed: int) -> None:
        super().setup(seed)
        import repro.core.config as config
        import repro.serve as serve

        self._config = config
        self._serve = serve

    def check(self, output: ServeOutput, variant: int) -> CheckResult:
        messages = checks.check_serve_report(output.report, output.tenant_counts)
        return CheckResult(1, 1 if messages else 0, messages)

    def work(self, output: ServeOutput) -> float:
        return float(sum(output.tenant_counts.values()))

    def digest(self, output: ServeOutput) -> str:
        return _sha(output.text.encode())

    def counts(self, output: ServeOutput) -> Dict[str, float]:
        report = output.report
        return {
            "serve.trace.requests": sum(output.tenant_counts.values()),
            "serve.sim.completed": report.total_requests,
            "serve.sim.preemptions": report.preemptions,
            "serve.sim.scale_events": (
                len(report.autoscale.events) if report.autoscale is not None else 0),
            "serve.sim.tenant_switches": sum(node.tenant_switches for node in report.nodes),
        }


class ServeStep(_ServeWorkload):
    """Two LLM tenants under step batching, preemption and autoscaling."""

    name = "serve-step"
    why = ("bursty LLM trace under step batching, SLO policy, KV preemption and "
           "autoscaling: the float step loop, policy queues and autoscaler")
    VARIANT = "llama-7b@layers=2,prompt=128,decode=64,block=8"
    REQUESTS = 5_000
    NODES = 4

    def setup(self, seed: int) -> None:
        super().setup(seed)
        from repro.workloads import workload_graph_by_name

        self.tenants = self._serve.llm_tenants(2, variant=self.VARIANT)
        # The KV budget is 1.5x the largest per-request resident state, so
        # batches overflow it and preempt.
        self.peak_state_bytes = max(
            workload_graph_by_name(workload).peak_state_bytes
            for spec in self.tenants for workload, _ in spec.mix)

    def run_pass(self, variant: int) -> ServeOutput:
        self.cold_reset()
        serve = self._serve
        simulator = serve.ServeSimulator(
            config=self._config.maco_default_config(num_nodes=self.NODES),
            cache=self._perf.TimingCache(), scheduler="slo", batching="step",
            max_batch=4, kv_budget_bytes=1.5 * self.peak_state_bytes,
            autoscale=serve.AutoscalePolicy(min_groups=1, max_groups=self.NODES))
        ingest, interactive = simulator.suggest_rates(self.tenants, utilization=0.9)
        tenants = [ingest.with_slo(ttft_slo_s=4.0),
                   interactive.with_slo(ttft_slo_s=1.0, tpot_slo_s=0.2, priority=1)]
        trace = serve.bursty_trace(
            tenants, self.REQUESTS / sum(spec.rate_rps for spec in tenants),
            seed=variant_seed(self.seed, variant), burst_factor=8.0)
        report = simulator.run(trace)
        return ServeOutput(_tenant_counts(trace), report, report.to_json())


class ServeRequest(_ServeWorkload):
    """Three model-suite tenants under request-level SJF on the array engine."""

    name = "serve-request"
    why = ("Poisson trace of ResNet/BERT/GPT-3 tenants under request-level SJF: "
           "trace generation, engine lowering, the array engine and column reports")
    REQUESTS = 100_000
    NODES = 4

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self.tenants = self._serve.default_tenants(3)

    def run_pass(self, variant: int) -> ServeOutput:
        self.cold_reset()
        serve = self._serve
        simulator = serve.ServeSimulator(
            config=self._config.maco_default_config(num_nodes=self.NODES),
            cache=self._perf.TimingCache(), scheduler="sjf")
        tenants = simulator.suggest_rates(self.tenants, utilization=0.9)
        trace = serve.poisson_trace(
            tenants, self.REQUESTS / sum(spec.rate_rps for spec in tenants),
            seed=variant_seed(self.seed, variant))
        report = simulator.run(trace)
        return ServeOutput(_tenant_counts(trace), report, report.to_json())


# ------------------------------------------------------------ paper sweeps
@dataclass
class SweepOutput:
    fig6: list
    fig7: list
    fig8: object
    explored: list
    plans: list


class PaperSweep(Workload):
    """The analytic paper path: Figs. 6-8, a design-space explore, parallel plans."""

    name = "paper-sweep"
    why = ("Fig. 6-8 sweeps, LHS explores and parallel plans, run cold: timing "
           "cache, GEMM timing model, mapping, explorer, baselines, repro.parallel")
    work_unit = "cells"
    rate_name = "sweep_cells_per_s"
    NODE_COUNTS = (1, 2, 4, 8, 16)
    FIG8_NODES = 8
    EXPLORE_POINTS = 8
    PARALLEL_SPECS = ("tp:1", "tp:2", "tp:4", "tp:8", "pp:2", "pp:4", "tp2d:2x2", "tp2d:2x4")

    def setup(self, seed: int) -> None:
        super().setup(seed)
        import repro.baselines as baselines
        import repro.core as core
        import repro.core.maco as maco
        import repro.parallel  # noqa: F401  (imported so its bindings are traced)
        import repro.workloads as workloads
        from repro.gemm import Precision
        from repro.gemm.workloads import FIG6_MATRIX_SIZES, FIG7_MATRIX_SIZES

        self._baselines, self._core, self._maco = baselines, core, maco
        self._workloads, self._fp32 = workloads, Precision.FP32
        self.fig6_sizes = list(FIG6_MATRIX_SIZES)
        self.fig7_sizes = list(FIG7_MATRIX_SIZES)
        self.points = [
            core.DesignSpaceExplorer.sample(
                "lhs", self.EXPLORE_POINTS, seed=variant_seed(seed, variant))
            for variant in range(VARIANTS)
        ]

    def run_pass(self, variant: int) -> SweepOutput:
        self.cold_reset()
        core, baselines, workloads = self._core, self._baselines, self._workloads
        runner = core.SweepRunner(jobs=1, cache=self._perf.TimingCache())
        config = core.maco_default_config()
        fig6 = runner.sweep_prediction(config, self.fig6_sizes)
        fig7 = runner.sweep_scalability(config, self.fig7_sizes, list(self.NODE_COUNTS))
        fig8_config = core.maco_default_config(num_nodes=self.FIG8_NODES)
        systems = [baselines.CPUOnlyBaseline(fig8_config),
                   baselines.NoMappingBaseline(fig8_config),
                   baselines.RASALikeBaseline(fig8_config),
                   baselines.GemminiLikeBaseline(fig8_config),
                   self._maco.MACOSystem(fig8_config)]
        fig8 = baselines.compare_systems(
            systems, workloads.dl_benchmark_suite(), num_nodes=self.FIG8_NODES)
        explorer = core.DesignSpaceExplorer()
        points = self.points[variant]
        explored = explorer.explore_graph(
            points, workloads.workload_graph_by_name("resnet50", self._fp32), runner=runner)
        # tp2d:2x2 needs four nodes; like `repro explore --parallel`, drop
        # the design points that have fewer.
        explored += explorer.explore_graph(
            [point for point in points if point.num_nodes >= 4],
            workloads.workload_graph_by_name("llama-7b@decode", self._fp32),
            runner=runner, parallelism="tp2d:2x2")
        plans = runner.sweep_parallelism(
            core.maco_default_config(num_nodes=16),
            workloads.workload_graph_by_name("bert", self._fp32),
            specs=list(self.PARALLEL_SPECS))
        return SweepOutput(fig6, fig7, fig8, explored, plans)

    @staticmethod
    def _fig8_results(output: SweepOutput) -> list:
        return [result for by_workload in output.fig8.results.values()
                for result in by_workload.values()]

    def check(self, output: SweepOutput, variant: int) -> CheckResult:
        attempted, failed, messages = 0, 0, []

        def record(found: List[str]) -> None:
            nonlocal attempted, failed
            attempted += 1
            failed += 1 if found else 0
            messages.extend(found)

        for point in output.fig6 + output.fig7:
            record(checks.check_efficiency(
                f"fig6/7 size {point.matrix_size} on {point.active_nodes} node(s)",
                point.efficiency))
        for size in self.fig7_sizes:
            by_nodes = sorted((point.active_nodes, point.efficiency)
                              for point in output.fig7 if point.matrix_size == size)
            record(checks.check_node_scaling(
                f"fig7 size {size}", [efficiency for _, efficiency in by_nodes]))
        for result in self._fig8_results(output):
            record(checks.check_efficiency(f"fig8 {result.system}/{result.name}",
                                           result.efficiency))
        for entry in output.explored:
            record(checks.check_efficiency(f"explore {entry.aggregate.point.name}",
                                           entry.aggregate.efficiency))
        for plan in output.plans:
            record([] if 0 < plan.total_seconds < float("inf") else
                   [f"plan {plan.spec}: latency {plan.total_seconds!r}"])
        return CheckResult(attempted, failed, messages)

    def work(self, output: SweepOutput) -> float:
        return float(len(output.fig6) + len(output.fig7) + len(self._fig8_results(output))
                     + len(output.explored) + len(output.plans))

    def digest(self, output: SweepOutput) -> str:
        rows = [(p.matrix_size, p.active_nodes, p.prediction_enabled, p.efficiency, p.seconds)
                for p in output.fig6 + output.fig7]
        rows += [(r.system, r.name, r.seconds) for r in self._fig8_results(output)]
        rows += [(e.aggregate.point.name, e.parallelism, e.aggregate.seconds,
                  e.aggregate.efficiency) for e in output.explored]
        rows += [(str(plan.spec), plan.total_seconds) for plan in output.plans]
        return _sha(repr(rows).encode())

    def paper_gap_pp(self, output: SweepOutput) -> Tuple[float, float, float]:
        """``(gap, fig7 multi-core mean, best-DNN efficiency)`` against the abstract."""
        multicore = [p.efficiency for p in output.fig7 if p.active_nodes > 1]
        fig7_mean = sum(multicore) / len(multicore)
        best = max(output.fig8.results["maco"].values(), key=lambda result: result.gflops)
        gap = 100 * max(abs(fig7_mean - PAPER_MULTICORE_EFFICIENCY),
                        abs(best.efficiency - PAPER_DNN_EFFICIENCY))
        return gap, fig7_mean, best.efficiency

    def summary(self, outputs: List[SweepOutput]) -> List[Tuple[str, float, str, str]]:
        gap, fig7_mean, dnn = self.paper_gap_pp(outputs[0])
        return [("paper_gap_pp", gap, "pp",
                 f"Fig. 7 multi-core mean {fig7_mean:.1%} vs 90%, best-throughput "
                 f"Fig. 8 DNN {dnn:.1%} vs 88%")]


# -------------------------------------------------------- functional MPAIS
@dataclass
class GemmOutput:
    label: str
    case: int
    status_exception: bool
    error: str
    c: np.ndarray


@dataclass
class FunctionalOutput:
    gemms: List[GemmOutput]
    matlb_hits: int
    matlb_misses: int
    prewalks: int
    walks: int
    stall_cycles: int


class FunctionalMpais(Workload):
    """GEMMs through the MPAIS runtime: MA_CFG, MA_READ, MA_STATE on node 0."""

    name = "functional-mpais"
    why = ("FP64/FP32/FP16 GEMMs through MACORuntime with and without predictive "
           "translation: MPAIS front end, controller, ADE, MMU/TLB and compute_tile")
    work_unit = "GFLOP"
    rate_name = "functional_gflops"
    NODES = 4

    def setup(self, seed: int) -> None:
        super().setup(seed)
        import repro.core as core
        import repro.core.runtime as runtime
        from repro.conformance.golden import PRECISION_TOLERANCES
        from repro.gemm import Precision

        self._core, self._runtime = core, runtime
        self.cases = [(Precision.FP64, 256), (Precision.FP32, 512), (Precision.FP16, 384)]
        self.tolerances = PRECISION_TOLERANCES
        self.matrices = []
        for variant in range(VARIANTS):
            rng = np.random.default_rng(variant_seed(seed, variant))
            self.matrices.append([
                (rng.standard_normal((size, size)), rng.standard_normal((size, size)))
                for _, size in self.cases])
        self._references: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}

    def run_pass(self, variant: int) -> FunctionalOutput:
        self.cold_reset()
        gemms: List[GemmOutput] = []
        hits = misses = prewalks = walks = stalls = 0
        for prediction in (True, False):
            system = self._core.MACOSystem(self._core.maco_default_config(
                num_nodes=self.NODES, prediction_enabled=prediction))
            runtime = self._runtime.MACORuntime(system=system)
            for case, ((precision, size), (a, b)) in enumerate(
                    zip(self.cases, self.matrices[variant])):
                label = f"{precision.name} {size}^3 prediction {'on' if prediction else 'off'}"
                handle = runtime.gemm_async(a, b, precision=precision, node_id=0)
                status = runtime.poll(handle)
                try:
                    c, error = runtime.wait(handle), ""
                except RuntimeError as failure:
                    c, error = np.zeros(0), str(failure)
                gemms.append(GemmOutput(label, case, status.exception_en, error, c))
            node = system.node(0)
            stats = node.mmae.matlb.stats
            hits, misses, prewalks = hits + stats.hits, misses + stats.misses, \
                prewalks + stats.prewalks
            walks += node.cpu.mmu.stats.walks
            stalls += node.mmae.ade.translation_stall_cycles
        return FunctionalOutput(gemms, hits, misses, prewalks, walks, stalls)

    def _reference(self, variant: int, case: int) -> Tuple[np.ndarray, np.ndarray]:
        """The golden product and allowance of one GEMM, computed once."""
        key = (variant, case)
        if key not in self._references:
            precision, _ = self.cases[case]
            a, b = self.matrices[variant][case]
            rtol, atol = self.tolerances[precision]
            unit_roundoff = float(np.finfo(precision.accumulate_dtype).eps) / 2
            self._references[key] = checks.gemm_reference(a, b, rtol, atol, unit_roundoff)
        return self._references[key]

    def check(self, output: FunctionalOutput, variant: int) -> CheckResult:
        attempted, failed, messages = 0, 0, []
        for gemm in output.gemms:
            attempted += 1
            if gemm.status_exception or gemm.error:
                found = [f"{gemm.label}: status word raised an exception {gemm.error}"]
            else:
                found = checks.check_gemm(gemm.label, gemm.c,
                                          *self._reference(variant, gemm.case))
            failed += 1 if found else 0
            messages += found
        return CheckResult(attempted, failed, messages)

    def work(self, output: FunctionalOutput) -> float:
        return sum(2.0 * self.cases[gemm.case][1] ** 3 for gemm in output.gemms) / 1e9

    def digest(self, output: FunctionalOutput) -> str:
        counters = (output.matlb_hits, output.matlb_misses, output.prewalks,
                    output.walks, output.stall_cycles)
        return _sha(repr(counters).encode(), *(gemm.c.tobytes() for gemm in output.gemms))

    def counts(self, output: FunctionalOutput) -> Dict[str, float]:
        return {
            "mmae.matlb.hits": output.matlb_hits,
            "mmae.matlb.lookups": output.matlb_hits + output.matlb_misses,
            "mmae.matlb.prewalks": output.prewalks,
            "cpu.mmu.walks": output.walks,
            "mmae.translation_stall_cycles": output.stall_cycles,
        }


WORKLOADS = {workload.name: workload
             for workload in (ServeStep, ServeRequest, PaperSweep, FunctionalMpais)}
