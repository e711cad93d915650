"""Trace-driven discrete-event simulation of a multi-tenant MACO serving fleet.

:class:`ServeSimulator` composes the existing machinery into a serving
scenario: arrivals come from a :class:`~repro.serve.trace.RequestTrace`, a
:class:`~repro.serve.scheduler.BatchingPolicy` orders admission, and every
timing estimate runs through the shared :class:`~repro.core.perf.TimingCache`,
so repeated model shapes are walked once per process.  Tenant interleaving on
a node is charged the :class:`~repro.cpu.process.ProcessManager`
context-switch cost plus an ASID-flush penalty, as one integer tick constant.

The simulator prices every workload and lowers the trace onto the
integer-tick event engine of :mod:`repro.serve.engine`, which runs both
execution models (``batching=``):

* **request** — the non-preemptive multi-server queue: whenever the
  earliest-free server (a node, or a node group under parallelism) frees up,
  the policy pops one request and the server is busy for the switch cost plus
  the whole analytic service estimate.
* **step** — iteration-level continuous batching: each request is lowered to
  the *steps* of its :class:`~repro.workloads.graph.WorkloadGraph` (one
  prefill step, then one step per decode block), and each server runs a
  *batch* of up to ``max_batch`` resident requests, executing one step per
  member per iteration.  New requests are admitted between iterations when a
  batch slot and enough of the server's paged KV budget (the phases'
  ``state_bytes``) are free; when the resident state outgrows the budget, the
  policy picks a victim to preempt — it keeps its progress, re-enters the
  waiting queue at its original ``(arrival, id)`` position from its
  preemption on, and pays a KV-restore penalty (state bytes over the node's
  DRAM-bandwidth share) on resume.  At ``max_batch=1`` with preemption
  disabled the step model reduces to the request model, and the simulator
  takes the request runner so the reports agree byte for byte.

With ``autoscale=`` (an :class:`~repro.serve.autoscale.AutoscalePolicy`) the
step runner additionally drives a fleet lifecycle: group servers are committed and
drained by a windowed hysteresis controller, new capacity pays a modeled
provisioning delay before it serves, and the report gains an
:class:`~repro.serve.autoscale.AutoscaleStats` section (fleet-size timeline,
scale events, node-seconds, goodput per node-second).  The per-server KV
budget can also be derived from the hardware instead of hand-picked:
``kv_budget_bytes="auto"`` sizes it as the node's DRAM capacity share minus
the resident (sharded) model weights — see
:func:`~repro.serve.autoscale.derive_kv_budget`.

Two fidelities also coexist (see docs/ARCHITECTURE.md): the event engine
uses the analytic timing model — simulating a million-request trace is cheap —
and :meth:`ServeSimulator.functional_smoke` pushes a handful of small GEMMs
through the real MPAIS async path (``MA_CFG``/``MA_READ``/``MA_STATE``) to
prove the dispatch plumbing against the functional machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import SweepRunner, _task_cache
from repro.core.config import MACOConfig, maco_default_config
from repro.core.mapping import partition_gemm, schedule_gemm_plus
from repro.core.perf import (
    TimingCache,
    estimate_node_gemm_cached,
    memory_environment,
    unmapped_memory_environment,
)
from repro.cpu.core import CPUCore
from repro.cpu.process import ProcessManager
from repro.gemm.precision import Precision
from repro.mem.dram import DRAMModel
from repro.serve.autoscale import AutoscalePolicy, KVBudget, derive_kv_budget
from repro.serve.engine import (
    NO_DEADLINE,
    TICKS_PER_SECOND,
    EngineTrace,
    StepTables,
    merge_segments,
    segment_bounds,
    shard_plan,
    shard_worker,
    simulate_segments,
)
from repro.serve.report import ServeReport, build_report_from_columns
from repro.serve.scheduler import SCHEDULER_NAMES
from repro.serve.trace import RequestTrace, TenantSpec, TraceColumns

__all__ = [
    "TENANT_SWITCH_FLUSH_CYCLES",
    "DEFAULT_KV_BUDGET_BYTES",
    "StepSpec",
    "ServiceProfile",
    "estimate_phase_service_seconds",
    "estimate_service_seconds",
    "ServeSimulator",
]

#: Extra CPU cycles charged when a node switches tenants, on top of the
#: :class:`~repro.cpu.process.ProcessManager` register save/restore cost:
#: the shootdown of the incoming ASID's stale entries in the 1024-entry
#: shared L2 TLB and the mATLB invalidate (one cycle per entry, conservatively
#: charged in the CPU clock domain).  See DESIGN.md section 7.3.
TENANT_SWITCH_FLUSH_CYCLES = 1024

#: Default per-server budget for resident serving state (the paged KV cache)
#: in step-batching mode: 4 GiB of the node's DDR, a conservative slice that
#: leaves the rest for weights and activations.  This is a serving policy
#: knob; to size the budget from the modeled hardware instead, pass
#: ``kv_budget_bytes="auto"`` (``--kv-budget auto``), which subtracts the
#: resident sharded model weights from the node's share of
#: :attr:`~repro.mem.dram.DRAMConfig.total_capacity_bytes` — see
#: :func:`~repro.serve.autoscale.derive_kv_budget` and DESIGN.md section 8.
DEFAULT_KV_BUDGET_BYTES = 4 << 30

#: The engine's clock is int64 nanosecond ticks: arrivals and completions
#: must stay below this.
_TICK_LIMIT = 2**63


@dataclass(frozen=True)
class StepSpec:
    """One schedulable step of a request: a phase of its workload graph.

    ``seconds`` is the phase's analytic service time on one server of the
    fleet (all ``repeat`` executions), ``stage`` its pipeline stage (0 outside
    pipeline parallelism), ``state_bytes`` the resident state (KV cache) the
    request holds *after* this step — the paged-KV occupancy the step runner
    charges against the server budget — and ``tokens`` the output
    tokens the step emits (0 for prefill and non-LLM phases).
    """

    name: str
    seconds: float
    stage: int
    state_bytes: int
    tokens: int


@dataclass(frozen=True)
class ServiceProfile:
    """A workload's full service profile on one server of the fleet.

    ``latency_s`` is the end-to-end service time of a request running alone
    (the sum of its step seconds); ``interval_s`` the steady-state occupancy
    it adds to a pipeline-parallel group (the busiest stage's seconds; equal
    to the latency everywhere else); ``steps`` the per-phase breakdown the
    step runner schedules.
    """

    latency_s: float
    interval_s: float
    steps: Tuple[StepSpec, ...]

    @property
    def total_tokens(self) -> int:
        """Output tokens one request emits (0 for graphs without decode)."""
        return sum(step.tokens for step in self.steps)

    @property
    def peak_state_bytes(self) -> int:
        """Largest resident state any step holds — the feasibility floor."""
        return max(step.state_bytes for step in self.steps)


def estimate_phase_service_seconds(
    config: MACOConfig,
    workload_name: str,
    precision: Precision,
    active_nodes: int,
    cache: Optional[TimingCache] = None,
    parallelism: Optional[str] = None,
    group: Optional[Sequence[int]] = None,
    background: Sequence[Sequence[int]] = (),
) -> List[Tuple[str, float]]:
    """Per-phase analytic service time of one model invocation on one server.

    The request runs alone on its server but shares the memory system with
    the rest of the fleet, so the per-layer GEMM estimates use the
    ``active_nodes``-way contended :func:`~repro.core.perf.memory_environment`
    (the steady-state worst case for a loaded fleet).  Each phase of the
    workload graph is scheduled independently — its GEMM stream on the MMAE,
    its element-wise tail on the node's CPU core, its stash prefetch traffic
    at the node's DRAM bandwidth share, combined through the same
    :func:`~repro.core.mapping.schedule_gemm_plus` overlap model as
    :meth:`~repro.core.maco.MACOSystem.run_workload` — and phases execute in
    order (prefill feeds decode), so the request's service time is the sum.
    A phase times its distinct shapes once and scales by the phase ``repeat``
    count: every decode step after the first reuses the
    :class:`~repro.core.perf.TimingCache` entries of its block.

    With ``parallelism`` (``"tp:4"``-style) the server is a node *group*:
    :func:`repro.parallel.plan_parallel` shards each phase's GEMM stream over
    ``group`` (tensor parallel also divides the element-wise tail and stash
    traffic across the group; a pipeline stage keeps its phases whole), and
    the phase pays its collective-communication seconds — priced on the mesh
    with every ``background`` group's traffic overlaid — on top of the
    overlap schedule.  A ``tp:1`` plan reproduces the single-node estimate
    bit for bit.
    """
    rows, _ = _phase_service_rows(
        config, workload_name, precision, active_nodes, cache=cache,
        parallelism=parallelism, group=group, background=background,
    )
    return [(name, seconds) for name, seconds, _, _ in rows]


def _phase_service_rows(
    config: MACOConfig,
    workload_name: str,
    precision: Precision,
    active_nodes: int,
    cache: Optional[TimingCache] = None,
    parallelism: Optional[str] = None,
    group: Optional[Sequence[int]] = None,
    background: Sequence[Sequence[int]] = (),
) -> Tuple[List[Tuple[str, float, int, int]], Optional[str]]:
    """``(phase name, seconds, pipeline stage, sharers)`` rows plus the strategy.

    The implementation behind :func:`estimate_phase_service_seconds`; the
    stage index (0 outside pipeline parallelism) lets the simulator compute
    the group's steady-state pipeline interval, and ``sharers`` — the nodes a
    phase is sharded over — lets it divide the phase's resident state across
    a tensor-parallel group (each node holds its KV shard).
    """
    from repro.workloads.registry import workload_graph_by_name

    graph = workload_graph_by_name(workload_name, precision)
    env = memory_environment(config, active_nodes)
    if not config.mapping_scheme_enabled:
        env = unmapped_memory_environment(env)
    core = CPUCore.from_config(config.cpu)
    dram = DRAMModel(config=config.memory.dram)
    stash_bandwidth = dram.effective_bandwidth(active_nodes) / active_nodes

    plan = None
    if parallelism is not None:
        from repro.parallel import plan_parallel

        plan = plan_parallel(
            graph, config, parallelism, group=group, env=env, cache=cache,
            background=background,
        )

    results: List[Tuple[str, float, int, int]] = []
    for index, phase in enumerate(graph.phases):
        stash_bytes = 0
        for shape in phase.shapes:
            stash_bytes += partition_gemm(shape, 1).stash_bytes
        stash_bytes *= phase.repeat
        comm_seconds = 0.0
        if plan is None:
            gemm_seconds = sum(
                estimate_node_gemm_cached(
                    config, shape, active_nodes=active_nodes, env=env, cache=cache,
                ).seconds
                for shape in phase.shapes
            ) * phase.repeat
            sharers = 1
        else:
            phase_plan = plan.phases[index]
            gemm_seconds = phase_plan.compute_seconds
            # Only the exposed slice of the collectives lands on the service
            # time — tp2d's pipelined broadcasts already ran under compute.
            comm_seconds = phase_plan.comm_exposed_seconds
            # Tensor parallelism shards the tail and stash across the group;
            # a pipeline stage runs its phases whole on one node.
            sharers = len(phase_plan.nodes)
        cpu_seconds = core.run_elementwise(
            phase.non_gemm_flops * phase.repeat, phase.non_gemm_bytes * phase.repeat
        ).seconds / sharers
        schedule = schedule_gemm_plus(
            mmae_seconds=gemm_seconds,
            cpu_seconds=cpu_seconds,
            stash_seconds=stash_bytes / sharers / stash_bandwidth,
            mapping_enabled=config.mapping_scheme_enabled,
        )
        stage = plan.phases[index].stage if plan is not None else 0
        results.append((phase.name, schedule.total_seconds + comm_seconds, stage, sharers))
    return results, (plan.strategy if plan is not None else None)


def estimate_service_seconds(
    config: MACOConfig,
    workload_name: str,
    precision: Precision,
    active_nodes: int,
    cache: Optional[TimingCache] = None,
    parallelism: Optional[str] = None,
    group: Optional[Sequence[int]] = None,
    background: Sequence[Sequence[int]] = (),
) -> float:
    """Analytic service time of one model invocation on one server.

    The sum of the per-phase estimates — see
    :func:`estimate_phase_service_seconds` for the contention, overlap and
    sharding models.  For single-phase graphs (``bert``, ``gpt3``) this
    reduces to the flat GEMM-stream estimate of the whole workload;
    multi-phase graphs (``resnet50`` is now one phase per conv stage, LLM
    graphs one per prefill/decode block) schedule each phase's GEMM/CPU/stash
    overlap independently, so their estimates are slightly more conservative
    than the old whole-network overlap (phase boundaries are barriers).
    """
    return sum(
        seconds
        for _, seconds in estimate_phase_service_seconds(
            config, workload_name, precision, active_nodes, cache=cache,
            parallelism=parallelism, group=group, background=background,
        )
    )


def _service_profile(
    config: MACOConfig,
    workload_name: str,
    precision: Precision,
    active_nodes: int,
    cache: Optional[TimingCache] = None,
    parallelism: Optional[str] = None,
    group: Optional[Sequence[int]] = None,
    background: Sequence[Sequence[int]] = (),
) -> ServiceProfile:
    """Build the :class:`ServiceProfile` of one workload on one server.

    ``latency_s`` is the end-to-end service time a request observes.
    ``interval_s`` is the steady-state occupancy the request adds to its
    server: for pipeline parallelism the busiest stage's seconds —
    back-to-back same-tenant requests overlap across stages, so the group
    admits the next request one interval after the last — and simply the
    latency everywhere else.  ``steps`` carries the per-phase timing plus the
    resident-state and token metadata from the workload graph; a
    tensor-parallel group holds each phase's state sharded ``sharers`` ways.
    """
    from repro.workloads.registry import workload_graph_by_name

    rows, strategy = _phase_service_rows(
        config, workload_name, precision, active_nodes, cache=cache,
        parallelism=parallelism, group=group, background=background,
    )
    graph = workload_graph_by_name(workload_name, precision)
    steps = tuple(
        StepSpec(
            name=name,
            seconds=seconds,
            stage=stage,
            state_bytes=phase.state_bytes // sharers,
            tokens=phase.tokens,
        )
        for (name, seconds, stage, sharers), phase in zip(rows, graph.phases)
    )
    latency = sum(seconds for _, seconds, _, _ in rows)
    if strategy != "pp":
        return ServiceProfile(latency_s=latency, interval_s=latency, steps=steps)
    per_stage: Dict[int, float] = {}
    for _, seconds, stage, _ in rows:
        per_stage[stage] = per_stage.get(stage, 0.0) + seconds
    return ServiceProfile(latency_s=latency, interval_s=max(per_stage.values()), steps=steps)


def _service_worker(payload) -> ServiceProfile:
    """Pool worker: estimate one server's :class:`ServiceProfile` for a workload."""
    (config, workload_name, precision, active_nodes,
     parallelism, group, background), cache = payload
    return _service_profile(
        config, workload_name, precision, active_nodes, cache=_task_cache(cache),
        parallelism=parallelism, group=group, background=background,
    )


def _reorder(column: np.ndarray, order: Optional[np.ndarray]) -> np.ndarray:
    """A trace column in engine rank order (``order=None``: already canonical)."""
    return column if order is None else column[order]


def _trace_pairs(columns: TraceColumns) -> List[Tuple[str, Precision]]:
    """The distinct ``(workload, precision)`` pairs of a trace, sorted.

    One bincount over the tiny (workload x precision) code space: no
    million-element hashing, no materialised requests.
    """
    if not len(columns):
        return []
    width = max(len(columns.precisions), 1)
    counts = np.bincount(
        columns.workload_id.astype(np.int64) * width + columns.precision_id,
        minlength=len(columns.workloads) * width)
    return sorted(
        ((columns.workloads[int(code) // width], columns.precisions[int(code) % width])
         for code in np.flatnonzero(counts)),
        key=lambda pair: (pair[0], pair[1].name))


class ServeSimulator:
    """Simulates a request trace against a MACO fleet under a batching policy.

    ``scheduler`` is a policy name (see
    :data:`~repro.serve.scheduler.SCHEDULER_NAMES`); ``jobs`` fans the
    per-workload service estimation (and sharded segments) out over a
    :class:`~repro.core.batch.SweepRunner` pool (every segment runs serially
    and deterministically, so the report is bit-identical for every ``jobs``
    setting).

    ``batching`` selects the execution model (see the module docstring):
    ``"request"`` runs whole-request dispatch, ``"step"`` the
    iteration-level continuous-batching runner with up to ``max_batch``
    resident requests per server, a paged-KV budget of ``kv_budget_bytes``
    per server (``None`` means :data:`DEFAULT_KV_BUDGET_BYTES`;
    ``float("inf")`` disables the budget; ``"auto"`` derives it from the DRAM
    capacity model at run time — see :meth:`resolved_kv_budget`), and —
    unless ``preemption`` is off — policy-selected eviction when the
    resident state outgrows it.

    ``autoscale`` (an :class:`~repro.serve.autoscale.AutoscalePolicy`;
    step batching only) turns the fixed fleet into an elastic one: the run
    starts with ``min_groups`` committed group servers and a windowed
    hysteresis controller commits or drains groups against queue-depth and
    SLO-attainment pressure, within ``[min_groups, max_groups]``.  With
    ``min_groups == max_groups`` the controller can never act and the report
    matches the fixed-fleet run byte for byte apart from its ``autoscale``
    section.

    ``parallelism`` (``"tp:4"``-style, see :mod:`repro.parallel`) shards
    every request across a node *group* instead of serving it on one node:
    the fleet becomes ``num_nodes / degree`` group servers, each request's
    service time reflects sharded execution plus collective communication,
    and the collectives of co-scheduled groups contend for shared mesh links
    (every other group is priced as background traffic — the steady-state
    worst case, consistent with the memory-environment model).  A
    pipeline-parallel group overlaps back-to-back same-tenant requests
    across its stages: in request mode it admits the next request one
    pipeline interval after the last, and in step mode batch members in
    different stages advance concurrently within an iteration.  A
    tensor-parallel group holds each request's KV state sharded across its
    nodes, so the budget check sees the per-node share.  ``tp:1`` reproduces
    the unsharded simulation bit for bit.
    """

    def __init__(
        self,
        config: Optional[MACOConfig] = None,
        scheduler: str = "fcfs",
        jobs: Optional[int] = None,
        cache: Optional[TimingCache] = None,
        parallelism: Optional[str] = None,
        batching: str = "request",
        max_batch: int = 8,
        kv_budget_bytes: Optional[object] = None,
        preemption: bool = True,
        autoscale: Optional[AutoscalePolicy] = None,
    ) -> None:
        if batching not in ("request", "step"):
            raise ValueError(f"batching must be 'request' or 'step', got {batching!r}")
        if scheduler not in SCHEDULER_NAMES:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; options: {list(SCHEDULER_NAMES)}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {max_batch}")
        if kv_budget_bytes is None:
            self._kv_budget_source = "default"
            kv_budget_bytes = DEFAULT_KV_BUDGET_BYTES
        elif isinstance(kv_budget_bytes, str):
            if kv_budget_bytes != "auto":
                raise ValueError(
                    f"kv_budget_bytes must be a byte count or 'auto', "
                    f"got {kv_budget_bytes!r}")
            self._kv_budget_source = "auto"
        else:
            if not kv_budget_bytes > 0:
                raise ValueError(f"kv_budget_bytes must be positive, got {kv_budget_bytes}")
            self._kv_budget_source = "explicit"
        if autoscale is not None and batching != "step":
            raise ValueError(
                "autoscale needs batching='step'; the fleet lifecycle lives in "
                "the step-batching runner")
        self.config = config if config is not None else maco_default_config()
        self.scheduler_name = scheduler
        self.batching = batching
        self.max_batch = max_batch
        self.kv_budget_bytes = kv_budget_bytes
        self.preemption = preemption
        self.runner = SweepRunner(jobs=jobs if jobs is not None else 1, cache=cache)
        if parallelism is None:
            self.parallelism = None
            self.groups = [(node,) for node in range(self.config.num_nodes)]
        else:
            from repro.parallel import ParallelismSpec, node_groups

            spec = ParallelismSpec.parse(parallelism)
            self.parallelism = str(spec)
            self.groups = node_groups(self.config.num_nodes, spec.degree)
        if autoscale is not None and autoscale.max_groups > len(self.groups):
            raise ValueError(
                f"autoscale max_groups ({autoscale.max_groups}) exceeds the "
                f"fleet's {len(self.groups)} group server(s)")
        self.autoscale = autoscale
        #: ``(admit_time_s, group_server_id)`` per admission of the most
        #: recent autoscaled run, plus each drain's ``(group_server_id, start,
        #: stop)`` slice into that log — diagnostics for the invariant checks
        #: (windows tick lazily, so loop order, not timestamps, scopes a
        #: drain), never part of the report.
        self.last_admissions: List[Tuple[float, int]] = []
        self.last_drains: List[Tuple[int, int, int]] = []
        self._services: Dict[Tuple[str, Precision, int], ServiceProfile] = {}

    @property
    def num_servers(self) -> int:
        """Dispatchable servers: node groups under parallelism, else nodes."""
        return len(self.groups)

    def _background(self, server: int) -> Tuple[Tuple[int, ...], ...]:
        """The other groups, whose collective traffic shares mesh links with ours."""
        if self.parallelism is None:
            return ()
        return tuple(group for index, group in enumerate(self.groups) if index != server)

    # ------------------------------------------------------------ service times
    def service_seconds(
        self,
        workload_name: str,
        precision: Precision = Precision.FP32,
        server: int = 0,
    ) -> float:
        """Memoised per-request service time on one server of this fleet.

        Under parallelism the estimate depends on the group's mesh position
        (its ring shares different links with the background groups), so
        ``server`` selects the group; without parallelism every node is
        identical and the argument is ignored.
        """
        return self.service_profile(workload_name, precision, server).latency_s

    def service_profile(
        self, workload_name: str, precision: Precision = Precision.FP32, server: int = 0
    ) -> ServiceProfile:
        """Memoised :class:`ServiceProfile` of one workload on one server."""
        if self.parallelism is None:
            server = 0
        key = (workload_name, precision, server)
        if key not in self._services:
            self._services[key] = _service_profile(
                self.config, workload_name, precision,
                active_nodes=self.config.num_nodes, cache=self.runner.cache,
                parallelism=self.parallelism,
                group=self.groups[server] if self.parallelism is not None else None,
                background=self._background(server),
            )
        return self._services[key]

    def phase_profile(
        self, workload_name: str, precision: Precision = Precision.FP32, server: int = 0
    ) -> List[Tuple[str, float]]:
        """Per-phase service seconds of one workload on this fleet.

        The breakdown that :meth:`service_seconds` sums — useful to see why a
        decode-heavy request behaves differently from a prefill-heavy one.
        """
        profile = self.service_profile(workload_name, precision, server)
        return [(step.name, step.seconds) for step in profile.steps]

    def _ensure_services(self, pairs: Sequence[Tuple[str, Precision]]) -> None:
        """Estimate the given (workload, precision) pairs, fanning out over the runner's pool.

        Under parallelism each pair is estimated once per group server (the
        mesh position changes the communication cost); otherwise once.
        """
        ordered = sorted(set(pairs), key=lambda pair: (pair[0], pair[1].name))
        servers = range(self.num_servers) if self.parallelism is not None else (0,)
        missing = [
            (workload, precision, server)
            for workload, precision in ordered
            for server in servers
            if (workload, precision, server) not in self._services
        ]
        if not missing:
            return
        tasks = [
            (self.config, workload, precision, self.config.num_nodes,
             self.parallelism,
             self.groups[server] if self.parallelism is not None else None,
             self._background(server))
            for workload, precision, server in missing
        ]
        for key, profile in zip(missing, self.runner.map(_service_worker, tasks)):
            self._services[key] = profile

    def _prepare_services(self, trace: RequestTrace) -> None:
        """Estimate every distinct (workload, precision) in the trace, possibly in parallel."""
        self._ensure_services(_trace_pairs(trace.columns))

    def suggest_rates(
        self,
        specs: Sequence[TenantSpec],
        utilization: float = 0.7,
        precision: Precision = Precision.FP32,
    ) -> List[TenantSpec]:
        """Size each tenant's arrival rate so the fleet runs at ``utilization``.

        Each tenant gets an equal share of the fleet's service capacity:
        ``rate = utilization * nodes / (tenants * mean service seconds)``,
        where the mean service time is weighted by the tenant's workload mix.
        Utilizations above 1 deliberately overload the fleet — the regime
        where continuous batching, preemption and SLO-aware admission earn
        their keep.
        """
        if not 0 < utilization:
            raise ValueError(f"utilization must be positive, got {utilization}")
        # Batch the estimates through the worker pool so --jobs helps here too
        # (this is where a cold simulator computes them in the default CLI path).
        self._ensure_services([
            (workload, precision)
            for spec in specs
            for workload, _ in spec.mean_mix_weights()
        ])
        sized = []
        for spec in specs:
            mean_service = sum(
                weight * self.service_seconds(workload, precision)
                for workload, weight in spec.mean_mix_weights()
            )
            rate = utilization * self.config.num_nodes / (len(specs) * mean_service)
            sized.append(spec.with_rate(rate))
        return sized

    # ------------------------------------------------------------ simulation
    def run(self, trace: RequestTrace, shards: Optional[int] = None) -> ServeReport:
        """Simulate the trace to completion and return the aggregated report.

        Both batching modes lower the trace to one
        :class:`~repro.serve.engine.EngineTrace` and run on the tick engine
        (see :mod:`repro.serve.engine`).  A step-mode simulator with
        ``max_batch=1``, preemption disabled and no autoscaling is
        semantically the request-level queue — one resident request per
        server, steps back-to-back — so it takes the request runner and
        reproduces that report byte for byte (modulo the ``batching`` label).
        All tie-breaks are deterministic, so identical traces yield
        bit-identical reports.

        ``shards`` cuts the trace at full-idle points
        (:func:`~repro.serve.engine.segment_bounds`) and simulates the
        resulting segments independently, fanned out over the runner's
        worker pool.  For request batching the cut points are provable idle
        instants; for step batching the drain bound charges each request one
        KV restore of its peak state on top, which preemption churn can
        exceed, so the sharded step run is deterministic but may differ from
        the continuous one.  Each segment restarts with a cold fleet and the
        cut points depend only on the trace — never on the shard count — so
        the report is byte-identical for every ``shards >= 1`` and every
        ``jobs`` setting.  ``shards=None`` (the default) runs the trace
        unsegmented: the continuous semantics, where an idle gap keeps the
        last tenant resident.
        """
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self._prepare_services(trace)
        columns = trace.columns
        step = self.batching == "step" and (
            self.max_batch > 1 or self.preemption or self.autoscale is not None)
        et, order = self._engine_trace(columns, trace if step else None)
        count = len(et)
        if shards is None:
            chunks = [[(0, count)]] if count else []
        else:
            worst = None
            if et.step is not None:
                # One KV restore of the peak state on top of the latency.
                peak_restore = np.array([[max(row) for row in rows] for rows in et.step.restore])
                worst = (et.latency_table + peak_restore.T).max(axis=1)
            chunks = shard_plan(segment_bounds(et, worst), shards)
        if len(chunks) > 1 and self.runner.jobs > 1:
            parts = self.runner.map(shard_worker, [(et, chunk) for chunk in chunks])
        else:
            parts = [simulate_segments(et, chunk) for chunk in chunks]
        done = merge_segments(parts, self.num_servers)
        if self.autoscale is not None:
            self.last_admissions = [
                (admit / TICKS_PER_SECOND, server) for admit, server in done.admissions]
            self.last_drains = list(done.drains)
        return build_report_from_columns(
            trace_name=trace.name,
            scheduler_name=self.scheduler_name,
            num_nodes=self.config.num_nodes,
            tenant_names=columns.tenants,
            tenant_id=_reorder(columns.tenant_id, order),
            arrival_ticks=et.arrival,
            start_ticks=done.start,
            first_ticks=done.first,
            finish_ticks=done.finish,
            tokens=et.tokens_table[et.pair],
            ttft_slo_s=_reorder(columns.ttft_slo_s, order),
            tpot_slo_s=_reorder(columns.tpot_slo_s, order),
            node_accumulators=done.accumulators,
            batching=self.batching,
            preemptions=done.preemptions,
            requeued=done.requeued,
            autoscale=self.autoscale,
            nodes_per_group=len(self.groups[0]),
            scale_events=done.events,
            timeline=done.timeline,
            group_ticks=done.group_ticks,
        )

    def _engine_trace(
        self, columns: TraceColumns, step_trace: Optional[RequestTrace] = None
    ) -> Tuple[EngineTrace, Optional[np.ndarray]]:
        """Lower a columnar trace to the engine's tick arrays.

        Returns the :class:`~repro.serve.engine.EngineTrace` plus the
        canonical order (``(arrival tick, request id)`` lexsort) that maps
        trace rows to engine ranks — ``None`` when the columns are already
        canonical (every generator and replay emits them that way), so the
        common case skips the sort and all the re-index gathers.  Service
        times come from the memoised profiles as *ceiling* nanosecond ticks —
        a request is never reported faster than its float estimate — batched
        into one ``(pair, server)`` table so the runners do array lookups
        instead of dict probes.  With ``step_trace`` (step batching) the
        record also carries the per-``(server, pair)``
        :class:`~repro.serve.engine.StepTables`: each step's ticks are the
        differences of the ceilinged cumulative step boundaries, so a
        request's steps sum exactly to its request-mode latency ticks.
        """
        outside = ~((columns.arrival_s >= 0)
                    & (columns.arrival_s < _TICK_LIMIT / TICKS_PER_SECOND))
        if outside.any():
            row = int(np.flatnonzero(outside)[0])
            raise ValueError(
                f"request {int(columns.request_id[row])}: arrival "
                f"{float(columns.arrival_s[row])!r} s lies outside the engine's "
                f"tick range [0, 2**63) ns")
        arrival_all = np.rint(columns.arrival_s * TICKS_PER_SECOND).astype(np.int64)
        canonical = bool(np.all(
            (arrival_all[1:] > arrival_all[:-1])
            | ((arrival_all[1:] == arrival_all[:-1])
               & (columns.request_id[1:] > columns.request_id[:-1]))
        )) if len(arrival_all) > 1 else True
        if canonical:
            order: Optional[np.ndarray] = None
            arrival = arrival_all
        else:
            order = np.lexsort((columns.request_id, arrival_all))
            arrival = arrival_all[order]
        width = max(len(columns.precisions), 1)
        codes_all = _reorder(
            columns.workload_id.astype(np.int64) * width + columns.precision_id, order)
        # Equivalent to np.unique(codes_all, return_inverse=True) but via a
        # bincount over the tiny (workload x precision) code space.
        counts = np.bincount(codes_all, minlength=len(columns.workloads) * width)
        codes = np.flatnonzero(counts)
        remap = np.zeros(len(counts), np.int64)
        remap[codes] = np.arange(len(codes), dtype=np.int64)
        pair = remap[codes_all]
        servers = self.num_servers
        latency_table = np.empty((len(codes), servers), np.int64)
        interval_table = np.empty((len(codes), servers), np.int64)
        first_table = np.empty((len(codes), servers), np.int64)
        tokens_table = np.empty(len(codes), np.int64)
        profiles = []
        for row, code in enumerate(codes.tolist()):
            workload = columns.workloads[code // width]
            precision = columns.precisions[code % width]
            profiles.append((workload, [self.service_profile(workload, precision, server)
                                        for server in range(servers)]))
            for server, profile in enumerate(profiles[-1][1]):
                latency_table[row, server] = math.ceil(
                    profile.latency_s * TICKS_PER_SECOND)
                interval_table[row, server] = math.ceil(
                    profile.interval_s * TICKS_PER_SECOND)
                first_table[row, server] = math.ceil(
                    profile.steps[0].seconds * TICKS_PER_SECOND)
            tokens_table[row] = self.service_profile(workload, precision, 0).total_tokens
        if len(arrival) and int(arrival[-1]) + int(latency_table.max()) >= _TICK_LIMIT:
            raise ValueError(
                f"the last arrival, {int(arrival[-1])} ns, plus the longest service, "
                f"{int(latency_table.max())} ns, overflows the engine's int64 clock")
        # The policy-key columns are pre-expanded only for the policies that
        # consume them on every push; fcfs/rr never read them.
        empty = np.empty(0, np.int64)
        policy = self.scheduler_name
        svc0 = latency_table[:, 0][pair] if policy == "sjf" else empty
        if policy in ("priority", "slo") or step_trace is not None:
            priority = _reorder(columns.priority, order).astype(np.int64)
        else:
            priority = empty
        if policy == "slo":
            ttft_slo = _reorder(columns.ttft_slo_s, order)
            deadline = np.full(len(arrival), NO_DEADLINE, np.int64)
            with_deadline = ~np.isnan(ttft_slo)
            deadline[with_deadline] = arrival[with_deadline] + np.ceil(
                ttft_slo[with_deadline] * TICKS_PER_SECOND).astype(np.int64)
        else:
            deadline = empty
        step = None if step_trace is None else self._step_tables(
            step_trace, profiles, priority=priority,
            ttft_slo_s=_reorder(columns.ttft_slo_s, order),
            tpot_slo_s=_reorder(columns.tpot_slo_s, order))
        # A tenant switch costs the ProcessManager's register save/restore
        # plus the ASID flush, in the CPU clock domain (DESIGN.md section 7.3).
        switch_cycles = ProcessManager.CONTEXT_SWITCH_CYCLES + TENANT_SWITCH_FLUSH_CYCLES
        return EngineTrace(
            policy=policy,
            num_servers=servers,
            switch_ticks=math.ceil(
                switch_cycles / self.config.cpu.frequency_hz * TICKS_PER_SECOND),
            arrival=arrival,
            tenant=_reorder(columns.tenant_id, order),
            pair=pair.astype(np.int32),
            latency_table=latency_table,
            interval_table=interval_table,
            first_table=first_table,
            tokens_table=tokens_table,
            svc0=svc0,
            priority=priority,
            deadline=deadline,
            uniform_interval=bool(np.array_equal(latency_table, interval_table)),
            step=step,
        ), order

    def _step_tables(
        self, trace: RequestTrace, profiles: List[Tuple[str, List[ServiceProfile]]], **columns
    ) -> StepTables:
        """The per-``(server, pair)`` step tables and the step-batching knobs.

        ``profiles`` holds each pair's workload and per-server profiles, in
        pair order; ``columns`` the per-rank victim-tier and SLO columns.
        Checks that every request fits the resolved KV budget alone and
        prices a KV restore as the step's resident bytes over the node's
        DRAM-bandwidth share.
        """
        kv = self.resolved_kv_budget(trace)
        budget = kv.budget_bytes
        for workload, per_server in profiles:
            peak = max(profile.peak_state_bytes for profile in per_server)
            if peak <= budget:
                continue
            if kv.source == "auto":
                raise ValueError(
                    f"workload {workload!r} needs {peak / 1e6:.1f} MB of "
                    f"resident state but the per-server KV budget is "
                    f"{kv.describe()}; widen the parallelism group or "
                    "grow DRAMConfig.channel_capacity_bytes - a request "
                    "must fit alone")
            raise ValueError(
                f"workload {workload!r} needs {peak / 1e6:.1f} MB of resident state "
                f"but the per-server KV budget is {budget / 1e6:.1f} MB; "
                "raise kv_budget_bytes - a request must fit alone")
        dram = DRAMModel(config=self.config.memory.dram)
        restore_bandwidth = (
            dram.effective_bandwidth(self.config.num_nodes) / self.config.num_nodes)

        def table(row):
            return tuple(tuple(tuple(row(step) for step in per_server[server].steps)
                               for _, per_server in profiles)
                         for server in range(self.num_servers))

        def step_ticks(steps):
            # Ceilinged cumulative boundaries through the same sum() as
            # ServiceProfile.latency_s (prefix sums of non-negative seconds
            # never decrease), so the last is the request-mode latency tick.
            seconds = [step.seconds for step in steps]
            edges = [math.ceil(sum(seconds[:end]) * TICKS_PER_SECOND)
                     for end in range(1, len(seconds) + 1)]
            return tuple(np.diff(edges, prepend=0).tolist())

        stage = table(lambda step: step.stage)
        return StepTables(
            ticks=tuple(tuple(step_ticks(per_server[server].steps) for _, per_server in profiles)
                        for server in range(self.num_servers)),
            stage=stage,
            state=table(lambda step: step.state_bytes),
            restore=table(lambda step: math.ceil(
                step.state_bytes / restore_bandwidth * TICKS_PER_SECOND)),
            staged=any(any(row) for rows in stage for row in rows),
            max_batch=self.max_batch,
            budget=budget,
            preemption=self.preemption,
            autoscale=self.autoscale,
            **columns,
        )

    def resolved_kv_budget(self, trace: RequestTrace) -> KVBudget:
        """The per-server KV budget the step runner will enforce, with provenance.

        ``"auto"`` budgets resolve against the trace (the resident weights
        depend on which workloads it serves): the node's DRAM capacity share
        minus the largest sharded weight share among the trace's distinct
        ``(workload, precision)`` pairs — see
        :func:`~repro.serve.autoscale.derive_kv_budget`.  Default and
        explicit budgets pass through unchanged.
        """
        if self._kv_budget_source != "auto":
            return KVBudget(
                budget_bytes=float(self.kv_budget_bytes),
                source=self._kv_budget_source)
        pairs = _trace_pairs(trace.columns)
        if not pairs:
            return KVBudget(budget_bytes=float(DEFAULT_KV_BUDGET_BYTES), source="auto")
        return derive_kv_budget(
            self.config, pairs,
            sharers=len(self.groups[0]), num_nodes=self.config.num_nodes)

    # ------------------------------------------------------- functional check
    def functional_smoke(self, trace: RequestTrace, size: int = 48, max_requests: int = 4) -> int:
        """Drive the first trace requests through the real MPAIS async path.

        For up to ``max_requests`` requests (one small ``size``-cubed FP64
        GEMM each, round-robined across the nodes of a functional
        :class:`~repro.core.maco.MACOSystem` built from this fleet's
        configuration) the smoke test submits via ``MA_CFG``
        (:meth:`~repro.core.runtime.MACORuntime.gemm_async`), polls
        ``MA_READ``, drains with ``MA_STATE`` and checks the result against
        NumPy.  Returns the number of verified GEMMs; raises on mismatch.
        """
        from repro.core.runtime import MACORuntime

        runtime = MACORuntime(config=self.config)
        rng = np.random.default_rng(0)
        verified = 0
        # Read the ids from the columns: ``trace.requests`` would build a
        # Request for every row of the trace, not just the first few.
        for request_id in trace.columns.request_id[:max_requests]:
            node_id = verified % self.config.num_nodes
            a = rng.standard_normal((size, size))
            b = rng.standard_normal((size, size))
            handle = runtime.gemm_async(a, b, node_id=node_id, precision=Precision.FP64)
            runtime.poll(handle)  # MA_READ must not release the entry
            result = runtime.wait(handle)
            if not np.allclose(result, a @ b):
                raise AssertionError(f"functional GEMM mismatch for request {request_id} on node {node_id}")
            verified += 1
        return verified
